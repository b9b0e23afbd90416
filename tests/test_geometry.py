import numpy as np
import pytest

from gcf.errors import NonConvex, OriginOutside
from gcf.geometry import (
    FlatLayout,
    GeometryState,
    SupportGrid,
    box_op,
    derive_state,
    fourier_grid,
    h_norm_sq,
    laplace_beltrami,
    radii_and_K,
    round_grid,
)


def test_round_circle_quantities():
    st = derive_state(round_grid(1, 2.0, 64))
    assert np.max(np.abs(st.r1 - 2.0)) <= 1e-13
    assert np.max(np.abs(st.K - 0.5)) <= 1e-13
    assert np.max(np.abs(st.H - 0.5)) <= 1e-13
    assert np.max(np.abs(st.K * st.r1 - 1.0)) <= 1e-12


def test_round_sphere_quantities():
    R = 3.0
    st = derive_state(round_grid(2, R, 64))
    assert np.max(np.abs(st.r1 - R)) <= 1e-12
    assert np.max(np.abs(st.r2 - R)) <= 1e-12
    assert np.max(np.abs(st.K - 1.0 / R**2)) <= 1e-13
    assert np.max(np.abs(st.H - 2.0 / R)) <= 1e-13


def test_cos2_perturbation_radius():
    # h = 1 + eps*cos(2t) has r = h'' + h = 1 - 3*eps*cos(2t)
    eps = 0.05
    g = fourier_grid(1, 1.0, [(2, eps)], 128)
    st = derive_state(g)
    expected = 1.0 - 3.0 * eps * np.cos(2.0 * st.angles)
    assert np.max(np.abs(st.r1 - expected)) <= 1e-6


def test_embed_unit_circle():
    st = derive_state(round_grid(1, 1.0, 64))
    pos, nor = st.positions, st.normals
    assert pos[0] == pytest.approx([1.0, 0.0], abs=1e-14)
    assert np.max(np.abs(np.linalg.norm(pos, axis=1) - 1.0)) <= 1e-13
    assert np.max(np.abs(np.linalg.norm(nor, axis=1) - 1.0)) <= 1e-15


def test_embed_translated_circle():
    # support function of a translate adds v.nu; embedding shifts by v
    g = fourier_grid(1, 1.0, [(1, 0.1)], 64)
    pos = derive_state(g).positions
    centered = pos - np.array([0.1, 0.0])
    assert np.max(np.abs(np.linalg.norm(centered, axis=1) - 1.0)) <= 1e-6


def test_embed_sphere_meridian():
    R = 2.5
    pos = derive_state(round_grid(2, R, 64)).positions
    phi = round_grid(2, R, 64).angles
    assert np.max(np.abs(pos[:, 0] - R * np.sin(phi))) <= 1e-12
    assert np.max(np.abs(pos[:, 1] - R * np.cos(phi))) <= 1e-12
    # equatorial nodes sit at distance ~R from the axis
    assert np.max(pos[:, 0]) == pytest.approx(R, rel=1e-3)


def test_translation_leaves_curvatures_invariant():
    N = 512
    base = fourier_grid(1, 1.0, [(2, 0.05), (3, 0.02)], N)
    st0 = derive_state(base)
    v = np.array([0.01, -0.007])
    ang = base.angles
    shifted = SupportGrid(1, base.values + v[0] * np.cos(ang) + v[1] * np.sin(ang))
    st1 = derive_state(shifted)
    assert np.max(np.abs(st1.r1 - st0.r1)) <= 1e-10
    assert np.max(np.abs(st1.K - st0.K)) <= 1e-10
    assert np.max(np.abs(st1.H - st0.H)) <= 1e-10
    assert np.max(np.abs(st1.positions - (st0.positions + v))) <= 1e-10


@pytest.mark.parametrize("n,size", [(1, 128), (2, 64)])
def test_scaling_covariance(n, size):
    lam = 2.5
    base = fourier_grid(n, 1.0, [(2, 0.04)], size)
    st0 = derive_state(base)
    st1 = derive_state(SupportGrid(n, lam * base.values))
    assert np.max(np.abs(st1.r1 - lam * st0.r1)) <= 1e-11 * lam
    if n == 2:
        assert np.max(np.abs(st1.r2 - lam * st0.r2)) <= 1e-11 * lam
    assert np.max(np.abs(st1.K - st0.K / lam**n)) <= 1e-12
    assert np.max(np.abs(st1.H - st0.H / lam)) <= 1e-12


def test_grad_norm_constant_field_vanishes():
    st = derive_state(fourier_grid(1, 1.0, [(3, 0.05)], 64))
    assert np.max(np.abs(h_norm_sq(st, st.d1(np.full(64, 2.3))))) <= 1e-24


def test_grad_norm_circle_sine_field():
    # |grad u|^2_h = (u')^2 / r = cos^2 / 2 on the circle of radius 2
    N = 256
    st = derive_state(round_grid(1, 2.0, N))
    u = np.sin(st.angles)
    assert np.max(np.abs(h_norm_sq(st, st.d1(u)) - np.cos(st.angles) ** 2 / 2.0)) <= 1e-7


def test_grad_norm_matches_embedding_oracle():
    # oracle: squared tangential derivative along the reconstructed curve,
    # times the curvature radius; second-order from chord differences
    errs = []
    for N in (64, 128, 256):
        g = fourier_grid(1, 1.0, [(2, 0.08)], N)
        st = derive_state(g)
        u = np.cos(3.0 * st.angles)
        pos = st.positions
        chord = np.linalg.norm(np.roll(pos, -1, axis=0) - np.roll(pos, 1, axis=0), axis=1)
        du_ds = (np.roll(u, -1) - np.roll(u, 1)) / chord
        oracle = du_ds**2 * st.r1
        errs.append(np.max(np.abs(h_norm_sq(st, st.d1(u)) - oracle)))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 1.6


def test_box_constant_field_vanishes():
    st = derive_state(fourier_grid(2, 1.0, [(2, 0.05)], 64))
    assert np.max(np.abs(box_op(st, np.full(64, 1.7)))) <= 1e-12


def test_box_circle_eigenfield():
    R, N = 2.0, 256
    st = derive_state(round_grid(1, R, N))
    u = np.cos(st.angles)
    assert np.max(np.abs(box_op(st, u) + u / R)) <= 1e-7


def test_box_sphere_eigenfield():
    R, M = 2.0, 128
    st = derive_state(round_grid(2, R, M))
    u = np.cos(st.angles)
    assert np.max(np.abs(box_op(st, u) + 2.0 * u / R)) <= 1e-7


def test_laplace_circle_and_sphere():
    R = 1.5
    st1 = derive_state(round_grid(1, R, 256))
    u1 = np.cos(st1.angles)
    assert np.max(np.abs(laplace_beltrami(st1, u1) + u1 / R**2)) <= 1e-7
    st2 = derive_state(round_grid(2, R, 128))
    u2 = np.cos(st2.angles)
    assert np.max(np.abs(laplace_beltrami(st2, u2) + 2.0 * u2 / R**2)) <= 1e-7


def test_box_equals_radius_times_laplacian_on_sphere():
    # all principal radii equal R, so the h^-1 and g^-1 contractions differ
    # exactly by one factor of R
    R, M = 1.7, 96
    st = derive_state(round_grid(2, R, M))
    u = np.cos(st.angles) + 0.3 * np.cos(2.0 * st.angles)
    lhs = box_op(st, u)
    rhs = R * laplace_beltrami(st, u)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_box_converges_at_least_second_order():
    ref_grid = fourier_grid(1, 1.0, [(2, 0.06)], 2048)
    ref_state = derive_state(ref_grid)
    u_of = lambda ang: np.cos(3.0 * ang)
    ref = box_op(ref_state, u_of(ref_state.angles))
    errs = []
    for N in (128, 256):
        st = derive_state(fourier_grid(1, 1.0, [(2, 0.06)], N))
        vals = box_op(st, u_of(st.angles))
        errs.append(np.max(np.abs(vals - ref[:: 2048 // N])))
    assert np.log2(errs[0] / errs[1]) >= 2.0


def test_nonconvex_grid_rejected():
    with pytest.raises(NonConvex):
        derive_state(fourier_grid(1, 1.0, [(4, 0.2)], 64))


def test_nonpositive_support_rejected():
    with pytest.raises(OriginOutside):
        SupportGrid(1, np.full(32, -1.0))
    with pytest.raises(OriginOutside):
        SupportGrid(1, np.concatenate([np.full(31, 1.0), [0.0]]))


def test_grid_size_constraints():
    with pytest.raises(ValueError):
        SupportGrid(1, np.full(8, 1.0))
    with pytest.raises(ValueError):
        SupportGrid(1, np.full(33, 1.0))
    with pytest.raises(ValueError):
        SupportGrid(3, np.full(32, 1.0))
    with pytest.raises(ValueError, match="support values must be a 1-D array"):
        SupportGrid(1, np.full((2, 16), 1.0))
    SupportGrid(2, np.full(17, 1.0))  # odd sizes fine for the polar grid


@pytest.mark.parametrize("n,size", [(1, 64), (2, 32)], ids=["n1", "n2"])
def test_stacked_derivation_equals_derive_state_per_grid(n, size):
    # a stack of grids derives, row by row, the same bits as each grid alone
    rng = np.random.default_rng(31 + n)
    grids = [fourier_grid(n, 1.0 + 0.1 * k, [(2, 0.02 * rng.random()), (3, 0.01)], size)
             for k in range(5)]
    stacked = derive_state(grids)
    singles = [derive_state(g) for g in grids]
    shared = ("n", "angles", "dx", "normals", "sinphi", "cosphi", "cot")

    def bits(a):
        # the raw bits, so that -0.0 and +0.0 (and NaN payloads) differ
        a = np.asarray(a, dtype=float)
        return a.shape, a.view(np.uint64).tolist()

    for name in GeometryState.__dataclass_fields__:
        got = getattr(stacked, name)
        for s, single in enumerate(singles):
            want = getattr(single, name)
            if want is None:
                assert got is None, name
            elif name in shared:
                assert bits(got) == bits(want), name
            else:
                assert got.shape[0] == len(grids)
                assert bits(got[s]) == bits(want), (name, s)


def test_stack_of_grids_of_different_sizes_is_rejected():
    with pytest.raises(ValueError):
        derive_state([round_grid(1, 1.0, 64), round_grid(1, 1.0, 32)])
    with pytest.raises(ValueError):
        derive_state([round_grid(1, 1.0, 64), round_grid(2, 1.0, 64)])


def test_flat_layout_derives_each_grid_as_alone():
    # grids of both topologies and several sizes, laid end to end
    rng = np.random.default_rng(7)
    grids = [fourier_grid(n, 1.0 + 0.1 * rng.random(), [(2, 0.03 * rng.random()), (3, 0.01)], size)
             for n, size in ((1, 32), (1, 64), (1, 16), (2, 16), (2, 17), (2, 40))]
    layout = FlatLayout([(g.n, g.size, g.spacing) for g in grids])
    assert layout.tail == 32 + 64 + 16 and layout.size == layout.tail + 16 + 17 + 40
    h, radii, K = layout.join([(g.values, *g.curvature()) for g in grids])
    r = np.empty(layout.radii_size)
    assert np.array_equal(layout.curvature(h, r), K)
    assert all(np.array_equal(a, b) for a, b in zip(layout.split(r), radii))
    for j, g in enumerate(grids):
        own = layout.grid(j, h, radii, K)
        assert np.array_equal(own.values, g.values)
        want_radii, want_K = radii_and_K(g.n, g.values, g.spacing)
        assert len(own.curvature()[0]) == g.n
        for got, want in zip(own.curvature()[0], want_radii):
            assert np.array_equal(got, want)
        assert np.array_equal(own.curvature()[1], want_K)
    # some of the rows, picked and joined again, in a layout of their own
    kept = [0, 2, 4, 5]
    sub = FlatLayout([layout.rows[j] for j in kept])
    sub_state = sub.join([layout.row(j, h, radii, K) for j in kept])
    for k, j in enumerate(kept):
        own = sub.grid(k, *sub_state)
        assert np.array_equal(own.values, grids[j].values)
        for got, want in zip(own.curvature()[0], grids[j].curvature()[0]):
            assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        FlatLayout([(2, 16, np.pi / 16), (1, 32, np.pi / 16)])  # n=1 rows first
