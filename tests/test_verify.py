import math

import numpy as np
import pytest

from gcf.errors import BadExponent, InsufficientTrace, NonConvex, OriginOutside
from gcf.flow import InitialShape, stable_dt, step
from gcf.geometry import derive_state, fourier_grid, hessian_principal, round_grid
from gcf.harnack import P_trace
from gcf.speedlaw import SpeedLaw
from gcf.verify import (
    _ladder_report,
    _ladder_states,
    check_evolution,
    check_identities,
    check_P_evolution,
    check_P_expansion,
    estimate_order,
    hessian_oracle,
    identity_convergence,
    random_convex_grid,
    sphere_radius_exact,
    uniform_trace,
)

HALF = SpeedLaw.power(-1.0, -0.5)


# --- closed-form round solution ---------------------------------------------


def test_sphere_radius_exact_values():
    assert sphere_radius_exact(1.0, 2.0, 1, 0.5) == pytest.approx(4.0, rel=1e-15)
    assert sphere_radius_exact(1.0, 2.0, 2, 0.25) == pytest.approx(4.0, rel=1e-15)
    assert sphere_radius_exact(2.7, 0.0, 1, 0.3) == 2.7
    # degenerate initial radius gives the self-similar profile (t/2)^2
    t = 1.6
    assert sphere_radius_exact(0.0, t, 1, 0.5) == pytest.approx((t / 2.0) ** 2, rel=1e-14)
    with pytest.raises(BadExponent):
        sphere_radius_exact(1.0, 1.0, 2, 0.5)


# --- embedding Hessian oracle ------------------------------------------------


def test_hessian_oracle_constant_field():
    g = fourier_grid(1, 1.0, [(3, 0.05)], 64)
    assert np.max(np.abs(hessian_oracle(g, np.full(64, 4.2)))) <= 1e-11


def test_hessian_oracle_circle_eigenfield():
    R, N = 2.0, 256
    g = round_grid(1, R, N)
    u = np.cos(g.angles)
    got = hessian_oracle(g, u)
    assert np.max(np.abs(got + u / R**2)) <= 1e-3


def test_hessian_oracle_matches_christoffel_route():
    # two independent discretizations of the covariant Hessian agree at
    # second order: same shape and same random fields at both resolutions
    rng = np.random.default_rng(3)
    coefs = rng.uniform(-1, 1, size=(10, 3))
    for n, sizes, modes in (
        (1, (128, 256), ((3, 0.04), (2, 0.02))),
        (2, (64, 128), ((2, 0.03),)),
    ):
        shape = InitialShape("fourier", 1.0, modes)
        errs = []
        for size in sizes:
            g = shape.build(n, size)
            ang = g.angles
            err = 0.0
            for coef in coefs:
                u = coef[0] * np.cos(ang) + coef[1] * np.cos(2 * ang) + coef[2] * np.cos(3 * ang)
                got = hessian_oracle(g, u)
                ref = hessian_principal(derive_state(g), u)
                err = max(err, float(np.max(np.abs(got - ref))))
            errs.append(err)
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.5, (n, errs)


# --- pointwise identities ------------------------------------------------------


def test_identities_round_circle_residuals_small():
    reps = {r.identity: r for r in check_identities(round_grid(1, 1.0, 256))}
    assert reps["hessian-embedding"].finest_residual <= 1e-4
    assert reps["weingarten"].finest_residual <= 1e-4
    assert reps["curvature-divergence"].note == "degenerate for n=1"


def test_identities_converge_second_order_on_perturbed_circle():
    shape = InitialShape("fourier", 1.0, ((3, 0.05),))
    reps = identity_convergence(lambda s: shape.build(1, s), sizes=(64, 128, 256))
    for rep in reps:
        if rep.note:
            continue
        assert rep.order is not None and rep.order >= 1.7, rep


def test_divergence_identity_converges_on_ellipsoid():
    def ellipsoid(size):
        phi = (np.arange(size) + 0.5) * np.pi / size
        from gcf.geometry import SupportGrid
        return SupportGrid(2, np.sqrt(np.sin(phi) ** 2 + 1.3**2 * np.cos(phi) ** 2))

    reps = identity_convergence(ellipsoid, sizes=(32, 64, 128))
    rep = {r.identity: r for r in reps}["curvature-divergence"]
    assert rep.order is not None and rep.order >= 1.7, rep
    assert rep.residuals[0] > rep.residuals[-1]


def test_identities_converge_on_axisymmetric_surface():
    shape = InitialShape("fourier", 1.0, ((2, 0.04),))
    reps = identity_convergence(lambda s: shape.build(2, s), sizes=(32, 64, 128))
    for rep in reps:
        assert rep.order is not None and rep.order >= 1.7, rep


# --- evolution residuals -------------------------------------------------------


def test_uniform_trace_spacing_and_count():
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=5)
    assert len(tr) == 5
    assert tr.stored_spacing == pytest.approx(1e-3, rel=1e-12)


def reference_uniform_trace(n, size, law, shape, spacing, n_stored, burn_in=0.0):
    """uniform_trace as a hand-written step loop: adaptive stable_dt steps
    to burn_in, then spacing / m steps at half the step bound."""
    grid = shape.build(n, size)
    t = 0.0
    while t < burn_in - 1e-15:
        dt = min(stable_dt(grid, law), burn_in - t)
        grid = step(grid, law, dt)
        t += dt
    m = max(1, math.ceil(spacing / (0.5 * stable_dt(grid, law))))
    dt = spacing / m
    times, grids = [burn_in], [grid]
    for j in range(1, (n_stored - 1) * m + 1):
        grid = step(grid, law, dt)
        if j % m == 0:
            times.append(burn_in + j * dt)
            grids.append(grid)
    return times, grids


QUARTER = SpeedLaw.power(-1.0, -0.25)
PERTURBED = InitialShape("fourier", 1.0, ((3, 0.02), (2, 0.01)))
GENTLE = InitialShape("fourier", 1.0, ((2, 0.01),))


@pytest.mark.parametrize(
    "n,size,law,shape,spacing,n_stored,burn_in",
    [
        (1, 64, HALF, InitialShape("round", 1.0), 1e-3, 5, 0.0),
        (1, 128, HALF, PERTURBED, 1e-3, 9, 0.0),
        (1, 128, HALF, PERTURBED, 1e-3, 9, 0.1),
        (1, 128, HALF, GENTLE, 8e-3, 9, 0.25),
        (2, 64, QUARTER, InitialShape("round", 1.0), 1e-3, 3, 0.0),
        (2, 64, QUARTER, InitialShape("fourier", 1.0, ((2, 0.02),)), 2e-2, 9, 0.1),
        (1, 128, SpeedLaw.exponential(), GENTLE, 5e-4, 3, 0.0),
        (1, 128, SpeedLaw.exponential(), GENTLE, 1e-3, 9, 0.02),
    ],
)
def test_uniform_trace_equals_step_loop(n, size, law, shape, spacing, n_stored, burn_in):
    tr = uniform_trace(n, size, law, shape, spacing, n_stored, burn_in)
    times, grids = reference_uniform_trace(n, size, law, shape, spacing, n_stored, burn_in)
    assert tr.reason == "completed"
    assert np.array_equal(tr.times, times)
    assert len(tr.grids) == len(grids)
    for got, ref in zip(tr.grids, grids):
        assert np.array_equal(got.values, ref.values)


# contracting power-law flows of tests/test_flow.py that end early
CONTRACTING = SpeedLaw.power(1.0, 1.1700967619904363)
FIVE_LOBES = InitialShape("fourier", 1.0, ((5, 0.017207980635981685),))


@pytest.mark.parametrize(
    "law,shape,spacing,burn_in,error",
    [
        # the burn-in's step bound underflows as the curve shrinks
        (CONTRACTING, FIVE_LOBES, 1e-2, 3.0, InsufficientTrace),
        # the fixed-step window loses convexity
        (CONTRACTING, FIVE_LOBES, 0.5, 0.0, NonConvex),
        # an off-centre circle shrinks past the origin during the burn-in
        (SpeedLaw.power(1.0, 1.0), InitialShape("fourier", 1.0, ((1, 0.5),)), 1e-2, 3.0,
         OriginOutside),
    ],
)
def test_uniform_trace_raises_when_the_flow_ends_early(law, shape, spacing, burn_in, error):
    with pytest.raises(error, match="ended early"):
        uniform_trace(1, 32, law, shape, spacing=spacing, n_stored=7, burn_in=burn_in)


def test_check_evolution_round_circle_values():
    # on rounds: the speed field is linear in t for b=1/2, so its residual
    # is at integrator level; the metric residual follows the predicted
    # third-derivative constant d^3(R^2)/dt^3 / 6 = (1 + t/2)/2
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=9)
    reps = {r.identity: r for r in check_evolution(tr, HALF)}
    assert reps["evolve-f"].finest_residual <= 1e-9
    t_mid = tr.times[len(tr) // 2]
    predicted = 1e-6 * 3.0 * (1.0 + t_mid / 2.0) / 6.0
    assert reps["evolve-g"].finest_residual == pytest.approx(predicted, rel=0.1)
    for rep in reps.values():
        assert rep.order is None or 1.7 <= rep.order <= 2.3 or rep.finest_residual <= 1e-9


def test_check_evolution_perturbed_orders():
    tr = uniform_trace(
        1, 512, HALF, InitialShape("fourier", 1.0, ((3, 0.02), (2, 0.01))),
        spacing=1e-3, n_stored=9, burn_in=0.1,
    )
    for rep in check_evolution(tr, HALF):
        assert 1.7 <= rep.order <= 2.3, rep
        assert rep.finest_residual <= 1e-5, rep


def test_check_evolution_n2_sphere_perturbed():
    # spacing large enough that time truncation dominates the pole-cell
    # spatial floor of the azimuthal-radius derivative bundle
    tr = uniform_trace(
        2, 256, SpeedLaw.power(-1.0, -0.25),
        InitialShape("fourier", 1.0, ((2, 0.02),)),
        spacing=2e-2, n_stored=9, burn_in=0.1,
    )
    for rep in check_evolution(tr, SpeedLaw.power(-1.0, -0.25)):
        assert 1.5 <= rep.order <= 2.5, rep


def test_check_evolution_guards():
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=3)
    reps = check_evolution(tr, HALF, which=("f",))
    assert reps[0].order is None  # single spacing, no order claim
    tr.times[-1] += 1e-6  # break uniformity
    with pytest.raises(InsufficientTrace):
        check_evolution(tr, HALF)


def test_ladder_residual_nan_fails():
    # a NaN residual in any component must not fold away into a PASS
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=3)
    parts = [(lambda s: s.r1, 0.0, np.nan), (lambda s: s.r1, 0.0, 0.0)]
    rep = _ladder_report("nan", parts, _ladder_states(tr), 1.0, None)
    assert np.isnan(rep.finest_residual)
    assert not rep.passed


def test_p_evolution_round_circle():
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=9)
    rep = check_P_evolution(tr, HALF)
    assert rep.finest_residual <= 1e-6
    assert 1.7 <= rep.order <= 2.3


def test_p_evolution_self_similar_rate():
    # along the self-similar solution the trace is -2/t, so its time
    # derivative is 2/t^2; check the stored-state central difference
    R0 = 0.25
    tr = uniform_trace(1, 64, HALF, InitialShape("round", R0), spacing=1e-3, n_stored=3)
    states = [derive_state(g) for g in tr.grids]
    p = [float(P_trace(s, HALF)[0]) for s in states]
    dP = (p[2] - p[0]) / (2e-3)
    t_mid = 2.0 * np.sqrt(states[1].r1[0])  # self-similar time of the middle state
    assert dP == pytest.approx(2.0 / t_mid**2, rel=1e-5)
    rep = check_P_evolution(tr, HALF)
    assert rep.finest_residual <= 1e-5 * max(1.0, rep.scale)


def test_p_evolution_perturbed_order_and_relative_residual():
    tr = uniform_trace(
        1, 128, HALF, InitialShape("fourier", 1.0, ((2, 0.01),)),
        spacing=8e-3, n_stored=9, burn_in=0.25,
    )
    rep = check_P_evolution(tr, HALF)
    assert 1.7 <= rep.order <= 2.3
    assert rep.finest_residual <= 1e-4 * rep.scale


def test_p_evolution_structural_group_vanishes_for_power_laws():
    from gcf.speedlaw import alpha_fn, beta_fn

    rng = np.random.default_rng(9)
    st = derive_state(random_convex_grid(1, 128, rng))
    k = st.K
    group_beta = beta_fn(HALF, k)
    group_beta_prime = HALF.f(k) * alpha_fn(HALF, k) / k
    scale = np.max(np.abs(HALF.f(k)))
    assert np.max(np.abs(group_beta)) <= 1e-13 * scale
    assert np.max(np.abs(group_beta_prime)) <= 1e-12 * scale


def test_p_evolution_exponential_control_law():
    law = SpeedLaw.exponential()
    tr = uniform_trace(
        1, 128, law, InitialShape("fourier", 1.0, ((2, 0.01),)),
        spacing=1e-3, n_stored=9, burn_in=0.02,
    )
    rep = check_P_evolution(tr, law)
    assert 1.7 <= rep.order <= 2.3
    assert rep.finest_residual <= 1e-3 * rep.scale


def test_p_evolution_requires_curve_trace():
    tr = uniform_trace(2, 64, SpeedLaw.power(-1.0, -0.25), InitialShape("round", 1.0),
                       spacing=1e-3, n_stored=3)
    with pytest.raises(ValueError):
        check_P_evolution(tr, SpeedLaw.power(-1.0, -0.25))


# --- algebraic expansions ------------------------------------------------------


def test_p_expansion_round_states():
    for n, law in ((1, HALF), (2, SpeedLaw.power(-1.0, -0.25))):
        st = derive_state(round_grid(n, 1.5, 64))
        for rep in check_P_expansion(st, law):
            assert rep.finest_residual <= 1e-12, rep


def test_p_expansion_random_states():
    rng = np.random.default_rng(77)
    for i in range(6):
        n = 1 if i % 2 == 0 else 2
        st = derive_state(random_convex_grid(n, 128, rng))
        law = HALF if n == 1 else SpeedLaw.power(-1.0, -0.25)
        for rep in check_P_expansion(st, law):
            assert rep.finest_residual <= 1e-10, rep


# --- report plumbing -----------------------------------------------------------


def test_estimate_order_synthetic():
    hs = (4e-3, 2e-3, 1e-3)
    rs = tuple(0.7 * h**2 for h in hs)
    assert estimate_order(hs, rs) == pytest.approx(2.0, abs=1e-12)
    assert estimate_order(hs[:2], rs[:2]) is None
