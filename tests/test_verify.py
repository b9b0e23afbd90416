from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gcf import flow, harnack, stencils, verify
from gcf.errors import BadExponent, InsufficientTrace, NonConvex, OriginOutside
from gcf.flow import InitialShape, stable_dt, step
from gcf.geometry import box_op, derive_state, fourier_grid, round_grid
from gcf.harnack import P_trace, speed_fields
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
    pevol_suite,
    pexpand_suite,
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
    for R0, t in ((-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="need R0 >= 0 and t >= 0"):
            sphere_radius_exact(R0, t, 1, 0.5)
    with pytest.raises(BadExponent, match="need n\\*b < 1"):
        verify.self_similar_start_time(1.0, 2, 0.5)


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
    # second order: box_op, and the oracle's principal-frame components
    # contracted with the radii; same shape and random fields at both sizes
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
            ang, st = g.angles, derive_state(g)
            err = 0.0
            for coef in coefs:
                u = coef[0] * np.cos(ang) + coef[1] * np.cos(2 * ang) + coef[2] * np.cos(3 * ang)
                hess = hessian_oracle(g, u)
                if n == 1:
                    ref = hess * st.r1
                else:
                    ref = hess[:, 0] * st.r1 + hess[:, 1] * st.r2
                err = max(err, float(np.max(np.abs(box_op(st, u) - ref))))
            errs.append(err)
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.5, (n, errs)


# --- pointwise identities ------------------------------------------------------


@pytest.mark.parametrize("n,size", [(1, 256), (2, 128)], ids=["n1", "n2"])
def test_identities_round_circle_residuals_small(n, size):
    reps = {r.identity: r for r in check_identities([round_grid(n, 1.0, size)])}
    assert reps["hessian-embedding"].finest_residual <= 1e-4
    assert reps["weingarten"].finest_residual <= 1e-4
    # the n=1 divergence identity is degenerate: no order window
    assert (reps["curvature-divergence"].order_window is None) == (n == 1)


def test_a_replaced_ladder_reports_its_own_order():
    shape = InitialShape("fourier", 1.0, ((3, 0.05),))
    rep = check_identities([shape.build(1, s) for s in (64, 128, 256)])[0]
    assert rep.identity == "hessian-embedding" and rep.order_window == (1.7, 99.0)
    assert rep.order == estimate_order(rep.resolutions, rep.residuals) >= 1.7
    assert rep.passed
    # first-order residuals on the same ladder: the order falls out of the window
    first = replace(rep, residuals=tuple(1e-3 * h / rep.resolutions[-1] for h in rep.resolutions))
    assert first.order == pytest.approx(1.0)
    assert not first.passed


def test_identities_converge_second_order_on_perturbed_circle():
    shape = InitialShape("fourier", 1.0, ((3, 0.05),))
    reps = check_identities([shape.build(1, s) for s in (64, 128, 256)])
    for rep in reps:
        if rep.order_window is None:
            continue
        assert rep.order is not None and rep.order >= 1.7, rep


def test_divergence_identity_converges_on_ellipsoid():
    def ellipsoid(size):
        phi = (np.arange(size) + 0.5) * np.pi / size
        from gcf.geometry import SupportGrid
        return SupportGrid(2, np.sqrt(np.sin(phi) ** 2 + 1.3**2 * np.cos(phi) ** 2))

    reps = check_identities([ellipsoid(s) for s in (32, 64, 128)])
    rep = {r.identity: r for r in reps}["curvature-divergence"]
    assert rep.order is not None and rep.order >= 1.7, rep
    assert rep.residuals[0] > rep.residuals[-1]


def test_identities_converge_on_axisymmetric_surface():
    shape = InitialShape("fourier", 1.0, ((2, 0.04),))
    reps = check_identities([shape.build(2, s) for s in (32, 64, 128)])
    for rep in reps:
        assert rep.order is not None and rep.order >= 1.7, rep


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=15, deadline=None)
@given(hst.sampled_from((1, 2)), hst.integers(0, 2**32 - 1), hst.integers(1, 3))
def test_a_ladder_reports_each_grids_own_residuals_bit_for_bit(n, seed, rungs):
    # one random convex shape on a grid-size ladder, coarse to fine: each
    # rung of each report is, bit for bit, the residual of that grid alone
    base = 32 if n == 1 else 16
    grids = [random_convex_grid(n, base * 2**k, np.random.default_rng(seed)) for k in range(rungs)]
    reports = check_identities(grids)
    alone = [check_identities([grid]) for grid in grids]
    assert [rep.identity for rep in reports] == [rep.identity for rep in alone[0]] == [
        "hessian-embedding", "weingarten", "curvature-divergence"
    ]
    for i, rep in enumerate(reports):
        assert rep.resolutions == tuple(grid.spacing for grid in grids)
        assert _bits(rep.residuals) == _bits([reps[i].finest_residual for reps in alone])
        assert rep.tolerance == 1e-2
        assert rep.order_window == (None if n == 1 and i == 2 else (1.7, 99.0))


# --- evolution residuals -------------------------------------------------------


def test_uniform_trace_spacing_and_count():
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=5)
    assert len(tr) == 5
    assert tr.stored_spacing == pytest.approx(1e-3, rel=1e-12)


def reference_uniform_trace(n, size, law, shape, spacing, n_stored, burn_in=0.0):
    """uniform_trace as a hand-written step loop: each step is the smaller
    of stable_dt and the time to the next stored time, under run's stop
    rule, and each stored state sits at its time.  Returns the stored
    times, the stored grids and the steps taken."""
    grid, t = shape.build(n, size), 0.0
    times = [burn_in + i * spacing for i in range(n_stored)]
    grids, dts = [], []
    for target in times:
        while t < target - 1e-14 * max(1.0, target):
            dt = min(stable_dt(grid, law), target - t)
            grid = step(grid, law, dt)
            t += dt
            dts.append(dt)
        t = target
        grids.append(grid)
    return times, grids, dts


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
    times, grids, dts = reference_uniform_trace(n, size, law, shape, spacing, n_stored, burn_in)
    assert tr.reason == "completed"
    assert tr.times == times == [burn_in + i * spacing for i in range(n_stored)]
    assert (tr.steps, tr.rhs_evals) == (len(dts), 4 * len(dts))
    assert (tr.dt_min, tr.dt_max) == (min(dts), max(dts))
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
        # steps above RK4's stability limit lose convexity before the first
        # stored time
        (CONTRACTING, FIVE_LOBES, 0.5, 0.0, NonConvex),
        # an off-centre circle shrinks past the origin during the burn-in
        (SpeedLaw.power(1.0, 1.0), InitialShape("fourier", 1.0, ((1, 0.5),)), 1e-2, 3.0,
         OriginOutside),
    ],
)
def test_uniform_trace_raises_when_the_flow_ends_early(
    law, shape, spacing, burn_in, error, monkeypatch
):
    if error is NonConvex:  # steps at test_flow.EARLY_ENDS's nonconvex safety
        monkeypatch.setattr(flow, "SAFETY", 1.5)
    with pytest.raises(error, match="ended early"):
        uniform_trace(1, 32, law, shape, spacing=spacing, n_stored=7, burn_in=burn_in)


def test_uniform_trace_that_ends_after_stored_states_names_the_last_accepted_time():
    # stored states at 0, 0.1, ..., 0.4 complete; the step bound then
    # underflows before 0.5, at a time that is no stored time
    stored = uniform_trace(1, 32, CONTRACTING, FIVE_LOBES, spacing=0.1, n_stored=5)
    assert stored.times[-1] == 0.4
    rest = flow.run(flow.FlowConfig(
        grid=stored.grids[-1], law=CONTRACTING, t0=0.4, t_end=0.5, stride=10**9,
    ))
    t = rest.times[-1]
    assert rest.reason == "dt_underflow" and 0.4 < t < 0.5
    with pytest.raises(InsufficientTrace) as info:
        uniform_trace(1, 32, CONTRACTING, FIVE_LOBES, spacing=0.1, n_stored=7)
    assert str(info.value) == f"flow ended early at t = {t!r}: dt_underflow"


def test_check_evolution_round_circle_values():
    # on rounds: the speed field is linear in t for b=1/2, so its residual
    # is at integrator level; the metric residual follows the predicted
    # third-derivative constant d^3(R^2)/dt^3 / 6 = (1 + t/2)/2
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=9)
    reps = {r.identity: r for r in check_evolution(tr)}
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
    for rep in check_evolution(tr):
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
    for rep in check_evolution(tr):
        assert 1.5 <= rep.order <= 2.5, rep


def test_check_evolution_guards():
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=3)
    reps = [r for r in check_evolution(tr) if r.identity == "evolve-f"]
    assert reps[0].order is None  # single spacing, no order claim
    tr.times[-1] += 1e-6  # break uniformity
    with pytest.raises(InsufficientTrace):
        check_evolution(tr)
    two = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=2)
    with pytest.raises(InsufficientTrace, match="need at least 3 stored states"):
        check_evolution(two)


def test_ladder_residual_nan_fails():
    # a NaN residual in any component must not fold away into a PASS
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=3)
    parts = [(lambda s: s.r1, 0.0, np.nan), (lambda s: s.r1, 0.0, 0.0)]
    rep = _ladder_report("nan", parts, _ladder_states(tr), 1.0, None)
    assert np.isnan(rep.finest_residual)
    assert not rep.passed


def test_a_nan_in_a_stencil_fails_every_pointwise_identity(monkeypatch):
    # a NaN at one node of the 2nd-order d1 reaches each identity's residual
    original = stencils.d1_o2

    def with_nan(u, dx, periodic, parity="even"):
        out = original(u, dx, periodic, parity)
        out[3] = np.nan
        return out

    monkeypatch.setattr(stencils, "d1_o2", with_nan)
    reports = check_identities([round_grid(1, 1.0, 64)])
    assert [rep.identity for rep in reports] == [
        "hessian-embedding", "weingarten", "curvature-divergence"
    ]
    for rep in reports:
        assert np.isnan(rep.finest_residual), rep.identity
        assert rep.passed is False, rep.identity


def test_a_nan_in_one_states_norm_fails_its_pexpand_rows(monkeypatch):
    # the second of the suite's states (n=1) gets a NaN in |P|^2_h, which
    # only the tensor-norm rows read
    original, calls = verify.P_norm_sq_h, []

    def with_nan(sf):
        out = original(sf)
        calls.append(sf)
        if len(calls) == 2:
            out[0] = np.nan
        return out

    monkeypatch.setattr(verify, "P_norm_sq_h", with_nan)
    reports = {rep.identity: rep for rep in pexpand_suite()}
    assert len(calls) == 6
    for name in ("p-tensor-norm-terms", "p-norm-trace-square"):
        assert np.isnan(reports[name].finest_residual), name
        assert reports[name].passed is False, name
    assert reports["p-square-expansion"].passed is True


def test_a_nan_in_one_power_law_fails_the_speedlaw_suite(monkeypatch):
    # f3 of the second power law, -x^(-0.2), is NaN at x = 1, and so is alpha
    original = SpeedLaw.f3

    def with_nan(law, x):
        out = np.array(original(law, x), dtype=float)
        if law.is_power and law.beta == -0.2:
            out[1] = np.nan
        return out

    monkeypatch.setattr(SpeedLaw, "f3", with_nan)
    reports = {rep.identity: rep for rep in verify.speedlaw_suite()}
    vanishing = reports["power-structural-vanishing"]
    assert np.isnan(vanishing.finest_residual)
    assert vanishing.passed is False
    assert reports["exp-gamma-identity"].passed is True
    assert reports["exp-beta-prime-identity"].passed is True


def test_p_evolution_round_circle():
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=9)
    rep = check_P_evolution(tr)
    assert rep.finest_residual <= 1e-6
    assert 1.7 <= rep.order <= 2.3


def test_p_evolution_self_similar_rate():
    # along the self-similar solution the trace is -2/t, so its time
    # derivative is 2/t^2; check the stored-state central difference
    R0 = 0.25
    tr = uniform_trace(1, 64, HALF, InitialShape("round", R0), spacing=1e-3, n_stored=3)
    states = [derive_state(g) for g in tr.grids]
    p = [float(P_trace(speed_fields(s, HALF))[0]) for s in states]
    dP = (p[2] - p[0]) / (2e-3)
    t_mid = 2.0 * np.sqrt(states[1].r1[0])  # self-similar time of the middle state
    assert dP == pytest.approx(2.0 / t_mid**2, rel=1e-5)
    rep = check_P_evolution(tr)
    assert rep.finest_residual <= 1e-5 * max(1.0, rep.scale)


def test_p_evolution_perturbed_order_and_relative_residual():
    tr = uniform_trace(
        1, 128, HALF, InitialShape("fourier", 1.0, ((2, 0.01),)),
        spacing=8e-3, n_stored=9, burn_in=0.25,
    )
    rep = check_P_evolution(tr)
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
    rep = check_P_evolution(tr)
    assert 1.7 <= rep.order <= 2.3
    assert rep.finest_residual <= 1e-3 * rep.scale


def test_p_evolution_requires_curve_trace():
    tr = uniform_trace(2, 64, SpeedLaw.power(-1.0, -0.25), InitialShape("round", 1.0),
                       spacing=1e-3, n_stored=3)
    with pytest.raises(ValueError):
        check_P_evolution(tr)


# --- algebraic expansions ------------------------------------------------------


def _count_speed_fields(monkeypatch) -> list:
    """The states that speed_fields is called on from now on, in verify and harnack."""
    states, original = [], harnack.speed_fields

    def counting(state, law):
        states.append(state)
        return original(state, law)

    monkeypatch.setattr(harnack, "speed_fields", counting)
    monkeypatch.setattr(verify, "speed_fields", counting)
    return states


def test_p_checks_evaluate_speed_fields_once_per_state(monkeypatch):
    calls = _count_speed_fields(monkeypatch)
    rng = np.random.default_rng(3)
    for n, size, law in ((1, 128, HALF), (2, 64, SpeedLaw.power(-1.0, -0.25))):
        st = derive_state(random_convex_grid(n, size, rng))
        calls.clear()
        check_P_expansion([(st, law)])
        assert len(calls) == 1 and calls[0] is st
    tr = uniform_trace(1, 64, HALF, InitialShape("round", 1.0), spacing=1e-3, n_stored=9)
    calls.clear()
    check_P_evolution(tr)
    # the middle state, then each state of the (4, 2, 1) ladder around it
    assert len(calls) == len({id(s) for s in calls}) == 1 + 2 * len(_ladder_states(tr).ks)
    calls.clear()
    pexpand_suite()
    assert len(calls) == 10
    calls.clear()
    pevol_suite()
    assert len(calls) == 14


def test_p_expansion_round_states():
    for n, law in ((1, HALF), (2, SpeedLaw.power(-1.0, -0.25))):
        st = derive_state(round_grid(n, 1.5, 64))
        for rep in check_P_expansion([(st, law)]):
            assert rep.finest_residual <= 1e-12, rep


def test_p_expansion_random_states():
    rng = np.random.default_rng(77)
    for i in range(6):
        n = 1 if i % 2 == 0 else 2
        st = derive_state(random_convex_grid(n, 128, rng))
        law = HALF if n == 1 else SpeedLaw.power(-1.0, -0.25)
        for rep in check_P_expansion([(st, law)]):
            assert rep.finest_residual <= 1e-10, rep


@settings(max_examples=15, deadline=None)
@given(hst.lists(hst.sampled_from((1, 2)), min_size=1, max_size=5), hst.integers(0, 2**32 - 1))
def test_p_expansion_of_a_family_is_the_max_over_its_one_case_families(ns, seed):
    rng = np.random.default_rng(seed)
    laws = {1: HALF, 2: SpeedLaw.power(-1.0, -0.25)}
    cases = [(derive_state(random_convex_grid(n, 64, rng)), laws[n]) for n in ns]
    alone = {}
    for case in cases:
        for rep in check_P_expansion([case]):
            alone.setdefault(rep.identity, []).append(rep.finest_residual)
        if case[0].n == 1:  # a case's residual is its largest over the nodes
            sf = speed_fields(*case)
            worst = np.max(np.abs(harnack.P_norm_sq_h(sf) - P_trace(sf) ** 2))
            assert _bits([alone["p-norm-trace-square"][-1]]) == _bits([worst])
    reports = check_P_expansion(cases)
    assert [rep.identity for rep in reports] == sorted(alone)
    for rep in reports:
        assert rep.resolutions == (0.0,) and rep.tolerance == 1e-10
        assert _bits(rep.residuals) == _bits([max(alone[rep.identity])])
    # the tensor-norm expansions apply to n=1 states only
    n2_cases = [case for case in cases if case[0].n == 2]
    if n2_cases:
        assert [rep.identity for rep in check_P_expansion(n2_cases)] == ["p-square-expansion"]


# --- random convex states -----------------------------------------------------


def _failing_derive_state(monkeypatch, exc, times):
    """Make verify's derive_state raise exc on its first `times` calls;
    returns the list of the grids it was called on."""
    calls = []

    def derive(grid):
        calls.append(grid)
        if len(calls) <= times:
            raise exc("drawn")
        return derive_state(grid)

    monkeypatch.setattr(verify, "derive_state", derive)
    return calls


def test_random_convex_grid_retries_a_nonconvex_draw_at_half_the_amplitudes(monkeypatch):
    first = random_convex_grid(1, 64, np.random.default_rng(3))
    calls = _failing_derive_state(monkeypatch, NonConvex, 1)
    again = random_convex_grid(1, 64, np.random.default_rng(3))
    assert len(calls) == 2 and calls[1] is again
    np.testing.assert_allclose(again.values - 1.0, 0.5 * (first.values - 1.0), rtol=0, atol=1e-15)


@pytest.mark.parametrize("exc", [NonConvex, OriginOutside])
def test_random_convex_grid_gives_up_after_40_draws(monkeypatch, exc):
    calls = _failing_derive_state(monkeypatch, exc, 40)
    with pytest.raises(RuntimeError, match="could not draw a convex grid"):
        random_convex_grid(2, 32, np.random.default_rng(3))
    assert len(calls) == 40


def test_random_convex_grid_lets_a_programming_error_through(monkeypatch):
    calls = _failing_derive_state(monkeypatch, TypeError, 1)
    with pytest.raises(TypeError, match="drawn"):
        random_convex_grid(1, 64, np.random.default_rng(3))
    assert len(calls) == 1


# --- report plumbing -----------------------------------------------------------


def test_estimate_order_synthetic():
    hs = (4e-3, 2e-3, 1e-3)
    rs = tuple(0.7 * h**2 for h in hs)
    assert estimate_order(hs, rs) == pytest.approx(2.0, abs=1e-12)
    assert estimate_order(hs[:2], rs[:2]) is None
    # a pair with a zero residual gives no slope: the mean is of the others,
    # and None when no pair gives one
    with_zero = estimate_order((8e-3, *hs), (0.7 * 8e-3**2, *rs[:2], 0.0))
    assert with_zero == pytest.approx(2.0, abs=1e-12)
    assert estimate_order(hs, (1e-5, 0.0, 0.0)) is None
