import math
import warnings

import numpy as np
import pytest

from gcf import flow, geometry, stencils
from gcf.errors import InvalidConfig, InvalidSpeedLaw, NonConvex, OriginOutside
from gcf.flow import FlowConfig, FlowTrace, InitialShape, run, stable_dt, step
from gcf.geometry import FlatLayout, SupportGrid, derive_state, fourier_grid, round_grid
from gcf.speedlaw import FlatLaws, SpeedLaw
from gcf.verify import ORACLE_CASES, random_convex_grid, sphere_radius_exact, uniform_trace

HALF = SpeedLaw.power(-1.0, -0.5)


def test_zero_step_is_identity():
    g = fourier_grid(1, 1.0, [(3, 0.04)], 64)
    g2 = step(g, HALF, 0.0)
    assert np.array_equal(g.values, g2.values)


def test_single_step_circle_matches_closed_form():
    # dR/dt = sqrt(R) from R=1 has R(t) = (1 + t/2)^2, quadratic in t;
    # one RK4 step carries only a tiny elementary-differential error
    g = round_grid(1, 1.0, 64)
    out = step(g, HALF, 0.01)
    assert np.max(np.abs(out.values - 1.010025)) <= 1e-10


def test_single_step_sphere_matches_closed_form():
    # n=2, b=1/4: dR/dt = R^(1/2), same closed form
    g = round_grid(2, 1.0, 64)
    out = step(g, SpeedLaw.power(-1.0, -0.25), 0.01)
    assert np.max(np.abs(out.values - 1.010025)) <= 1e-10


def test_step_rejects_convexity_loss():
    law = SpeedLaw.power(1.0, 1.0)  # contracting, speed -K
    g = fourier_grid(1, 1.0, [(4, 0.06)], 64)
    with pytest.raises(NonConvex):
        step(g, law, 5.0)


def test_step_rejects_a_negative_dt():
    with pytest.raises(ValueError, match="dt must be non-negative"):
        step(round_grid(1, 1.0, 64), HALF, -1e-3)


@pytest.mark.parametrize("n", [1, 2])
def test_initial_shape_build_rejects_an_unknown_kind_and_round_ignores_its_modes(n):
    with pytest.raises(InvalidConfig, match="unknown initial shape kind 'ellipse'"):
        InitialShape("ellipse", 1.0).build(n, 32)
    built = InitialShape("round", 1.5, ((2, 0.1),)).build(n, 32)
    assert built.values.tobytes() == round_grid(n, 1.5, 32).values.tobytes()


def test_stored_spacing_of_fewer_than_two_states_is_none():
    grid = round_grid(1, 1.0, 32)
    assert FlowTrace(n=1, law=HALF).stored_spacing is None
    assert FlowTrace(n=1, law=HALF, times=[0.0], grids=[grid]).stored_spacing is None


@pytest.mark.parametrize(
    "n,size,b",
    [(1, 64, 0.5), (1, 64, 0.2), (2, 32, 0.25)],
)
def test_run_matches_round_oracle(n, size, b):
    cfg = FlowConfig(
        grid=round_grid(n, 1.0, size), law=SpeedLaw.power(-1.0, -b),
        times=(2.0,), stride=10**9,
    )
    trace = run(cfg)
    assert trace.reason == "completed"
    exact = sphere_radius_exact(1.0, 2.0, n, b)
    assert np.max(np.abs(trace.grids[-1].values - exact)) / exact <= 1e-6


def test_round_stays_round_along_trace():
    cfg = FlowConfig(
        grid=round_grid(1, 1.0, 64), law=HALF, times=(2.0,), stride=50,
    )
    trace = run(cfg)
    for g in trace.grids:
        assert np.std(g.values) <= 1e-10


def test_times_strictly_increasing_and_grids_convex():
    cfg = FlowConfig(
        grid=fourier_grid(1, 1.0, ((3, 0.05),), 64), law=HALF,
        times=(1.0,), stride=20,
    )
    trace = run(cfg)
    t = np.asarray(trace.times)
    assert np.all(np.diff(t) > 0)
    for g in trace.grids:
        derive_state(g)  # raises if convexity were lost


def test_comparison_principle_on_rounds():
    # uniformly spaced stored states, so stored times align
    tr_a, tr_b = (uniform_trace(InitialShape("round", R0).build(1, 32), HALF, spacing=0.1,
                                n_stored=11)
                  for R0 in (1.0, 1.1))
    assert tr_a.times == tr_b.times
    for ga, gb in zip(tr_a.grids, tr_b.grids):
        assert np.all(gb.values > ga.values)


def test_expanding_flow_increases_support_everywhere():
    cfg = FlowConfig(
        grid=fourier_grid(1, 1.0, ((4, 0.03),), 64), law=HALF,
        times=(0.5,), stride=10,
    )
    trace = run(cfg)
    for g0, g1 in zip(trace.grids, trace.grids[1:]):
        assert np.all(g1.values > g0.values)


def test_perturbed_circle_rounds_out():
    cfg = FlowConfig(
        grid=fourier_grid(1, 1.0, ((3, 0.05),), 128), law=HALF,
        times=(2.0,), stride=25,
    )
    trace = run(cfg)
    ratios = []
    for g in trace.grids:
        st = derive_state(g)
        ratios.append(np.max(st.r1) / np.min(st.r1))
    assert ratios[-1] < ratios[0]
    # eventual monotone decay toward roundness
    tail = ratios[3 * len(ratios) // 4 :]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_rk4_fourth_order_in_dt():
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        grid = round_grid(1, 1.0, 16)
        for _ in range(round(2.0 / dt)):
            grid = step(grid, HALF, dt)
        errs.append(abs(grid.values[0] - 4.0))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 8.0 <= r1 <= 32.0
    assert 8.0 <= r2 <= 32.0


def test_stable_dt_scalings():
    law = HALF
    g64 = round_grid(1, 1.0, 64)
    g128 = round_grid(1, 1.0, 128)
    ratio = stable_dt(g64, law) / stable_dt(g128, law)
    assert ratio == pytest.approx(4.0, rel=1e-6)
    # flatter shapes are less stiff for negative exponents
    assert stable_dt(round_grid(1, 2.0, 64), law) > stable_dt(g64, law)


def _noise_growth(n, size, b):
    """Largest 4th difference of h after 0.2 time units over its start
    value, on a circle with 1e-8 node noise."""
    rng = np.random.default_rng(1)
    grid = SupportGrid(n, 1.0 + 1e-8 * rng.standard_normal(size))
    trace = run(FlowConfig(grid=grid, law=SpeedLaw.power(-1.0, -b), times=(0.2,), stride=10**9))
    first, last = (np.max(np.abs(np.diff(g.values, 4))) for g in trace.grids)
    return last / first


def test_step_bound_sits_below_the_stability_limit(monkeypatch):
    # RK4 with the 4th-order d2 stencil is linearly stable to about
    # 2.785*3/16 = 0.522 of dx^2/lambda; at flow.SAFETY node noise decays,
    # and just above the limit it grows at n=1 and at n=2 alike (the
    # measured cliff lies between 0.520 and 0.525 at n=1; at n=2, N=128 the
    # noise decays at 0.52 (1e-4) and grows 167x at 0.53, while N=32 still
    # decays at 0.53 (0.14))
    assert _noise_growth(1, 256, 0.9) <= 1.0
    assert _noise_growth(2, 128, 0.45) <= 1.0
    monkeypatch.setattr(flow, "SAFETY", 0.53)
    assert _noise_growth(1, 256, 0.9) >= 100.0
    assert _noise_growth(2, 128, 0.45) >= 100.0


# The noise sentinel: s = max|4th difference of h| / max h, the difference
# taken across the grid's own ghosts (periodic for n=1, mirrored at the poles
# for n=2).  A step too large for RK4 need not blow up: the noise it raises
# lifts lambda, the bound shrinks dt, and the noise saturates in a run that
# completes with no check failing.  On smooth data under an expanding law s
# stays below its start value.  (Smooth contracting flows raise s through
# the geometry alone, by up to 1.57x at beta = 1 with the same peak at
# flow.SAFETY 0.1 as at 0.45, so they are not gated.)
SENTINEL_CASES = [
    (1, 256, 0.5), (1, 64, 0.9), (1, 128, 0.2), (2, 128, 0.25), (2, 32, 0.45), (2, 64, 0.1),
]


def _sentinel(grid):
    h = grid.values
    ghosted = h[stencils.ghost_index(grid.size, grid.n == 1)]
    return np.max(np.abs(np.diff(ghosted, 4))) / np.max(h)


def _sentinel_growth(trace):
    """The sentinel's largest value over the stored states after the first,
    over its value at the first."""
    return max(map(_sentinel, trace.grids[1:])) / _sentinel(trace.grids[0])


def _sentinel_config(b, grid):
    return FlowConfig(grid=grid, law=SpeedLaw.power(-1.0, -b), times=(0.5,), stride=25)


@pytest.mark.parametrize("seed", range(6))
def test_noise_sentinel_falls_on_smooth_expanding_flows(seed):
    rng = np.random.default_rng(seed)
    traces = run([_sentinel_config(b, random_convex_grid(n, size, rng))
                  for n, size, b in SENTINEL_CASES])
    for trace in traces:
        assert trace.reason == "completed"
        assert _sentinel_growth(trace) <= 1.0  # reads at most 0.937 over the seeds


def test_noise_sentinel_sees_a_step_above_the_stability_limit(monkeypatch):
    # node noise under a step just above RK4's limit saturates: both runs
    # complete, and the sentinel reads 12.7 at n=1 and 2.77 at n=2
    monkeypatch.setattr(flow, "SAFETY", 0.53)

    def noisy_circle(n, size):
        return SupportGrid(n, 1.0 + 1e-6 * np.random.default_rng(1).standard_normal(size))

    configs = [_sentinel_config(b, noisy_circle(n, size))
               for n, size, b in ((1, 256, 0.9), (2, 128, 0.45))]
    for trace in run(configs):
        assert trace.reason == "completed"
        assert _sentinel_growth(trace) > 1.0


def test_config_validation():
    inf, nan = float("inf"), float("nan")
    for times in (
        {"times": (0.0,)}, {"times": (inf,)}, {"times": (nan,)}, {"times": (1.0,), "t0": nan},
        {"times": ()}, {"times": (0.5, 0.5)}, {"times": (0.5, 0.2, 1.0)},
        {"times": (0.5, 1.0), "t0": 0.5}, {"times": (0.5, 1.0), "t0": 0.7},
        {"times": (0.2, nan, 1.0)}, {"times": (0.2, 0.5, inf)},
    ):
        with pytest.raises(InvalidConfig, match="finite t_end"):
            FlowConfig(grid=round_grid(1, 1.0, 64), law=HALF, **times)
    with pytest.raises(InvalidConfig):
        FlowConfig(
            grid=fourier_grid(1, 1.0, ((4, 0.2),), 64),  # nonconvex
            law=HALF, times=(1.0,),
        )
    with pytest.raises(InvalidConfig, match="b < 1/n"):
        FlowConfig(
            grid=round_grid(2, 1.0, 32), law=SpeedLaw.power(-1.0, -0.9), times=(1.0,),
        )


# Contracting laws (speed -K^beta) that end a run early: (safety, beta,
# modes, t_end, reason), with safety the flow.SAFETY the run steps at (None
# for the module's own).  The first steps at 1.5, about 3 times RK4's
# stability limit of 0.522, and its fourth step loses convexity in an RK
# stage: a nonconvex end comes from an unstable step, and at flow.SAFETY the
# same flow ends dt_underflow (the third case).  The second moves the origin
# out of the body (a circle centred off the origin, shrinking towards its
# centre); the third shrinks until its step bound underflows.  The second
# and third end from the geometry.
EARLY_ENDS = [
    (1.5, 1.1700967619904363, ((5, 0.017207980635981685),), 3.0, "nonconvex"),
    (None, 1.0, ((1, 0.5),), 1.0, "origin_outside"),
    (None, 1.1700967619904363, ((5, 0.017207980635981685),), 3.0, "dt_underflow"),
]


def _early_end(early, monkeypatch) -> FlowConfig:
    """The config of an EARLY_ENDS case, with flow.SAFETY patched to its safety."""
    safety, beta, modes, t_end, _ = early
    if safety is not None:
        monkeypatch.setattr(flow, "SAFETY", safety)
    return FlowConfig(
        grid=fourier_grid(1, 1.0, modes, 32), law=SpeedLaw.power(1.0, beta),
        times=(t_end,), stride=7,
    )


@pytest.mark.parametrize("early", EARLY_ENDS, ids=lambda e: e[-1])
def test_run_ends_early_with_reason(early, monkeypatch):
    *_, t_end, reason = early
    cfg = _early_end(early, monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a failing stage's NaN and inf stay silent
        trace = run(cfg)
    assert trace.reason == reason
    # every attempted step counts, the failed last one too
    assert trace.rhs_evals == 4 * trace.steps + 4 * (reason != "dt_underflow")
    assert trace.times[-1] < t_end
    assert len(trace.times) == len(trace.grids) >= 2
    assert trace.times[-1] > trace.times[-2]  # the last accepted state is stored
    derive_state(trace.grids[-1])


def test_each_accepted_state_derived_once(monkeypatch):
    calls = []

    def counting(self, h, out):
        calls.append(h.size)
        return curvature(self, h, out)

    curvature = FlatLayout.curvature
    monkeypatch.setattr(FlatLayout, "curvature", counting)
    cfg = FlowConfig(
        grid=fourier_grid(2, 1.0, ((2, 0.02),), 32), law=SpeedLaw.power(-1.0, -0.25),
        times=(0.5,), stride=1,
    )
    assert len(calls) == 1  # the initial state, checked by the config
    trace = run(cfg)
    steps = len(trace) - 1
    # three RK stages plus the produced state per step; the initial state,
    # the step bound and the first stage reuse what is already checked
    assert len(calls) == 1 + 4 * steps
    assert trace.rhs_evals == 4 * steps
    r1, _ = trace.grids[-1].curvature()[0]
    assert not r1.flags.writeable


def _mixed_configs(seed):
    """n=1 and n=2 expanding flows of two sizes each, with mixed b, t_end
    and stride, plus one b = 1/2 flow."""
    rng = np.random.default_rng(seed)
    configs = []
    for j in range(9):
        n = 2 if j % 4 == 3 else 1
        mode = (int(rng.integers(2, 5)), float(rng.uniform(0.005, 0.03)))
        size = (32, 48)[j % 2] if n == 1 else (16, 24)[j % 3 % 2]
        configs.append(FlowConfig(
            grid=fourier_grid(n, 1.0, (mode,), size),
            law=SpeedLaw.power(-1.0, -float(rng.uniform(0.1, 0.9 / n))),
            times=(float(rng.uniform(0.05, 0.4)),),
            stride=int(rng.integers(1, 25)),
        ))
    configs.append(FlowConfig(
        grid=fourier_grid(1, 1.0, ((3, 0.02),), 32), law=HALF, times=(0.3,), stride=13,
    ))
    return configs


def assert_same_trace(a, b):
    assert (a.n, a.law, a.reason) == (b.n, b.law, b.reason)
    assert (a.steps, a.rhs_evals, a.dt_min, a.dt_max) == (b.steps, b.rhs_evals, b.dt_min, b.dt_max)
    assert a.times == b.times
    assert len(a.grids) == len(b.grids)
    for ga, gb in zip(a.grids, b.grids):
        assert np.array_equal(ga.values, gb.values)
        assert np.array_equal(ga.curvature()[1], gb.curvature()[1])


def test_ensemble_traces_equal_solo_runs():
    configs = _mixed_configs(11)
    solo = [run(cfg) for cfg in configs]
    rng = np.random.default_rng(3)
    for _ in range(4):
        pick = rng.permutation(len(configs))[: rng.integers(2, len(configs) + 1)]
        for j, trace in zip(pick, run([configs[j] for j in pick])):
            assert_same_trace(trace, solo[j])
    for trace, ref in zip(run(configs[:3]), solo):  # the first three, in their order
        assert_same_trace(trace, ref)


def test_exponential_ensemble_traces_equal_solo_runs():
    # rows of mixed n and size under the exponential law, stepped together
    configs = [
        FlowConfig(
            grid=fourier_grid(n, 1.0, ((2, 0.02),), size), law=SpeedLaw.exponential(),
            times=(t_end,), stride=stride,
        )
        for n, size, t_end, stride in ((2, 16, 0.05, 4), (1, 32, 0.04, 3), (1, 48, 0.03, 5))
    ]
    traces = run(configs)
    assert all(trace.reason == "completed" and trace.steps > 5 for trace in traces)
    for cfg, trace in zip(configs, traces):
        assert_same_trace(trace, run(cfg))


def chained_trace(cfg: FlowConfig):
    """cfg's trace as a chain of solo runs, one per time of cfg, and the
    chain's RHS evaluations.

    Run i steps the last state of run i - 1 from cfg.times[i - 1] (from
    cfg.t0 for the first run) to cfg.times[i], storing every state, and
    its last state is taken at cfg.times[i] exactly.  The chain keeps the
    initial state, the last state of each run and every state whose step
    count over the chain is a multiple of cfg.stride, sums the runs'
    steps and RHS evaluations, spans their step sizes, and ends at the
    first run that ends early, with its reason.
    """
    grid, t0 = cfg.grid, cfg.t0
    ref, rhs_evals = FlowTrace(n=grid.n, law=cfg.law, times=[t0], grids=[grid]), 0
    for t in cfg.times:
        part = run(FlowConfig(grid, cfg.law, (t,), t0, stride=1))
        if part.reason == "completed":
            part.times[-1] = t
        for k in range(1, part.steps + 1):
            if (ref.steps + k) % cfg.stride == 0 or k == part.steps:
                ref.times.append(part.times[k])
                ref.grids.append(part.grids[k])
        if part.steps:
            ref.dt_min = min(part.dt_min, ref.dt_min or math.inf)
            ref.dt_max = max(part.dt_max, ref.dt_max or 0.0)
        ref.steps += part.steps
        rhs_evals += part.rhs_evals
        if part.reason != "completed":
            ref.reason = part.reason
            break
        grid, t0 = part.grids[-1], t
    return ref, rhs_evals


def test_rows_with_their_own_times_equal_their_chains_of_solo_runs():
    # one ensemble of n=1 and n=2 rows, each with its own stored times: the
    # first also stores every 7th state between them, and the last (the
    # contracting off-centre circle of EARLY_ENDS) leaves the origin outside
    # after its third time
    configs = [
        FlowConfig(grid=fourier_grid(1, 1.0, ((3, 0.02),), 32), law=HALF,
                   times=(0.05, 0.1, 0.3), stride=7),
        FlowConfig(grid=fourier_grid(2, 1.0, ((2, 0.02),), 16),
                   law=SpeedLaw.power(-1.0, -0.25), times=(0.02, 0.05, 0.06), stride=10**9),
        FlowConfig(grid=fourier_grid(2, 1.0, ((2, 0.01),), 24),
                   law=SpeedLaw.power(-1.0, -0.4), t0=0.5, times=(0.54,), stride=3),
        FlowConfig(grid=fourier_grid(1, 1.0, ((1, 0.5),), 32), law=SpeedLaw.power(1.0, 1.0),
                   times=(0.1, 0.2, 0.3, 1.0), stride=10**9),
    ]
    traces = run(configs)
    assert len(traces[0]) > len(configs[0].times) + 1  # stored between its times
    assert traces[3].reason == "origin_outside" and traces[3].times[1:4] == [0.1, 0.2, 0.3]
    for cfg, trace in zip(configs, traces):
        ref, rhs_evals = chained_trace(cfg)
        assert trace.reason == ref.reason and trace.times == ref.times
        assert (trace.steps, trace.rhs_evals) == (ref.steps, rhs_evals)
        assert (trace.dt_min, trace.dt_max) == (ref.dt_min, ref.dt_max)
        assert len(trace.grids) == len(ref.grids)
        for got, want in zip(trace.grids, ref.grids):
            assert np.array_equal(got.values, want.values)


def test_a_list_that_mixes_law_kinds_raises_before_any_step(monkeypatch):
    power, exp = (
        FlowConfig(
            grid=fourier_grid(1, 1.0, ((3, 0.02),), 32), law=law, times=(0.1,),
        )
        for law in (HALF, SpeedLaw.exponential())
    )
    calls = []

    def counting(*args):
        calls.append(args)
        return rk4(*args)

    rk4 = flow._rk4
    monkeypatch.setattr(flow, "_rk4", counting)
    for configs in ([power, exp], [exp, power, power]):
        with pytest.raises(InvalidSpeedLaw, match="one kind"):
            run(configs)
    assert calls == []  # no step was taken


def test_a_config_with_no_time_to_step_still_counts_for_the_law_kind():
    # t_end - t0 = 4e-16 is below run()'s stop tolerance, so this config
    # takes no step; its law kind must still be checked
    power = FlowConfig(grid=fourier_grid(1, 1.0, ((3, 0.02),), 32), law=HALF, times=(0.1,))
    idle = FlowConfig(grid=round_grid(1, 1.0, 32), law=SpeedLaw.exponential(),
                      t0=1.0, times=(1.0 + 4e-16,))
    assert run(idle).steps == 0
    for configs in ([power, idle], [idle, power]):
        with pytest.raises(InvalidSpeedLaw, match="one kind"):
            run(configs)


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.0, 3.0])
def test_fast_power_exponent_rows_equal_their_solo_runs(beta):
    # beta 0.5 and 2 are f exponents, and beta - 1 = 0.5 and 2 f1 exponents,
    # for which np.power has a scalar path besides its element-wise loop
    def cfg(b):
        return FlowConfig(
            grid=fourier_grid(1, 1.0, ((3, 0.01),), 64), law=SpeedLaw.power(1.0, b),
            times=(0.1,), stride=5,
        )

    configs = [cfg(beta), cfg(1.3), cfg(beta)]
    traces = run(configs)
    assert traces[0].reason == "completed" and traces[0].steps > 10
    assert_same_trace(traces[0], run(configs[0]))
    assert_same_trace(traces[2], traces[0])
    assert_same_trace(traces[1], run(configs[1]))


def test_a_huge_round_body_steps_its_remaining_time_silently():
    # K**2 underflows to 0 at R0 = 1e200, so the step bound is infinite
    cfg = FlowConfig(
        grid=round_grid(1, 1e200, 32), law=HALF, times=(1.0,),
    )
    assert flow.stable_dt(cfg.grid, HALF) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(cfg)
    assert trace.reason == "completed"
    assert (trace.steps, trace.dt_min, trace.dt_max, trace.times) == (1, 1.0, 1.0, [0.0, 1.0])


# f1(K) overflows to inf on these bodies while K*K underflows to 0 (a NaN
# lambda) or to a subnormal (an inf lambda); lambda = b*K**(1-b) itself is
# tiny, so the step bound exceeds the time span.
F1_OVERFLOWS = [(-0.9, 1e200), (-0.95, 1e160)]


@pytest.mark.parametrize("beta,R0", F1_OVERFLOWS, ids=["nan-lambda", "inf-lambda"])
def test_a_huge_round_body_whose_f1_overflows_steps_its_remaining_time(beta, R0):
    law = SpeedLaw.power(-1.0, beta)
    huge = FlowConfig(grid=round_grid(1, R0, 64), law=law, times=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = stable_dt(huge.grid, law)
        trace = run(huge)
        configs = _mixed_configs(2)[:4]
        configs.insert(1, huge)
        together = run(configs)
    assert 1.0 < bound < math.inf
    assert trace.reason == "completed"
    assert (trace.steps, trace.dt_min, trace.dt_max, trace.times) == (1, 1.0, 1.0, [0.0, 1.0])
    # the other rows' bounds keep their bits beside it
    for cfg, got in zip(configs, together):
        assert_same_trace(got, run(cfg))


def test_a_bound_the_clock_cannot_carry_ends_dt_underflow():
    # at t = 1e5 half an ulp of t is 7.3e-12, so the bound of a contracting
    # circle of radius 1e-4 stops moving t while it is still above DT_FLOOR
    cfg = FlowConfig(grid=round_grid(1, 1e-4, 32), law=SpeedLaw.power(1.0, 1.0),
                     t0=1e5, times=(1e5 + 1.0,), stride=1)
    trace = run(cfg)
    assert trace.reason == "dt_underflow" and trace.steps > 0
    assert len(trace.times) == trace.steps + 1
    assert all(a < b for a, b in zip(trace.times, trace.times[1:]))


def test_a_lambda_beyond_the_float_range_still_ends_dt_underflow():
    # f1(K) * K*K overflows for K = 1e11 and a contracting K**27: lambda is
    # beyond the float range, so the bound is 0, formed again or not
    law = SpeedLaw.power(1.0, 27.0)
    cfg = FlowConfig(grid=round_grid(1, 1e-11, 32), law=law, times=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stable_dt(cfg.grid, law) == 0.0
        trace = run(cfg)
    assert (trace.reason, trace.steps, trace.times) == ("dt_underflow", 0, [0.0])


@pytest.mark.parametrize("early", EARLY_ENDS[:2], ids=lambda e: e[-1])
def test_ensemble_row_ends_early_as_alone(early, monkeypatch):
    ending = _early_end(early, monkeypatch)  # every row steps at the case's safety
    configs = _mixed_configs(5)[:8]  # n=1 at sizes 32 and 48, n=2 at 16 and 24
    assert {(c.grid.n, c.grid.size) for c in configs} == {(1, 32), (1, 48), (2, 16), (2, 24)}
    configs.insert(2, ending)
    configs.append(FlowConfig(  # a row that runs on past the failure
        grid=fourier_grid(1, 1.0, ((2, 0.02),), 64), law=HALF,
        times=(1.0,), stride=10,
    ))
    layouts = []

    def counting(law, layout, *args):
        layouts.append(layout)
        return rk4(law, layout, *args)

    rk4 = flow._rk4
    monkeypatch.setattr(flow, "_rk4", counting)
    traces = run(configs)
    monkeypatch.setattr(flow, "_rk4", rk4)
    assert traces[2].reason == early[-1]
    for cfg, trace in zip(configs, traces):
        assert_same_trace(trace, run(cfg))
    # one joint step per step the longest row attempted, the failed one
    # included: no row's step is taken again
    assert len(layouts) == max(trace.rhs_evals for trace in traces) // 4
    assert len(layouts[traces[2].steps].rows) > 1  # it fails while other rows run


# One case per part of a step's check, each an n=1, N=32 flow whose step
# fails: (flow.SAFETY or None, law, shape, t_end, which parts fail (stage
# radii, new values, new radii), the exception and message the failing
# row's own step raises, and the reason its run ends with).  The first
# contracting flow, above RK4's stability limit, loses convexity in a
# stage; the second's new values leave the origin outside while their
# radii stay above the floor; a round body of radius 1e300 whose speed is
# 1e308 overflows f1 + 2 f2 + 2 f3 + f4 to inf in its first step, so its
# new values are +inf (finite stages), and their radii are NaN.
FAILED_CHECKS = [
    (1.5, SpeedLaw.power(1.0, 1.1700967619904363),
     InitialShape("fourier", 1.0, ((5, 0.017207980635981685),)), 3.0, (True, True, True),
     NonConvex, "curvature radius dropped to -2.630e+00 (floor 1e-12)", "nonconvex"),
    (None, SpeedLaw.power(1.0, 1.0), InitialShape("fourier", 1.0, ((1, 0.5),)), 1.0,
     (False, True, False), OriginOutside, "support values must be strictly positive",
     "origin_outside"),
    (None, SpeedLaw.power(-1e158, -0.5), InitialShape("round", 1e300), 1.0,
     (False, True, True), OriginOutside, "support values must be finite", "origin_outside"),
]


def _fails(a, low) -> bool:
    return not (np.min(a) > low and np.max(a) < math.inf)


@pytest.mark.parametrize("case", FAILED_CHECKS, ids=["stage-nonconvex", "new-outside",
                                                     "new-overflows"])
def test_a_failed_check_ends_the_row_as_its_own_step_does(case, monkeypatch):
    safety, law, shape, t_end, parts, exc_type, message, reason = case
    if safety is not None:
        monkeypatch.setattr(flow, "SAFETY", safety)
    ending = FlowConfig(grid=shape.build(1, 32), law=law, times=(t_end,), stride=7)
    configs = _mixed_configs(5)[:8]  # n=1 at sizes 32 and 48, n=2 at 16 and 24
    configs.insert(2, ending)
    raised, failed_parts = [], []

    def failures_of(*args):
        result = rk4(*args)
        raised.extend(exc for exc in result[3] or () if exc is not None)
        return result

    def parts_of(layout, j, buf, new):
        exc = row_failure(layout, j, buf, new)
        if exc is not None:
            start = int(layout.starts[j])
            failed_parts.append((
                _fails(layout.row_radii(j, buf[:3]), geometry.RADIUS_FLOOR),
                _fails(new[start:start + int(layout.sizes[j])], 0.0),
                _fails(layout.row_radii(j, buf[3]), geometry.RADIUS_FLOOR),
            ))
        return exc

    rk4, row_failure = flow._rk4, flow._row_failure
    monkeypatch.setattr(flow, "_rk4", failures_of)
    monkeypatch.setattr(flow, "_row_failure", parts_of)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the NaN and inf stay silent
        solo, together = run(ending), run(configs)
    monkeypatch.setattr(flow, "_rk4", rk4)
    monkeypatch.setattr(flow, "_row_failure", row_failure)
    # the row fails alone and in the batch, in the same part, with the same
    # exception, and no other row fails
    assert failed_parts == [parts, parts]
    assert [(type(exc), str(exc)) for exc in raised] == [(exc_type, message)] * 2
    assert solo.reason == together[2].reason == reason
    for cfg, trace in zip(configs, together):
        assert_same_trace(trace, solo if cfg is ending else run(cfg))


def test_one_joint_step_per_step_of_the_longest_row(monkeypatch):
    # the five laws of the round oracle, at n=1 and n=2, step as one batch
    configs = [
        FlowConfig(
            grid=round_grid(n, 1.0, 32 if n == 1 else 16), law=SpeedLaw.power(-1.0, -b),
            times=(2.0,), stride=10**9,
        )
        for n, b, _ in ORACLE_CASES
    ]
    calls = []

    def counting(law, layout, *args):
        calls.append(len(layout.rows))
        return rk4(law, layout, *args)

    rk4 = flow._rk4
    monkeypatch.setattr(flow, "_rk4", counting)
    traces = run(configs)
    assert all(trace.reason == "completed" for trace in traces)
    assert len(calls) == max(trace.steps for trace in traces)
    assert calls[0] == len(configs)


# Reference for the RK4 step: the update with the rates k = -f and the
# textbook stencil expressions, term for term.
def _ref_extend(n, u):
    if n == 1:
        return np.concatenate((u[..., -2:], u, u[..., :2]), axis=-1)
    return np.concatenate((u[..., 1::-1], u, u[..., -1:-3:-1]), axis=-1)


def _ref_radii_and_K(n, h, dx):
    e = _ref_extend(n, h)
    d2 = (
        -e[..., 4:] + 16.0 * e[..., 3:-1] - 30.0 * e[..., 2:-2] + 16.0 * e[..., 1:-3]
        - e[..., :-4]
    ) / (12.0 * dx * dx)
    r1 = d2 + h
    if n == 1:
        return (r1,), 1.0 / r1
    d1 = (-e[..., 4:] + 8.0 * e[..., 3:-1] - 8.0 * e[..., 1:-3] + e[..., :-4]) / (12.0 * dx)
    phi = (np.arange(h.shape[-1]) + 0.5) * np.pi / h.shape[-1]
    r2 = d1 * (np.cos(phi) / np.sin(phi)) + h
    return (r1, r2), 1.0 / (r1 * r2)


def _ref_rk4(law, n, h, K, dx, dt):
    def speed(v):
        return -law.f(_ref_radii_and_K(n, v, dx)[1])

    k1 = -law.f(K)
    k2 = speed(h + 0.5 * dt * k1)
    k3 = speed(h + 0.5 * dt * k2)
    k4 = speed(h + dt * k3)
    new = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return (new, *_ref_radii_and_K(n, new, dx))


def _random_batch(rng, n, size, rows):
    """Random convex support values, one perturbed round shape per row."""
    if n == 1:
        ang = 2.0 * np.pi * np.arange(size) / size
    else:
        ang = np.pi * (np.arange(size) + 0.5) / size
    return np.stack([
        rng.uniform(0.5, 2.0)
        * (1.0 + sum(rng.uniform(-0.02, 0.02) * np.cos(k * ang) for k in range(2, 6)))
        for _ in range(rows)
    ])


@pytest.mark.parametrize("n,size", [(1, 256), (2, 128)])
@pytest.mark.parametrize("kind", ["stacked-power", "mixed-coefficients", "exp"])
def test_rk4_step_equals_reference(n, size, kind):
    rng = np.random.default_rng(size + len(kind))
    h = _random_batch(rng, n, size, 4)
    dx = 2.0 * np.pi / size if n == 1 else np.pi / size
    if kind == "exp":
        laws = [SpeedLaw.exponential()] * 4
    elif kind == "stacked-power":  # every row -K**beta: the stages carry -f
        laws = [SpeedLaw.power(-1.0, -rng.uniform(0.05, 0.95 / n)) for _ in range(4)]
    else:  # coefficients other than -1 in the batch: its stages carry f, row 0's alone -f
        laws = [SpeedLaw.power(a, -rng.uniform(0.05, 0.95 / n)) for a in (-1.0, -2.0, -0.37)]
        laws.append(SpeedLaw.power(1.0, rng.uniform(0.3, 2.0)))
    # the four rows laid out flat, with a float step and with one step per
    # element, and each row alone with its float step, as a batch of one row
    flat = FlatLayout([(n, size, dx)] * 4)
    law = FlatLaws(laws, flat.sizes)
    r = np.empty(flat.radii_size)
    K = flat.curvature(h.ravel(), r)
    ref_radii, ref_K = _ref_radii_and_K(n, h, dx)
    for got, want in zip(np.split(r, n), ref_radii):  # every row has n radii
        assert np.array_equal(got, want.ravel())
    assert np.array_equal(K, ref_K.ravel())
    bounds = flow._dt_bound(law, flat, r, K, [flow.SAFETY * dx * dx] * 4)
    single = geometry.row_layout(n, size, dx)
    cases = [(flat, law, [0, 1, 2, 3], min(bounds)),
             (flat, law, [0, 1, 2, 3], np.repeat(bounds, size))]
    cases += [(single, FlatLaws([laws[j]], [size]), [j], bounds[j]) for j in range(4)]
    for layout, case_law, rows, dt in cases:
        case_h = h[rows].ravel()
        case_K = layout.curvature(case_h, np.empty(layout.radii_size))
        new, new_r, new_K, failures = flow._rk4(case_law, layout, case_h, case_K, dt)
        assert failures is None
        new_radii = np.split(new_r, n)
        assert len(new_radii) == n
        for k, j in enumerate(rows):
            nodes = slice(k * size, (k + 1) * size)
            row_dt = dt if np.ndim(dt) == 0 else bounds[j]
            ref, ref_radii, ref_K = _ref_rk4(laws[j], n, h[j], case_K[nodes], dx, row_dt)
            assert not np.array_equal(new[nodes], h[j])
            assert np.array_equal(new[nodes], ref)
            for got, want in zip(new_radii, ref_radii):
                assert np.array_equal(got[nodes], want)
            assert np.array_equal(new_K[nodes], ref_K)


def test_trace_records_steps_and_dt_range():
    trace = run(FlowConfig(
        grid=fourier_grid(1, 1.0, ((3, 0.02),), 32), law=HALF, times=(0.3,), stride=1,
    ))
    assert trace.steps == len(trace.times) - 1 > 1
    steps = np.diff(trace.times)
    assert trace.dt_min == pytest.approx(steps.min(), rel=1e-12)
    assert trace.dt_max == pytest.approx(steps.max(), rel=1e-12)
    assert trace.dt_min < trace.dt_max
    # a trace without an accepted step has no dt range
    done = FlowTrace(n=1, law=HALF)
    assert (done.steps, done.dt_min, done.dt_max) == (0, None, None)
