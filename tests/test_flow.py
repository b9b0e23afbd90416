import warnings

import numpy as np
import pytest

from gcf import flow, geometry
from gcf.errors import InvalidConfig, NonConvex
from gcf.flow import FlowConfig, FlowTrace, InitialShape, run, run_ensemble, stable_dt, step
from gcf.geometry import FlatLayout, derive_state, fourier_grid, round_grid
from gcf.speedlaw import FlatLaws, SpeedLaw
from gcf.verify import ORACLE_CASES, sphere_radius_exact

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


@pytest.mark.parametrize(
    "n,size,b",
    [(1, 64, 0.5), (1, 64, 0.2), (2, 32, 0.25)],
)
def test_run_matches_round_oracle(n, size, b):
    cfg = FlowConfig(
        n=n, size=size, law=SpeedLaw.power(-1.0, -b),
        shape=InitialShape("round", 1.0), t_end=2.0, stride=10**9,
    )
    trace = run(cfg)
    assert trace.reason == "completed"
    exact = sphere_radius_exact(1.0, 2.0, n, b)
    assert np.max(np.abs(trace.grids[-1].values - exact)) / exact <= 1e-6


def test_round_stays_round_along_trace():
    cfg = FlowConfig(
        n=1, size=64, law=HALF, shape=InitialShape("round", 1.0),
        t_end=2.0, stride=50,
    )
    trace = run(cfg)
    for g in trace.grids:
        assert np.std(g.values) <= 1e-10


def test_times_strictly_increasing_and_grids_convex():
    cfg = FlowConfig(
        n=1, size=64, law=HALF,
        shape=InitialShape("fourier", 1.0, ((3, 0.05),)),
        t_end=1.0, stride=20,
    )
    trace = run(cfg)
    t = np.asarray(trace.times)
    assert np.all(np.diff(t) > 0)
    for g in trace.grids:
        derive_state(g)  # raises if convexity were lost


def test_comparison_principle_on_rounds():
    # same fixed step so stored times align
    kw = dict(n=1, size=32, law=HALF, t_end=1.0, stride=100, fixed_dt=1e-3)
    tr_a = run(FlowConfig(shape=InitialShape("round", 1.0), **kw))
    tr_b = run(FlowConfig(shape=InitialShape("round", 1.1), **kw))
    assert tr_a.times == tr_b.times
    for ga, gb in zip(tr_a.grids, tr_b.grids):
        assert np.all(gb.values > ga.values)


def test_expanding_flow_increases_support_everywhere():
    cfg = FlowConfig(
        n=1, size=64, law=HALF,
        shape=InitialShape("fourier", 1.0, ((4, 0.03),)),
        t_end=0.5, stride=10,
    )
    trace = run(cfg)
    for g0, g1 in zip(trace.grids, trace.grids[1:]):
        assert np.all(g1.values > g0.values)


def test_perturbed_circle_rounds_out():
    cfg = FlowConfig(
        n=1, size=128, law=HALF,
        shape=InitialShape("fourier", 1.0, ((3, 0.05),)),
        t_end=2.0, stride=25,
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
        cfg = FlowConfig(
            n=1, size=16, law=HALF, shape=InitialShape("round", 1.0),
            t_end=2.0, stride=10**9, fixed_dt=dt,
        )
        trace = run(cfg)
        errs.append(abs(trace.grids[-1].values[0] - 4.0))
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


def test_config_validation():
    inf, nan = float("inf"), float("nan")
    for times in ({"t_end": 0.0}, {"t_end": inf}, {"t_end": nan}, {"t_end": 1.0, "t0": nan},
                  {"t_end": 1.0, "fixed_dt": inf}, {"t_end": 1.0, "fixed_dt": nan}):
        with pytest.raises(InvalidConfig):
            FlowConfig(n=1, size=64, law=HALF, shape=InitialShape("round", 1.0), **times)
    with pytest.raises(InvalidConfig):
        FlowConfig(
            n=1, size=64, law=HALF,
            shape=InitialShape("fourier", 1.0, ((4, 0.2),)),  # nonconvex
            t_end=1.0,
        )
    with pytest.raises(InvalidConfig, match="b < 1/n"):
        FlowConfig(
            n=2, size=32, law=SpeedLaw.power(-1.0, -0.9),
            shape=InitialShape("round", 1.0), t_end=1.0,
        )
    with pytest.raises(InvalidConfig):
        FlowConfig(
            n=1, size=64, law=HALF, shape=InitialShape("round", 1.0),
            t_end=1.0, safety=1.5,
        )
    for n, size in ((1, 32), (2, 64)):  # a start grid of another (n, size)
        with pytest.raises(InvalidConfig, match="initial grid"):
            FlowConfig(
                n=n, size=size, law=SpeedLaw.power(-1.0, -0.25),
                shape=round_grid(2, 1.0, 32), t_end=1.0,
            )


def test_fixed_dt_must_divide_span():
    with pytest.raises(InvalidConfig):
        run(
            FlowConfig(
                n=1, size=32, law=HALF, shape=InitialShape("round", 1.0),
                t_end=1.0, fixed_dt=0.3,
            )
        )


# Contracting laws (speed -K^beta) that end a run early: (beta, modes,
# safety, fixed_dt, t_end, reason).  The first loses convexity in the state
# a step produces while every RK stage stays convex; the second and fourth
# move the origin out of the body (the fourth is a circle centred off the
# origin, shrinking towards its centre); the fifth shrinks until its step
# bound underflows.
EARLY_ENDS = [
    (1.1700967619904363, ((5, 0.017207980635981685),), 1.0, None, 3.0, "nonconvex"),
    (1.7070944094947509, ((3, 0.03747968438365297),), 0.6, None, 3.0, "origin_outside"),
    (1.1700967619904363, ((5, 0.017207980635981685),), 1.0, 3.0 / 750, 3.0, "nonconvex"),
    (1.0, ((1, 0.5),), 1.0, 1e-3, 1.0, "origin_outside"),
    (1.1700967619904363, ((5, 0.017207980635981685),), 0.3, None, 3.0, "dt_underflow"),
]


@pytest.mark.parametrize("beta,modes,safety,fixed_dt,t_end,reason", EARLY_ENDS)
def test_run_ends_early_with_reason(beta, modes, safety, fixed_dt, t_end, reason):
    cfg = FlowConfig(
        n=1, size=32, law=SpeedLaw.power(1.0, beta),
        shape=InitialShape("fourier", 1.0, modes), t_end=t_end, safety=safety,
        fixed_dt=fixed_dt, stride=7,
    )
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

    def counting(self, h, out=None):
        calls.append(h.size)
        return radii(self, h, out)

    radii = FlatLayout.radii
    monkeypatch.setattr(FlatLayout, "radii", counting)
    cfg = FlowConfig(
        n=2, size=32, law=SpeedLaw.power(-1.0, -0.25),
        shape=InitialShape("fourier", 1.0, ((2, 0.02),)), t_end=0.5, stride=1,
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
    """n=1 and n=2 expanding flows of two sizes each, with mixed b, t_end,
    safety and stride, plus one fixed_dt flow and one exponential-law flow."""
    rng = np.random.default_rng(seed)
    configs = []
    for j in range(9):
        n = 2 if j % 4 == 3 else 1
        mode = (int(rng.integers(2, 5)), float(rng.uniform(0.005, 0.03)))
        configs.append(FlowConfig(
            n=n, size=(32, 48)[j % 2] if n == 1 else (16, 24)[j % 3 % 2],
            law=SpeedLaw.power(-1.0, -float(rng.uniform(0.1, 0.9 / n))),
            shape=InitialShape("fourier", 1.0, (mode,)),
            t_end=float(rng.uniform(0.05, 0.4)), safety=float(rng.uniform(0.1, 0.6)),
            stride=int(rng.integers(1, 25)),
        ))
    configs.append(FlowConfig(
        n=1, size=32, law=HALF, shape=InitialShape("fourier", 1.0, ((3, 0.02),)),
        t_end=0.3, fixed_dt=0.3 / 200, stride=13,
    ))
    configs.append(FlowConfig(
        n=2, size=16, law=SpeedLaw.exponential(),
        shape=InitialShape("fourier", 1.0, ((2, 0.02),)), t_end=0.05, stride=4,
    ))
    return configs


def assert_same_trace(a, b):
    assert a.reason == b.reason
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
        for j, trace in zip(pick, run_ensemble([configs[j] for j in pick])):
            assert_same_trace(trace, solo[j])
    for trace, ref in zip(run(configs[:3]), solo):  # run() takes a list as well
        assert_same_trace(trace, ref)


@pytest.mark.parametrize("early", [EARLY_ENDS[0], EARLY_ENDS[3]], ids=lambda e: e[-1])
def test_ensemble_row_ends_early_as_alone(early):
    beta, modes, safety, fixed_dt, t_end, reason = early
    ending = FlowConfig(
        n=1, size=32, law=SpeedLaw.power(1.0, beta),
        shape=InitialShape("fourier", 1.0, modes), t_end=t_end, safety=safety,
        fixed_dt=fixed_dt, stride=7,
    )
    configs = _mixed_configs(5)[:8]  # n=1 at sizes 32 and 48, n=2 at 16 and 24
    assert {(c.n, c.size) for c in configs} == {(1, 32), (1, 48), (2, 16), (2, 24)}
    configs.insert(2, ending)
    traces = run_ensemble(configs)
    assert traces[2].reason == reason
    for cfg, trace in zip(configs, traces):
        assert_same_trace(trace, run(cfg))
    # The joint step that failed counts for every row that ran in it, and
    # the rows' own steps after it once more; the ending row's own step
    # fails again.
    failed = traces[2].steps + 1
    joint = [j for j, trace in enumerate(traces) if trace.steps >= failed]
    for j, trace in enumerate(traces):
        retaken = j in joint or (j == 2 and bool(joint))
        assert trace.rhs_evals == 4 * trace.steps + 4 * (j == 2) + 4 * retaken
    if reason == "nonconvex":  # it fails within a few steps, while other rows run
        assert joint


def test_one_joint_step_per_step_of_the_longest_row(monkeypatch):
    # the five laws of the round oracle, at n=1 and n=2, step as one batch
    configs = [
        FlowConfig(
            n=n, size=32 if n == 1 else 16, law=SpeedLaw.power(-1.0, -b),
            shape=InitialShape("round", 1.0), t_end=2.0, stride=10**9,
        )
        for n, b, _ in ORACLE_CASES
    ]
    calls = []

    def counting(law, layout, *args):
        calls.append(len(layout.rows))
        return rk4(law, layout, *args)

    rk4 = flow._rk4
    monkeypatch.setattr(flow, "_rk4", counting)
    traces = run_ensemble(configs)
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
@pytest.mark.parametrize("kind", ["stacked-power", "exp"])
def test_rk4_step_equals_reference(n, size, kind):
    rng = np.random.default_rng(size + len(kind))
    h = _random_batch(rng, n, size, 4)
    dx = 2.0 * np.pi / size if n == 1 else np.pi / size
    if kind == "exp":
        laws = [SpeedLaw.exponential()] * 4
    else:
        laws = [SpeedLaw.power(-1.0, -rng.uniform(0.05, 0.95 / n)) for _ in range(4)]
    # the four rows laid out flat, with a float step and with one step per
    # element, and each row alone with its float step, as a batch of one row
    flat = FlatLayout([(n, size, dx)] * 4)
    law = FlatLaws(laws, flat.sizes)
    r = flat.radii(h.ravel())
    radii, K = flat.split(r), flat.gauss(r)
    ref_radii, ref_K = _ref_radii_and_K(n, h, dx)
    for got, want in zip(radii, ref_radii):
        assert np.array_equal(got, want.ravel())
    assert np.array_equal(K, ref_K.ravel())
    bounds = flow._dt_bound(law, flat, radii, K, 0.3 * dx * dx).tolist()
    single = geometry.row_layout(n, size, dx)
    cases = [(flat, law, [0, 1, 2, 3], min(bounds)),
             (flat, law, [0, 1, 2, 3], np.repeat(bounds, size))]
    cases += [(single, FlatLaws([laws[j]], [size]), [j], bounds[j]) for j in range(4)]
    for layout, case_law, rows, dt in cases:
        case_h = h[rows].ravel()
        case_K = layout.gauss(layout.radii(case_h))
        new, new_radii, new_K = flow._rk4(case_law, layout, case_h, case_K, dt)
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
    fixed = run(FlowConfig(
        n=2, size=32, law=SpeedLaw.power(-1.0, -0.25),
        shape=InitialShape("fourier", 1.0, ((2, 0.02),)), t_end=0.1, fixed_dt=1e-3, stride=7,
    ))
    assert fixed.steps == 100
    assert fixed.dt_min == fixed.dt_max == 1e-3
    adaptive = run(FlowConfig(
        n=1, size=32, law=HALF, shape=InitialShape("fourier", 1.0, ((3, 0.02),)),
        t_end=0.3, stride=1,
    ))
    assert adaptive.steps == len(adaptive.times) - 1 > 1
    steps = np.diff(adaptive.times)
    assert adaptive.dt_min == pytest.approx(steps.min(), rel=1e-12)
    assert adaptive.dt_max == pytest.approx(steps.max(), rel=1e-12)
    assert adaptive.dt_min < adaptive.dt_max
    # a trace without an accepted step has no dt range
    done = FlowTrace(n=1, law=HALF)
    assert (done.steps, done.dt_min, done.dt_max) == (0, None, None)
