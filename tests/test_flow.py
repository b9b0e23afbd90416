import numpy as np
import pytest

from gcf import flow, geometry
from gcf.errors import InvalidConfig, NonConvex
from gcf.flow import FlowConfig, InitialShape, run, stable_dt, step
from gcf.geometry import derive_state, fourier_grid, round_grid
from gcf.speedlaw import SpeedLaw
from gcf.verify import sphere_radius_exact

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
    with pytest.raises(InvalidConfig):
        FlowConfig(n=1, size=64, law=HALF, shape=InitialShape("round", 1.0), t_end=0.0)
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
# origin, shrinking towards its centre).
EARLY_ENDS = [
    (1.1700967619904363, ((5, 0.017207980635981685),), 1.0, None, 3.0, "nonconvex"),
    (1.7070944094947509, ((3, 0.03747968438365297),), 0.6, None, 3.0, "origin_outside"),
    (1.1700967619904363, ((5, 0.017207980635981685),), 1.0, 3.0 / 750, 3.0, "nonconvex"),
    (1.0, ((1, 0.5),), 1.0, 1e-3, 1.0, "origin_outside"),
]


@pytest.mark.parametrize("beta,modes,safety,fixed_dt,t_end,reason", EARLY_ENDS)
def test_run_ends_early_with_reason(beta, modes, safety, fixed_dt, t_end, reason):
    cfg = FlowConfig(
        n=1, size=32, law=SpeedLaw.power(1.0, beta),
        shape=InitialShape("fourier", 1.0, modes), t_end=t_end, safety=safety,
        fixed_dt=fixed_dt, stride=7,
    )
    trace = run(cfg)
    assert trace.reason == reason
    assert trace.times[-1] < t_end
    assert len(trace.times) == len(trace.grids) >= 2
    assert trace.times[-1] > trace.times[-2]  # the last accepted state is stored
    derive_state(trace.grids[-1])


def test_each_accepted_state_derived_once(monkeypatch):
    calls = []

    def counting(n, h, dx):
        calls.append(h.size)
        return radii_and_K(n, h, dx)

    radii_and_K = geometry.radii_and_K
    monkeypatch.setattr(geometry, "radii_and_K", counting)
    monkeypatch.setattr(flow, "radii_and_K", counting)
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
    r1, _ = trace.grids[-1].curvature()[0]
    assert not r1.flags.writeable
