import numpy as np
import pytest

from gcf.errors import InsufficientTrace, NonPositiveTime
from gcf.flow import FlowConfig, FlowTrace, InitialShape, run
from gcf import harnack
from gcf.geometry import GeometryState, derive_state, fourier_grid, h_norm_sq, round_grid
from gcf.harnack import (
    HarnackTable,
    P_norm_sq_h,
    P_tensor,
    P_tensor_trace,
    P_trace,
    dt_f_spatial,
    harnack_bound,
    margin_summary,
    monitor,
    speed_fields,
)
from gcf.speedlaw import SpeedLaw, expanding_b, theorem_hypotheses
from gcf.stencils import d1_o2
from gcf.verify import hessian_oracle, random_convex_grid, uniform_trace

HALF = SpeedLaw.power(-1.0, -0.5)


def round_state(n, R, size=128):
    return derive_state(round_grid(n, R, size))


def test_dt_f_spatial_round_values():
    # on rounds d_t u = b * R^(2b-1) for n=1 and 2b * R^(4b-1) for n=2,
    # from the closed-form radius ODE; dt_f_spatial returns d_t f = -d_t u
    st = round_state(1, 2.0)
    got = dt_f_spatial(speed_fields(st, SpeedLaw.power(-1.0, -0.3)))
    expect = -0.3 * 2.0 ** (2 * 0.3 - 1.0)
    assert np.max(np.abs(got - expect)) <= 1e-12

    st2 = round_state(2, 1.5)
    got2 = dt_f_spatial(speed_fields(st2, SpeedLaw.power(-1.0, -0.25)))
    assert np.max(np.abs(got2 - (-0.5))) <= 1e-12


def round_trace(law, radius, t, size=128):
    # exact round grids of radius(s) at the stored times s = t - 0.1, t, t + 0.1,
    # so that monitor's one row is the state at t
    times = [t - 0.1, t, t + 0.1]
    grids = [round_grid(1, radius(s), size) for s in times]
    return FlowTrace(n=1, law=law, times=times, grids=grids)


def test_lhs12_equality_on_self_similar_circle():
    # R(t) = (t/2)^2 for b = 1/2: u = t/2, d_t u = 1/2, gradient zero,
    # and the time factor removes exactly u/t = 1/2
    table = monitor(round_trace(HALF, lambda t: (t / 2.0) ** 2, 0.8))
    assert np.max(np.abs(table.lhs_12)) <= 1e-12


def test_lhs12_unit_circle_value():
    # R0=1: R(t) = (1 + t/2)^2, u = 1 + t/2, LHS = 1/2 - u/t = -1/t
    t = 2.0
    table = monitor(round_trace(HALF, lambda s: (1.0 + s / 2.0) ** 2, t))
    assert np.max(np.abs(table.lhs_12 + 1.0 / t)) <= 1e-12


def test_lhs12_law_and_time_guards():
    for law in (SpeedLaw.power(1.0, 0.5), SpeedLaw.power(-1.0, -1.2)):
        table = monitor(round_trace(law, lambda t: 1.0, 1.0))
        assert np.all(np.isnan(table.lhs_12))
    with pytest.raises(NonPositiveTime):
        harnack_bound(HALF, 1, 0.0)


def test_p_tensor_and_trace_on_rounds():
    # spatial terms vanish on rounds: the tensor reduces to f times the
    # squared-sff contraction and the trace to f*H
    R, b = 2.0, 0.5
    st = round_state(1, R)
    P = P_tensor(speed_fields(st, HALF))
    assert np.max(np.abs(P - (-(R**b)))) <= 1e-12
    assert np.max(np.abs(P_trace(speed_fields(st, HALF)) - (-(R ** (b - 1.0))))) <= 1e-12

    law2 = SpeedLaw.power(-1.0, -0.25)
    st2 = round_state(2, R)
    P2 = P_tensor(speed_fields(st2, law2))
    f = -(R**0.5)
    assert np.max(np.abs(P2[:, 0] - f)) <= 1e-12
    assert np.max(np.abs(P2[:, 1] - f * st2.sinphi**2)) <= 1e-12
    assert np.max(np.abs(P_trace(speed_fields(st2, law2)) - 2.0 * f / R)) <= 1e-12


@pytest.mark.parametrize("n,size,law", [(1, 256, HALF), (2, 128, SpeedLaw.power(-1.0, -0.25))])
def test_trace_equals_tensor_contraction(n, size, law):
    rng = np.random.default_rng(5 + n)
    for _ in range(4):
        st = derive_state(random_convex_grid(n, size, rng))
        direct = P_trace(speed_fields(st, law))
        contracted = P_tensor_trace(speed_fields(st, law))
        assert np.max(np.abs(direct - contracted)) <= 1e-10


def test_p_norm_equals_trace_square_for_curves():
    rng = np.random.default_rng(11)
    sf = speed_fields(derive_state(random_convex_grid(1, 256, rng)), HALF)
    assert np.max(np.abs(P_norm_sq_h(sf) - P_trace(sf) ** 2)) <= 1e-10


def test_bound_equality_on_self_similar_state():
    # trace = -2/t equals the lower bound -1/((1/n + beta) t) exactly
    t = 1.3
    st = round_state(1, (t / 2.0) ** 2)
    p = P_trace(speed_fields(st, HALF))
    bound = harnack_bound(HALF, 1, t)
    assert bound == pytest.approx(-2.0 / t, rel=1e-14)
    assert np.max(np.abs(p - bound)) <= 1e-12 * abs(bound)


def test_bound_hypotheses():
    assert theorem_hypotheses(HALF, 1)
    assert theorem_hypotheses(SpeedLaw.power(2.0, 1.5), 2)
    assert not theorem_hypotheses(SpeedLaw.power(-1.0, -0.9), 2)
    assert not theorem_hypotheses(SpeedLaw.exponential(), 1)
    assert np.isnan(harnack_bound(SpeedLaw.exponential(), 1, 1.0))


def test_p_tensor_matches_embedding_oracle_assembly():
    # brute-force tensor: covariant Hessian from the embedding oracle,
    # sff derivative from 2nd-order differences of the radius field
    errs = []
    for N in (128, 256):
        g = fourier_grid(1, 1.0, [(3, 0.04)], N)
        st = derive_state(g)
        f_field = HALF.f(st.K)
        hess = hessian_oracle(g, f_field) * st.r1**2  # theta-theta component
        dr = d1_o2(st.r1, st.dx, True)
        df = d1_o2(f_field, st.dx, True)
        brute = hess + (dr / st.r1) * df + f_field
        errs.append(np.max(np.abs(brute - P_tensor(speed_fields(st, HALF)))))
    order = np.log2(errs[0] / errs[1])
    assert 1.5 <= order <= 3.0


@pytest.mark.parametrize(
    "n,size,law,t_end",
    [
        (1, 64, HALF, 0.5),
        (2, 32, SpeedLaw.power(-1.0, -0.25), 0.5),
        (1, 64, SpeedLaw.exponential(), 0.02),
    ],
    ids=["n1-power", "n2-power", "n1-exp"],
)
def test_monitor_columns_equal_the_speed_fields_functions(n, size, law, t_end):
    # monitor builds its columns from the same functions of one SpeedFields
    # per state that a caller would use, so they agree bit for bit
    cfg = FlowConfig(grid=fourier_grid(n, 1.0, ((2, 0.02),), size), law=law, t_end=t_end, stride=3)
    trace = run(cfg)
    table = monitor(trace)
    assert len(table.t) == len(trace) - 2 >= 3
    for i, grid in enumerate(trace.grids[1:-1]):
        sf = speed_fields(derive_state(grid), law)
        assert np.array_equal(table.dt_u_spatial[i], -dt_f_spatial(sf))
        assert np.array_equal(table.p_trace[i], P_trace(sf))


def test_monitor_requires_three_states():
    cfg = FlowConfig(grid=round_grid(1, 1.0, 64), law=HALF, t_end=1.0, stride=10**9)
    trace = run(cfg)
    assert len(trace) == 2
    with pytest.raises(InsufficientTrace):
        monitor(trace)


def test_monitor_unit_circle_lhs_profile():
    # lhs_eq12 is identically -1/t along the unit-circle flow
    cfg = FlowConfig(grid=round_grid(1, 1.0, 64), law=HALF, t_end=2.0, stride=40)
    trace = run(cfg)
    table = monitor(trace)
    assert len(table.t) >= 3
    assert np.max(np.abs(table.lhs_12 + 1.0 / table.t[:, None])) <= 1e-5
    assert np.max(np.abs(table.grad_sq_h)) <= 1e-20


def test_monitor_two_time_derivative_estimates_agree_at_order_two():
    diffs = []
    for spacing in (4e-3, 2e-3, 1e-3):
        tr = uniform_trace(1, 512, HALF, InitialShape("fourier", 1.0, ((3, 0.03),)),
                           spacing=spacing, n_stored=3, burn_in=0.05)
        table = monitor(tr)
        diffs.append(float(np.max(np.abs(table.dt_u_spatial[0] - table.dt_u_fd[0]))))
    assert 3.0 <= diffs[0] / diffs[1] <= 5.0
    assert 3.0 <= diffs[1] / diffs[2] <= 5.0


def test_monitor_lhs_eq12_nonpositive_on_perturbed_flow():
    cfg = FlowConfig(grid=fourier_grid(1, 1.0, ((3, 0.04),), 128), law=HALF,
                     t_end=1.0, stride=30)
    table = monitor(run(cfg))
    assert np.all(table.lhs_12 <= 1e-8)


def test_monitor_margin_nonnegative_on_perturbed_flow():
    cfg = FlowConfig(grid=fourier_grid(1, 1.0, ((4, 0.03),), 256), law=HALF,
                     t_end=2.0, stride=40)
    summary = margin_summary(monitor(run(cfg)))
    assert summary.min_margin >= -1e-3 * summary.max_abs_P


def test_monitor_outside_hypotheses_emits_raw_trace_quantities():
    # exponential law: no bound claim, but the tensor trace is still emitted
    law = SpeedLaw.exponential()
    tr = uniform_trace(1, 128, law, InitialShape("fourier", 1.0, ((2, 0.02),)),
                       spacing=5e-4, n_stored=3)
    table = monitor(tr)
    assert np.isnan(table.bound[0])
    assert np.all(np.isnan(table.lhs_12[0]))
    assert np.all(np.isfinite(table.p_trace[0]))


def per_state_monitor(trace, law):
    # monitor as it was written state by state, kept as the reference for
    # the stacked evaluation: one HarnackTable per state, whose fields are
    # that state's row (t and bound are floats)
    states = [derive_state(g) for g in trace.grids]
    u_fields = [-law.f(s.K) for s in states]
    b = expanding_b(law, trace.n)
    rows = []
    for m in range(1, len(trace) - 1):
        t = trace.times[m]
        st = states[m]
        sf = speed_fields(st, law)
        u = u_fields[m]
        dt_u_spatial = -dt_f_spatial(sf)
        dm = trace.times[m] - trace.times[m - 1]
        dp = trace.times[m + 1] - trace.times[m]
        v = sf.fp / st.r1
        du = st.d1(u)
        central = (dm**2 * u_fields[m + 1] - dp**2 * u_fields[m - 1]
                   + (dp**2 - dm**2) * u) / (dm * dp * (dm + dp))
        dt_u_fd = central + v * du
        gsq_h = h_norm_sq(st, st.d1(u))
        p_tr = P_trace(sf)
        if b is None:
            lhs12 = np.full_like(u, np.nan)
        else:
            nb = st.n * b
            lhs12 = dt_u_spatial + gsq_h - (nb / ((1.0 - nb) * t)) * u
        bound = harnack_bound(law, st.n, t)
        rows.append(HarnackTable(
            t=t, u=u, dt_u_spatial=dt_u_spatial, dt_u_fd=dt_u_fd, grad_sq_h=gsq_h,
            lhs_12=lhs12, p_trace=p_tr, bound=bound, margin=p_tr - bound,
        ))
    return rows


# Unequal steps, as an adaptive run's stored states have; the step
# 0.575 - 0.2 = 0.375 - 2**-54 is one whose dt**2 != dt*dt.
EVERY_STATE_TIMES = (0.1, 0.2, 0.575, 0.7, 0.9, 1.0)


@pytest.mark.parametrize(
    "n,size,law,t_end,stride",
    [
        (1, 64, HALF, 0.5, 4),
        (2, 32, SpeedLaw.power(-1.0, -0.25), 0.5, 4),
        (1, 64, SpeedLaw.exponential(), 0.02, 3),
        # every state, stored at EVERY_STATE_TIMES rather than stepped
        (1, 64, HALF, None, 1),
    ],
    ids=["n1-power", "n2-power", "n1-exp", "n1-every-state"],
)
def test_monitor_equals_the_per_state_loop(n, size, law, t_end, stride):
    modes = ((2, 0.02),)
    if stride > 1:
        trace = run(FlowConfig(grid=fourier_grid(n, 1.0, modes, size), law=law,
                               t_end=t_end, stride=stride))
        assert trace.steps % stride != 0  # the final state is stored off the stride
    else:  # the shape grown by the unit circle's radius (1 + t/2)^2 at each time
        grids = [fourier_grid(n, (1.0 + t / 2.0) ** 2, modes, size) for t in EVERY_STATE_TIMES]
        trace = FlowTrace(n=n, law=law, times=list(EVERY_STATE_TIMES), grids=grids)
        # some step's dt**2, the C library's pow, differs from dt*dt
        assert any(d**2 != d * d for d in np.diff(trace.times).tolist())
    table, rows = monitor(trace), per_state_monitor(trace, law)
    S = len(trace) - 2
    assert len(rows) == S
    assert table.t.shape == table.bound.shape == (S,)
    for i, r in enumerate(rows):
        assert table.t[i] == r.t
        assert table.bound[i] == r.bound or np.isnan(r.bound)
        for name in ("u", "dt_u_spatial", "dt_u_fd", "grad_sq_h", "lhs_12", "p_trace",
                     "margin"):
            got = getattr(table, name)
            assert got.shape == (S, size), name
            assert np.array_equal(got[i], getattr(r, name), equal_nan=True), name


def test_monitor_derives_its_states_as_one_stack(monkeypatch):
    # one derivation of the stack, and d1 applied once to each field: u for
    # dt_u_fd and |grad u|^2_h, f inside box_op
    calls, d1_args = [], []

    def counting(grid):
        calls.append(grid)
        return derive_state(grid)

    d1 = GeometryState.d1

    def counting_d1(self, u):
        d1_args.append(u)
        return d1(self, u)

    monkeypatch.setattr(harnack, "derive_state", counting)
    monkeypatch.setattr(GeometryState, "d1", counting_d1)
    cfg = FlowConfig(grid=fourier_grid(1, 1.0, ((2, 0.02),), 64), law=HALF, t_end=0.5, stride=4)
    trace = run(cfg)
    table = monitor(trace)
    assert len(calls) == 1 and list(calls[0]) == trace.grids
    assert len(table.t) == len(trace) - 2
    assert len(d1_args) == 2 and not np.array_equal(d1_args[0], d1_args[1])


@pytest.mark.parametrize(
    "n,size,law,t_end",
    [
        (1, 64, HALF, 0.5),
        (2, 32, SpeedLaw.power(-1.0, -0.25), 0.5),
        (1, 64, SpeedLaw.exponential(), 0.02),
    ],
    ids=["n1-power", "n2-power", "n1-exp"],
)
def test_margin_summary_equals_the_per_state_reduction(n, size, law, t_end):
    # the smallest margin and largest |trP| of each state's row, reduced
    # over the states in Python, as margin_summary did over per-state rows
    cfg = FlowConfig(grid=fourier_grid(n, 1.0, ((2, 0.02),), size), law=law, t_end=t_end, stride=3)
    table = monitor(run(cfg))
    mm = min(float(np.min(row)) for row in table.margin)
    scale = max(float(np.max(np.abs(row))) for row in table.p_trace)
    want = (mm, scale, mm / scale if scale > 0 else float("nan"))
    got = margin_summary(table)
    assert np.array_equal(got, want, equal_nan=True)
    assert all(type(v) is float for v in got)
    assert np.isnan(got.min_margin) == (not law.is_power)
