"""Harnack quantities along a power-of-Gauss-curvature flow.

Central objects, all pointwise over a geometry state.  speed_fields(state,
law) evaluates the speed field once per state; every other quantity below
is a function of the SpeedFields it returns:

* the speed field f(K) and its exact chain-rule derivatives,
* the Harnack tensor
  P_ij = Hess_ij f - (h^-1)_kl grad_k h_ij grad_l f + f g^kl h_ik h_lj,
* its trace against the second fundamental form,
  trP = box f + f H - |grad f|^2_h / (f' K),
* the differential-Harnack expression for the speed u = K^(-b),
  d_t u + |grad u|^2_h - (n b / ((1 - n b) t)) u, expected <= 0,
* the trace lower bound trP >= -1 / ((1/n + beta) t) with beta the law
  exponent, attained with equality on the self-similar expanding round
  solution.

Time derivatives here are material derivatives (following points of the
hypersurface moving with normal speed).  The support parameterization
differs from that by a tangential motion, so the finite-difference
estimate over stored states adds the advective correction V * u', with
V = f' K' / r1 (SpeedFields.v) the turning rate of the normal at a
material point.

The chain-rule policy of the geometry module makes the purely algebraic
relations (trace of the tensor versus the direct trace formula, the
squared-trace expansion) hold to rounding error; only the genuinely
differential statements carry truncation error.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InsufficientTrace, NonPositiveTime
from .geometry import GeometryState, box_op, derive_state, h_norm_sq, h_trace
from .speedlaw import SpeedLaw, expanding_b, theorem_hypotheses


class SpeedFields(NamedTuple):
    """Chain-rule derivative bundle of the speed function on a state.

    Carries the state and law it was evaluated for, so every other Harnack
    quantity is a function of this one bundle.
    """

    state: GeometryState
    law: SpeedLaw
    f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    fp: np.ndarray        # first angular derivative, f'(K) * K'
    fpp: np.ndarray       # second angular derivative
    hess: np.ndarray      # covariant meridian Hessian component
    box: np.ndarray       # h^-1-contracted covariant Hessian
    gradsq_h: np.ndarray  # |grad f|^2 in the h norm
    f1K: np.ndarray       # f'(K) * K
    v: np.ndarray         # turning rate of the normal, f'(K) K' / r1


def speed_fields(state: GeometryState, law: SpeedLaw) -> SpeedFields:
    """Evaluate f(K) and its spatial derivatives by exact chain rule."""
    K = state.K
    f, f1, f2 = law.f(K), law.f1(K), law.f2(K)
    fp = f1 * state.Kp
    fpp = f2 * state.Kp**2 + f1 * state.Kpp
    hess = fpp - state.Gamma * fp
    box, gradsq_h = h_trace(state, hess, fp), h_norm_sq(state, fp)
    return SpeedFields(state, law, f, f1, f2, fp, fpp, hess, box, gradsq_h, f1 * K, fp / state.r1)


def dt_f_spatial(sf: SpeedFields) -> np.ndarray:
    """Material time derivative of the speed field from spatial data alone.

    d_t f = f'(K) K (box f + H f); the contracted Hessian is taken by
    finite differences of the f(K) field, matching the monitored quantity.
    """
    return sf.f1K * (box_op(sf.state, sf.f) + sf.state.H * sf.f)


def P_tensor(sf: SpeedFields) -> np.ndarray:
    """Components of the Harnack tensor in normal-angle coordinates.

    n=1: the single theta-theta component, shape (N,).
    n=2 axisymmetric: diagonal (phi-phi, psi-psi) components, shape (M, 2).
    """
    state = sf.state
    if state.n == 1:
        r = state.r1
        grad_h_cov = -state.r1p  # covariant derivative of the sff component
        term2 = -(1.0 / r) * grad_h_cov * sf.fp
        term3 = sf.f * (1.0 / r**2) * r * r
        return sf.hess + term2 + term3

    r1, r2 = state.r1, state.r2
    sin2 = state.sinphi**2
    p11 = sf.hess - (1.0 / r1) * (-state.r1p) * sf.fp + sf.f
    hess_psi = (state.r2 * state.sinphi * state.cosphi / r1) * sf.fp
    grad_h_psi_cov = -state.r2p * sin2
    p22 = hess_psi - (1.0 / r1) * grad_h_psi_cov * sf.fp + sf.f * sin2
    return np.stack([p11, p22], axis=1)


def P_trace(sf: SpeedFields) -> np.ndarray:
    """Trace of the Harnack tensor, computed from its scalar formula.

    box f + f H - |grad f|^2_h / (f' K); independent of P_tensor, so the
    agreement of the two is a real consistency check on the curvature
    divergence identity used to rewrite the trace.
    """
    return sf.box + sf.f * sf.state.H - sf.gradsq_h / sf.f1K


def _P_h(sf: SpeedFields) -> np.ndarray:
    """P_tensor's components contracted with h^-1, stacked on axis 0."""
    P, state = P_tensor(sf), sf.state
    if state.n == 1:
        return (P / state.r1)[None]
    return np.stack([P[:, 0] / state.r1, P[:, 1] / (state.r2 * state.sinphi**2)])


def P_tensor_trace(sf: SpeedFields) -> np.ndarray:
    """Contraction of P_tensor with the inverse second fundamental form."""
    return _P_h(sf).sum(axis=0)


def P_norm_sq_h(sf: SpeedFields) -> np.ndarray:
    """|P|^2 in the h norm; for n=1 this equals the squared trace."""
    return (_P_h(sf) ** 2).sum(axis=0)


def harnack_bound(law: SpeedLaw, n: int, t):
    """Lower bound -1/((1/n + beta) t) for the trace of the Harnack tensor.

    Valid where theorem_hypotheses holds; NaN elsewhere.  t is a time or an
    array of times, which gives the bound at each.
    """
    if np.any(np.less_equal(t, 0.0)):
        raise NonPositiveTime(f"need t > 0, got {t}")
    if not theorem_hypotheses(law, n):
        return t * float("nan")  # NaN, in t's shape
    return -1.0 / ((1.0 / n + law.beta) * t)


class HarnackTable(NamedTuple):
    """Harnack diagnostics of a trace, one row per monitored stored time.

    t and bound are (S,) arrays; every other field is an (S, N) array
    whose row i holds the per-node values at time t[i].
    """

    t: np.ndarray             # stored time, on the clock the config's t0 sets
    u: np.ndarray
    dt_u_spatial: np.ndarray
    dt_u_fd: np.ndarray
    grad_sq_h: np.ndarray
    lhs_12: np.ndarray        # differential Harnack expression (NaN if law not -K^-b)
    p_trace: np.ndarray
    bound: np.ndarray         # NaN outside the bound's hypotheses
    margin: np.ndarray


def _central_dt(qm, q0, qp, dm: list, dp: list) -> np.ndarray:
    """Quadratic-interpolation derivative at the middle of rows qm, q0, qp.

    dm and dp list each row's steps to the previous and next stored time.
    Exact central difference when dm == dp.  The weights are formed in
    Python floats, as a per-state evaluation forms them: their x**2 is the
    C library's pow, which differs from x*x in the last bit for about one
    value in a thousand.
    """
    w = np.array([(a**2, b**2, b**2 - a**2, a * b * (a + b)) for a, b in zip(dm, dp)])
    wm, wp, w0, den = (w[:, j:j + 1] for j in range(4))
    return (wm * qp - wp * qm + w0 * q0) / den


def monitor(trace: FlowTrace) -> HarnackTable:
    """Harnack diagnostics at every interior stored time of a trace, under
    the law the trace was stepped with (trace.law).  trace is a
    flow.FlowTrace; only its times, grids and law are read, so this module
    does not import flow.

    The time entering the Harnack expressions is the stored time itself.
    The flow's config places its initial data at time t0 >= 0 on the
    bound's clock, so every stored time after the first is > 0.  The
    stored states are derived as one stack, and every column is evaluated
    on that stack, with the times and the time-step weights as (S, 1)
    columns.  numpy's floating-point warnings are off while it runs, as
    they are in flow.run's time loop: a state whose quantities overflow
    shows as inf or NaN in the table.
    """
    if len(trace) < 3:
        raise InsufficientTrace(f"monitor needs at least 3 stored states, got {len(trace)}")
    with np.errstate(all="ignore"):  # as in flow.run: overflow shows as inf or NaN
        times, law = trace.times, trace.law
        st = derive_state(trace.grids)
        sf = speed_fields(st, law)
        u = -sf.f
        du = st.d1(u)
        mid = slice(1, -1)
        steps = [q - p for p, q in zip(times, times[1:])]
        dt_u_fd = _central_dt(u[:-2], u[mid], u[2:], steps[:-1], steps[1:]) + (sf.v * du)[mid]
        dt_u_spatial = -dt_f_spatial(sf)[mid]
        gsq_h = h_norm_sq(st, du)[mid]
        p_tr = P_trace(sf)[mid]
        t = np.array(times[1:-1])
        u = u[mid]
        b = expanding_b(law, trace.n)
        if b is None:
            lhs12 = np.full_like(u, np.nan)
        else:
            nb = trace.n * b
            lhs12 = dt_u_spatial + gsq_h - (nb / ((1.0 - nb) * t[:, None])) * u
        bound = harnack_bound(law, trace.n, t)
        return HarnackTable(
            t, u, dt_u_spatial, dt_u_fd, gsq_h, lhs12, p_tr, bound, p_tr - bound[:, None]
        )


class MarginSummary(NamedTuple):
    """Margin to the trace bound over all monitored states of a run."""

    min_margin: float
    max_abs_P: float       # the scale: largest |trP| seen
    min_margin_rel: float  # min_margin / max_abs_P, NaN when the scale is 0


def margin_summary(table: HarnackTable) -> MarginSummary:
    """Smallest margin, largest |trP| and their ratio over a monitor table."""
    mm = float(np.min(table.margin))
    # max |trP| from the extremes, without an |trP| array
    scale = max(float(np.max(table.p_trace)), -float(np.min(table.p_trace)))
    return MarginSummary(mm, scale, mm / scale if scale > 0 else float("nan"))
