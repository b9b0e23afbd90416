"""Harnack quantities along a power-of-Gauss-curvature flow.

Central objects, all pointwise over a geometry state:

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
V = f' K' / r1 the turning rate of the normal at a material point.

The chain-rule policy of the geometry module makes the purely algebraic
relations (trace of the tensor versus the direct trace formula, the
squared-trace expansion) hold to rounding error; only the genuinely
differential statements carry truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InsufficientTrace, NonPositiveTime, WrongLawForm
from .flow import FlowTrace
from .geometry import (
    GeometryState,
    box_op,
    derive_state,
    grad_norm_sq_h,
)
from .speedlaw import SpeedLaw


class SpeedFields(NamedTuple):
    """Chain-rule derivative bundle of the speed function on a state."""

    f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    fp: np.ndarray        # first angular derivative, f'(K) * K'
    fpp: np.ndarray       # second angular derivative
    hess: np.ndarray      # covariant meridian Hessian component
    box: np.ndarray       # h^-1-contracted covariant Hessian
    gradsq_h: np.ndarray  # |grad f|^2 in the h norm
    f1K: np.ndarray       # f'(K) * K


def speed_fields(state: GeometryState, law: SpeedLaw) -> SpeedFields:
    """Evaluate f(K) and its spatial derivatives by exact chain rule."""
    K = state.K
    f, f1, f2 = law.f(K), law.f1(K), law.f2(K)
    fp = f1 * state.Kp
    fpp = f2 * state.Kp**2 + f1 * state.Kpp
    hess = fpp - state.Gamma * fp
    if state.n == 1:
        box = hess / state.r1
    else:
        box = hess / state.r1 + state.cot * fp / state.r1
    gradsq_h = fp * fp / state.r1
    return SpeedFields(f, f1, f2, fp, fpp, hess, box, gradsq_h, f1 * K)


def dt_f_spatial(state: GeometryState, law: SpeedLaw) -> np.ndarray:
    """Material time derivative of the speed field from spatial data alone.

    d_t f = f'(K) K (box f + H f); the contracted Hessian is taken by
    finite differences of the f(K) field, matching the monitored quantity.
    """
    f_field = law.f(state.K)
    bx = box_op(state, f_field)
    return law.f1(state.K) * state.K * (bx + state.H * f_field)


def require_expanding_power(law: SpeedLaw, n: int) -> float:
    """Validate the -K^(-b) form with 0 < b < 1/n; return b."""
    if not (law.is_power and law.a == -1.0 and -1.0 / n < law.beta < 0.0):
        raise WrongLawForm(
            f"need a = -1 and -1/n < beta < 0 for the curvature-power bound; "
            f"got kind={law.kind}, a={law.a}, beta={law.beta}, n={n}"
        )
    return -law.beta


def harnack_lhs(state: GeometryState, law: SpeedLaw, t: float) -> np.ndarray:
    """Differential-Harnack expression for u = K^(-b) at time t since start.

    d_t u + |grad u|^2_h - (n b / ((1 - n b) t)) u, non-positive along
    flows of compact convex initial data started at t = 0.
    """
    b = require_expanding_power(law, state.n)
    if t <= 0.0:
        raise NonPositiveTime(f"need t > 0, got {t}")
    u = -law.f(state.K)
    dt_u = -dt_f_spatial(state, law)
    gsq = grad_norm_sq_h(state, u)
    nb = state.n * b
    return dt_u + gsq - (nb / ((1.0 - nb) * t)) * u


def P_tensor(state: GeometryState, law: SpeedLaw) -> np.ndarray:
    """Components of the Harnack tensor in normal-angle coordinates.

    n=1: the single theta-theta component, shape (N,).
    n=2 axisymmetric: diagonal (phi-phi, psi-psi) components, shape (M, 2).
    """
    sf = speed_fields(state, law)
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


def P_trace(state: GeometryState, law: SpeedLaw) -> np.ndarray:
    """Trace of the Harnack tensor, computed from its scalar formula.

    box f + f H - |grad f|^2_h / (f' K); independent of P_tensor, so the
    agreement of the two is a real consistency check on the curvature
    divergence identity used to rewrite the trace.
    """
    sf = speed_fields(state, law)
    return sf.box + sf.f * state.H - sf.gradsq_h / sf.f1K


def P_tensor_trace(state: GeometryState, law: SpeedLaw) -> np.ndarray:
    """Contraction of P_tensor with the inverse second fundamental form."""
    P = P_tensor(state, law)
    if state.n == 1:
        return P / state.r1
    return P[:, 0] / state.r1 + P[:, 1] / (state.r2 * state.sinphi**2)


def P_norm_sq_h(state: GeometryState, law: SpeedLaw) -> np.ndarray:
    """|P|^2 in the h norm; for n=1 this equals the squared trace."""
    P = P_tensor(state, law)
    if state.n == 1:
        return (P / state.r1) ** 2
    return (P[:, 0] / state.r1) ** 2 + (P[:, 1] / (state.r2 * state.sinphi**2)) ** 2


def harnack_bound(law: SpeedLaw, n: int, t: float) -> float:
    """Lower bound -1/((1/n + beta) t) for the trace of the Harnack tensor.

    Valid for power laws with a > 0, beta > 0 or a < 0, -1/n < beta < 0;
    returns NaN outside those hypotheses.
    """
    if t <= 0.0:
        raise NonPositiveTime(f"need t > 0, got {t}")
    if not theorem_hypotheses(law, n):
        return float("nan")
    return -1.0 / ((1.0 / n + law.beta) * t)


def theorem_hypotheses(law: SpeedLaw, n: int) -> bool:
    """Whether the trace lower bound applies to this law and dimension."""
    if not law.is_power:
        return False
    if law.a > 0.0 and law.beta > 0.0:
        return True
    return law.a < 0.0 and -1.0 / n < law.beta < 0.0


@dataclass(frozen=True)
class HarnackSample:
    """Per-node Harnack diagnostics at one stored time."""

    t: float
    u: np.ndarray
    dt_u_spatial: np.ndarray
    dt_u_fd: np.ndarray
    grad_sq_h: np.ndarray
    lhs_12: np.ndarray        # differential Harnack expression (NaN if law not -K^-b)
    lhs_317: np.ndarray       # equivalent speed-form expression, expected >= 0
    p_trace: np.ndarray
    bound: float              # NaN outside the bound's hypotheses
    margin: np.ndarray

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margin))

    @property
    def max_abs_p(self) -> float:
        return float(np.max(np.abs(self.p_trace)))


def _central_dt(qm, q0, qp, dm: float, dp: float) -> np.ndarray:
    # Quadratic-interpolation derivative; exact central difference when dm == dp.
    return (dm**2 * qp - dp**2 * qm + (dp**2 - dm**2) * q0) / (dm * dp * (dm + dp))


def monitor(trace: FlowTrace, law: SpeedLaw, t0: float = 0.0) -> list:
    """Harnack diagnostics at every interior stored time of a trace.

    t0 anchors the bound: the time entering the Harnack expressions is the
    stored time minus t0, so traces whose initial data logically sits at a
    later moment of a longer flow can be tested with shifted time.  Stored
    times at or before t0 are skipped.
    """
    if len(trace) < 3:
        raise InsufficientTrace(
            f"monitor needs at least 3 stored states, got {len(trace)}"
        )
    states = [derive_state(g) for g in trace.grids]
    u_fields = [-law.f(s.K) for s in states]
    samples = []
    paper_form = law.is_power and law.a == -1.0 and -1.0 / trace.n < law.beta < 0.0
    in_hyp = theorem_hypotheses(law, trace.n)
    for m in range(1, len(trace) - 1):
        t = trace.times[m] - t0
        if t <= 0.0:
            continue
        st = states[m]
        sf = speed_fields(st, law)
        u = u_fields[m]
        dt_u_spatial = -dt_f_spatial(st, law)
        dm = trace.times[m] - trace.times[m - 1]
        dp = trace.times[m + 1] - trace.times[m]
        v = sf.fp / st.r1  # turning rate of the normal at a material point
        du = st.d1(u)
        dt_u_fd = _central_dt(u_fields[m - 1], u, u_fields[m + 1], dm, dp) + v * du
        gsq_h = grad_norm_sq_h(st, u)
        p_tr = P_trace(st, law)
        if paper_form:
            b = -law.beta
            nb = st.n * b
            lhs12 = dt_u_spatial + gsq_h - (nb / ((1.0 - nb) * t)) * u
            lhs317 = -dt_u_spatial - gsq_h + sf.f1K / ((1.0 / st.n + law.beta) * t)
        else:
            lhs12 = np.full_like(u, np.nan)
            lhs317 = np.full_like(u, np.nan)
        bound = harnack_bound(law, st.n, t) if in_hyp else float("nan")
        margin = p_tr - bound
        samples.append(
            HarnackSample(
                t=t,
                u=u,
                dt_u_spatial=dt_u_spatial,
                dt_u_fd=dt_u_fd,
                grad_sq_h=gsq_h,
                lhs_12=lhs12,
                lhs_317=lhs317,
                p_trace=p_tr,
                bound=bound,
                margin=margin,
            )
        )
    if not samples:
        raise InsufficientTrace("no stored times after the bound's time origin")
    return samples
