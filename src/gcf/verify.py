"""Exact oracles and residual suites for the flow and its Harnack quantities.

Everything here checks the continuum statements, not the integrator: time
derivatives are central differences across stored trace states (material
derivatives, including the tangential advection correction), and spatial
assemblies for the geometric identities use an independent set of
2nd-order stencils so they cannot inherit an error from the 4th-order
production stencils.

Suites come in two flavors.  Residual checks at a single state or trace
return IdentityReport rows with the measured residual per resolution and,
when at least three resolutions are present, an estimated convergence
order.  Closed-form checks (round solutions, power-law identities) carry
absolute tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import stencils
from .errors import BadExponent, InsufficientTrace, NonConvex, OriginOutside
from .flow import FlowConfig, FlowTrace, InitialShape, run, run_ensemble, stable_dt
from .geometry import (
    GeometryState,
    SupportGrid,
    box_op,
    derive_state,
    fourier_grid,
    laplace_beltrami,
)
from .harnack import (
    P_norm_sq_h,
    P_trace,
    dt_f_spatial,
    speed_fields,
)
from .speedlaw import (
    SpeedLaw,
    alpha_fn,
    beta_fn,
    check_power_law_identities,
)


# ---------------------------------------------------------------------------
# closed-form round solution


def sphere_radius_exact(R0: float, t: float, n: int, b: float) -> float:
    """Radius of the round solution: (R0**(1-n*b) + (1-n*b)*t)**(1/(1-n*b)).

    The round shape moves with speed K**(-b) = R**(n*b), a separable ODE.
    R0 = 0 gives the self-similar expanding solution.
    """
    nb = n * b
    if nb >= 1.0:
        raise BadExponent(f"need n*b < 1, got n={n}, b={b}")
    if R0 < 0.0 or t < 0.0:
        raise ValueError("need R0 >= 0 and t >= 0")
    p = 1.0 - nb
    return (R0**p + p * t) ** (1.0 / p)


def self_similar_start_time(R0: float, n: int, b: float) -> float:
    """Time at which the self-similar round solution reaches radius R0."""
    nb = n * b
    if nb >= 1.0:
        raise BadExponent(f"need n*b < 1, got n={n}, b={b}")
    return R0 ** (1.0 - nb) / (1.0 - nb)


# ---------------------------------------------------------------------------
# report bookkeeping


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of one identity across a resolution ladder.

    resolutions go coarse to fine (time spacings, grid spacings, or a
    single entry for one-shot checks).  order is reported only when at
    least three resolutions were tested.  When relative is set the finest
    residual is compared against tolerance * scale.
    """

    identity: str
    resolutions: tuple
    residuals: tuple
    tolerance: float
    order: float | None = None
    order_window: tuple | None = None
    relative: bool = False
    scale: float = 1.0
    note: str = ""

    @property
    def finest_residual(self) -> float:
        return self.residuals[-1]

    @property
    def passed(self) -> bool:
        bound = self.tolerance * (self.scale if self.relative else 1.0)
        ok = self.finest_residual <= bound
        if self.order_window is not None and self.order is not None:
            lo, hi = self.order_window
            ok = ok and (lo <= self.order <= hi)
        return ok


def estimate_order(resolutions, residuals) -> float | None:
    """Mean slope of log(residual) against log(resolution), pairwise."""
    if len(resolutions) < 3:
        return None
    slopes = []
    for i in range(len(resolutions) - 1):
        h0, h1 = resolutions[i], resolutions[i + 1]
        r0, r1 = residuals[i], residuals[i + 1]
        if r0 <= 0.0 or r1 <= 0.0:
            continue
        slopes.append(math.log(r0 / r1) / math.log(h0 / h1))
    return float(np.mean(slopes)) if slopes else None


# ---------------------------------------------------------------------------
# traces with uniformly spaced stored states


HEADROOM = 0.5


def uniform_trace(
    n: int,
    size: int,
    law: SpeedLaw,
    shape: InitialShape,
    spacing: float,
    n_stored: int,
    burn_in: float = 0.0,
) -> FlowTrace:
    """Run the flow so stored states sit exactly spacing apart.

    An optional burn-in phase integrates past the fast startup transients
    of the high harmonics before storing begins; residual checks centered
    on the stored window then see only the slow dynamics.  Both phases are
    flow.run calls: the burn-in steps adaptively, the window with a fixed
    step that divides the spacing and is at most HEADROOM times the
    explicit step bound of the window's first state.  A phase that ends
    early raises (NonConvex, OriginOutside, or InsufficientTrace on a step
    underflow) instead of returning a partial trace.
    """
    if burn_in > 0.0:
        burn = FlowConfig(n=n, size=size, law=law, shape=shape, t_end=burn_in, stride=10**9)
        grid = _completed(run(burn)).grids[-1]
    else:
        grid = shape.build(n, size)
    m = max(1, math.ceil(spacing / (HEADROOM * stable_dt(grid, law))))
    window = FlowConfig(
        n=n, size=size, law=law, shape=grid,
        t0=burn_in, t_end=burn_in + (n_stored - 1) * spacing,
        fixed_dt=spacing / m, stride=m,
    )
    return _completed(run(window))


def _completed(trace: FlowTrace) -> FlowTrace:
    """The trace of a run that reached its end; raise if it ended early."""
    if trace.reason == "completed":
        return trace
    error = {"nonconvex": NonConvex, "origin_outside": OriginOutside}.get(
        trace.reason, InsufficientTrace
    )
    raise error(f"flow ended early at t = {trace.times[-1]!r}: {trace.reason}")


def _central_diff(qm, qp, dt):
    return (qp - qm) / (2.0 * dt)


class _Ladder(NamedTuple):
    """Where a residual ladder sits on a trace of uniformly spaced states:
    the middle stored index, the offsets (4, 2, 1) around it as far as the
    trace allows, the stored spacing, and the derived states at mid and at
    mid -+ each offset, keyed by stored index."""

    states: dict
    mid: int
    ks: list
    base: float


def _ladder_states(trace: FlowTrace) -> _Ladder:
    """The ladder of a trace; raises InsufficientTrace if it has none."""
    if len(trace) < 3:
        raise InsufficientTrace("need at least 3 stored states")
    base = trace.stored_spacing
    if base is None:
        raise InsufficientTrace("stored states are not uniformly spaced")
    mid = len(trace) // 2
    ks = [k for k in (4, 2, 1) if k <= min(mid, len(trace) - 1 - mid)]
    needed = sorted({mid} | {mid + s * k for k in ks for s in (-1, 1)})
    return _Ladder({j: derive_state(trace.grids[j]) for j in needed}, mid, ks, base)


def _ladder_report(
    identity: str, parts, ladder: _Ladder, tolerance: float, order_window, relative=False
) -> IdentityReport:
    """Central-time-difference residuals of one evolution equation.

    parts holds one (extract, corr, rhs) per component: extract maps a
    state to the field, corr is the advection term and rhs the right-hand
    side at the middle state.  At each spacing of the ladder the residual
    is the largest over all components and nodes; a NaN residual stays NaN
    and so fails.  scale is the largest left-hand side seen.
    """
    states, mid, ks, base = ladder
    spacings, residuals, scales = [], [], []
    for k in ks:
        dt = k * base
        res = []
        for extract, corr, rhs in parts:
            lhs = _central_diff(extract(states[mid - k]), extract(states[mid + k]), dt) + corr
            res.append(np.max(np.abs(lhs - rhs)))
            scales.append(np.max(np.abs(lhs)))
        spacings.append(dt)
        residuals.append(float(np.max(res)))
    return IdentityReport(
        identity=identity,
        resolutions=tuple(spacings),
        residuals=tuple(residuals),
        tolerance=tolerance,
        order=estimate_order(spacings, residuals),
        order_window=order_window,
        relative=relative,
        scale=float(np.max(scales)),
    )


def _evolution_parts(st: GeometryState, sf, law: SpeedLaw, which: str):
    """The (extract, corr, rhs) parts of the evolution equation of one
    quantity at the middle state st with speed fields sf."""
    n = st.n
    V = sf.fp / st.r1
    Vp = sf.fpp / st.r1 - sf.fp * st.r1p / st.r1**2
    if which == "g":
        if n == 1:
            extract = [lambda s: s.r1**2]
            corr = [V * 2.0 * st.r1 * st.r1p + 2.0 * st.r1**2 * Vp]
            rhs = [-2.0 * sf.f * st.r1]
        else:
            rho = st.r2 * st.sinphi
            extract = [lambda s: s.r1**2, lambda s: (s.r2 * s.sinphi) ** 2]
            corr = [
                V * 2.0 * st.r1 * st.r1p + 2.0 * st.r1**2 * Vp,
                V * 2.0 * rho * (st.r1 * st.cosphi),
            ]
            rhs = [-2.0 * sf.f * st.r1, -2.0 * sf.f * st.r2 * st.sinphi**2]
    elif which == "h":
        if n == 1:
            extract = [lambda s: s.r1]
            corr = [V * st.r1p + 2.0 * st.r1 * Vp]
            rhs = [sf.hess - sf.f]
        else:
            sin2 = st.sinphi**2
            extract = [lambda s: s.r1, lambda s: s.r2 * s.sinphi**2]
            corr = [
                V * st.r1p + 2.0 * st.r1 * Vp,
                V * (st.r2p * sin2 + 2.0 * st.r2 * st.sinphi * st.cosphi),
            ]
            hess_psi = (st.r2 * st.sinphi * st.cosphi / st.r1) * sf.fp
            rhs = [sf.hess - sf.f, hess_psi - sf.f * sin2]
    elif which == "f":
        extract = [lambda s: law.f(s.K)]
        corr = [V * sf.fp]
        rhs = [dt_f_spatial(st, law)]
    elif which == "H":
        extract = [lambda s: s.H]
        corr = [V * st.Hp]
        f_field = law.f(st.K)
        ksq = 1.0 / st.r1**2 if n == 1 else 1.0 / st.r1**2 + 1.0 / st.r2**2
        rhs = [laplace_beltrami(st, f_field) + f_field * ksq]
    else:
        raise ValueError(f"unknown evolution quantity {which!r}; use g, h, f, H")
    return list(zip(extract, corr, rhs))


def check_evolution(
    trace: FlowTrace,
    law: SpeedLaw,
    which=("g", "h", "f", "H"),
    tolerance: float = 1e-5,
    order_window=(1.7, 2.3),
) -> list:
    """Central-time-difference residuals of the evolution equations.

    Needs uniformly spaced stored states.  Residuals are evaluated at the
    middle stored state for spacings (1, 2, 4) * base (as far as the trace
    allows), all centered at the same state so the measured order is clean.
    """
    ladder = _ladder_states(trace)
    st = ladder.states[ladder.mid]
    sf = speed_fields(st, law)
    return [
        _ladder_report(
            f"evolve-{q}", _evolution_parts(st, sf, law, q), ladder, tolerance, order_window
        )
        for q in which
    ]


def check_P_evolution(
    trace: FlowTrace,
    law: SpeedLaw,
    tolerance: float = 1e-4,
    order_window=(1.7, 2.3),
) -> IdentityReport:
    """Residual of the evolution equation of the Harnack-tensor trace (n=1).

    d_t trP = f'K box trP + 2(1 + f''K/f') <grad f, grad trP>_h + |P|^2_h
              + (1 + f''K/f') trP^2 + (H beta - beta'/(f f') |grad f|^2_h) trP,
    with beta, beta' the structural functions of the law (identically zero
    for power laws, where the last group drops).  The residual is relative
    to the largest left-hand side.
    """
    if trace.n != 1:
        raise ValueError("the trace-evolution residual is implemented for n=1")
    ladder = _ladder_states(trace)
    st = ladder.states[ladder.mid]
    sf = speed_fields(st, law)
    V = sf.fp / st.r1
    p_mid = P_trace(st, law)
    dP = st.d1(p_mid)
    c = 1.0 + sf.f2 * st.K / sf.f1
    box_p = box_op(st, p_mid)
    grad_f_p = sf.fp * dP / st.r1
    beta_vals = beta_fn(law, st.K)
    beta_prime_vals = sf.f * alpha_fn(law, st.K) / st.K
    group = (st.H * beta_vals - beta_prime_vals / (sf.f * sf.f1) * sf.gradsq_h) * p_mid
    rhs = sf.f1K * box_p + 2.0 * c * grad_f_p + P_norm_sq_h(st, law) + c * p_mid**2 + group
    part = (lambda s: P_trace(s, law), V * dP, rhs)
    return _ladder_report("evolve-P", [part], ladder, tolerance, order_window, relative=True)


# ---------------------------------------------------------------------------
# pointwise geometric identities, assembled with independent 2nd-order stencils


def check_identities(grid: SupportGrid) -> list:
    """Residuals of the embedding Hessian, the derivative of the normal,
    and the divergence-free curvature tensor at a single grid.

    Each identity's sides are assembled from the embedded positions and
    the geometry state with 2nd-order stencils.  For n=1 the divergence
    identity collapses to the definitional curvature relation and is
    reported with a degenerate note.
    """
    state = derive_state(grid)
    n, dx = grid.n, grid.spacing
    reports = []

    if n == 1:
        d1 = lambda u: stencils.d1_periodic_o2(u, dx)
        d2 = lambda u: stencils.d2_periodic_o2(u, dx)
        F = state.positions
        Ft = np.stack([d1(F[:, 0]), d1(F[:, 1])], axis=1)
        g_emb = Ft[:, 0] ** 2 + Ft[:, 1] ** 2
        gamma = d1(g_emb) / (2.0 * g_emb)
        res = 0.0
        for c in range(2):
            lhs = d2(F[:, c]) - gamma * d1(F[:, c])
            rhs = -state.r1 * state.normals[:, c]
            res = max(res, float(np.max(np.abs(lhs - rhs))))
        reports.append(
            IdentityReport("hessian-embedding", (dx,), (res,), tolerance=1e-2)
        )

        res = 0.0
        for c in range(2):
            lhs = d1(state.normals[:, c])
            rhs = Ft[:, c] / state.r1
            res = max(res, float(np.max(np.abs(lhs - rhs))))
        reports.append(IdentityReport("weingarten", (dx,), (res,), tolerance=1e-2))

        # n=1 divergence of K h^-1 reduces to the definitional K = 1/r.
        resid = d1(state.K) + d1(state.r1) * state.K / state.r1
        reports.append(
            IdentityReport(
                "curvature-divergence",
                (dx,),
                (float(np.max(np.abs(resid))),),
                tolerance=1e-2,
                note="degenerate for n=1",
            )
        )
        return reports

    d1e = lambda u: stencils.d1_reflect_o2(u, dx, "even")
    d1o = lambda u: stencils.d1_reflect_o2(u, dx, "odd")
    d2e = lambda u: stencils.d2_reflect_o2(u, dx, "even")
    d2o = lambda u: stencils.d2_reflect_o2(u, dx, "odd")
    rho, z = state.positions[:, 0], state.positions[:, 1]
    Fp = np.stack([d1o(rho), d1e(z)], axis=1)
    g_emb = Fp[:, 0] ** 2 + Fp[:, 1] ** 2
    gamma = d1e(g_emb) / (2.0 * g_emb)

    res = 0.0
    dd = [d2o(rho), d2e(z)]
    for c in range(2):
        lhs = dd[c] - gamma * Fp[:, c]
        rhs = -state.r1 * state.normals[:, c]
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    # Azimuthal second fundamental form from the parallel circles.
    gamma_psi = -rho * d1o(rho) / g_emb
    lhs_rho = -rho - gamma_psi * Fp[:, 0]
    lhs_z = -gamma_psi * Fp[:, 1]
    rhs_psi = -state.r2 * state.sinphi**2
    res = max(res, float(np.max(np.abs(lhs_rho - rhs_psi * state.normals[:, 0]))))
    res = max(res, float(np.max(np.abs(lhs_z - rhs_psi * state.normals[:, 1]))))
    reports.append(IdentityReport("hessian-embedding", (dx,), (res,), tolerance=1e-2))

    res = 0.0
    dnu = [d1o(state.normals[:, 0]), d1e(state.normals[:, 1])]
    for c in range(2):
        res = max(res, float(np.max(np.abs(dnu[c] - Fp[:, c] / state.r1))))
    reports.append(IdentityReport("weingarten", (dx,), (res,), tolerance=1e-2))

    # Divergence of K h^-1 in conservation form, weighted by sqrt(det g)
    # so the residual stays uniformly second order up to the poles.
    sqrtg = state.r1 * state.r2 * state.sinphi
    t_phph = state.K / state.r1
    t_psps = state.K / (state.r2 * state.sinphi**2)
    gam_phph = d1e(state.r1) / state.r1
    gam_phps = -rho * d1o(rho) / state.r1**2
    resid = d1o(sqrtg * t_phph) + sqrtg * (gam_phph * t_phph + gam_phps * t_psps)
    reports.append(
        IdentityReport(
            "curvature-divergence",
            (dx,),
            (float(np.max(np.abs(resid))),),
            tolerance=1e-2,
        )
    )
    return reports


def identity_convergence(make_grid, sizes, order_window=(1.7, None)) -> list:
    """Run check_identities over a grid-size ladder and merge the rows.

    make_grid maps a size to a SupportGrid; sizes go coarse to fine.
    """
    per_size = [check_identities(make_grid(s)) for s in sizes]
    merged = []
    for idx, rep in enumerate(per_size[0]):
        spacings = tuple(r[idx].resolutions[0] for r in per_size)
        residuals = tuple(r[idx].residuals[0] for r in per_size)
        window = None if rep.note else (
            (order_window[0], order_window[1] if order_window[1] is not None else 99.0)
        )
        merged.append(
            IdentityReport(
                identity=rep.identity,
                resolutions=spacings,
                residuals=residuals,
                tolerance=rep.tolerance,
                order=estimate_order(spacings, residuals),
                order_window=window,
                note=rep.note,
            )
        )
    return merged


# ---------------------------------------------------------------------------
# algebraic expansions of the Harnack tensor


def check_P_expansion(state: GeometryState, law: SpeedLaw, tolerance: float = 1e-10) -> list:
    """Squared-trace expansion and, for n=1, the tensor-norm expansion.

    These are pure algebra at one state, so the residuals sit at rounding
    level when the identities are implemented correctly.
    """
    sf = speed_fields(state, law)
    p_tr = P_trace(state, law)
    w = sf.gradsq_h / sf.f1K
    fH = sf.f * state.H
    expansion = (
        sf.box**2
        + w**2
        + fH**2
        - 2.0 * sf.box * w
        + 2.0 * fH * sf.box
        - 2.0 * fH * w
    )
    reports = [
        IdentityReport(
            "p-square-expansion",
            (float(state.dx),),
            (float(np.max(np.abs(expansion - p_tr**2))),),
            tolerance=tolerance,
        )
    ]
    if state.n != 1:
        return reports

    r = state.r1
    hess = sf.hess
    grad_h_cov = -state.r1p
    t1 = hess**2 / r**2
    t2 = sf.fp**2 * grad_h_cov**2 / r**4
    t3 = sf.f**2 / r**2
    t4 = -2.0 * grad_h_cov * sf.fp * hess / r**3
    t5 = 2.0 * sf.f * hess / r**2
    t6 = -2.0 * sf.f * state.Hp * sf.fp / r
    norm_terms = t1 + t2 + t3 + t4 + t5 + t6
    p_norm = P_norm_sq_h(state, law)
    reports.append(
        IdentityReport(
            "p-tensor-norm-terms",
            (float(state.dx),),
            (float(np.max(np.abs(norm_terms - p_norm))),),
            tolerance=tolerance,
        )
    )
    reports.append(
        IdentityReport(
            "p-norm-trace-square",
            (float(state.dx),),
            (float(np.max(np.abs(p_norm - p_tr**2))),),
            tolerance=tolerance,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# embedding-based Hessian oracle


def hessian_oracle(grid: SupportGrid, u: np.ndarray) -> np.ndarray:
    """Covariant Hessian components from the embedded hypersurface alone.

    Fits the nonuniform 3-point second derivative along chord lengths of
    the reconstructed meridian (arc length to second order), so it shares
    no stencil with the production path.  Returns principal-frame
    components: shape (N,) for n=1, (M, 2) for n=2, where the azimuthal
    component comes from the turning of the parallel circles.
    """
    state = derive_state(grid)
    F = state.positions
    if grid.n == 1:
        Fm = np.roll(F, 1, axis=0)
        Fp = np.roll(F, -1, axis=0)
        um = np.roll(u, 1)
        up = np.roll(u, -1)
    else:
        # Continue through the poles along the meridian great arc: the
        # mirror image across the axis carries the same field value.
        first = np.array([[-F[0, 0], F[0, 1]]])
        last = np.array([[-F[-1, 0], F[-1, 1]]])
        Fm = np.vstack([first, F[:-1]])
        Fp = np.vstack([F[1:], last])
        um = np.concatenate([[u[0]], u[:-1]])
        up = np.concatenate([u[1:], [u[-1]]])
    lm = np.sqrt(np.sum((F - Fm) ** 2, axis=1))
    lp = np.sqrt(np.sum((Fp - F) ** 2, axis=1))
    denom = lm * lp * (lm + lp)
    u_ss = 2.0 * (lm * up + lp * um - (lm + lp) * u) / denom
    if grid.n == 1:
        return u_ss
    u_s = (lm**2 * up - lp**2 * um + (lp**2 - lm**2) * u) / denom
    t_rho = (lm**2 * Fp[:, 0] - lp**2 * Fm[:, 0] + (lp**2 - lm**2) * F[:, 0]) / denom
    rho = F[:, 0]
    azi = u_s * t_rho / rho
    return np.stack([u_ss, azi], axis=1)


# ---------------------------------------------------------------------------
# random convex states


def random_convex_grid(
    n: int,
    size: int,
    rng: np.random.Generator,
    base_radius: float = 1.0,
    max_mode: int = 6,
) -> SupportGrid:
    """Fourier-perturbed convex grid with rejection-free amplitude shrinking."""
    lo = 2 if n == 1 else 1
    ks = list(range(lo, max_mode + 1))
    amps = rng.uniform(-1.0, 1.0, size=len(ks))
    amps = amps / np.sum(np.abs(amps) * np.array([max(k * k - 1, 1) for k in ks]))
    amps = amps * 0.6
    for _ in range(40):
        try:
            g = fourier_grid(n, base_radius, list(zip(ks, amps)), size)
            derive_state(g)
            return g
        except Exception:
            amps = amps * 0.5
    raise RuntimeError("could not draw a convex grid")


# ---------------------------------------------------------------------------
# named suites (consumed by the command-line front end and acceptance tests)


def speedlaw_suite() -> list:
    """Vanishing of the structural functions for power laws, and the cross
    identities for the exponential control law."""
    points = (0.5, 1.0, 2.0, 4.0)
    reports = []
    worst = 0.0
    for a, beta in ((-1.0, -0.5), (-1.0, -0.2), (1.0, 2.0), (2.0, 0.5), (1.0, 1.0)):
        rep = check_power_law_identities(SpeedLaw.power(a, beta), points)
        worst = max(worst, rep.max_alpha, rep.max_beta, rep.max_gamma)
    reports.append(
        IdentityReport("power-structural-vanishing", (0.0,), (worst,), tolerance=1e-12)
    )
    rep = check_power_law_identities(SpeedLaw.exponential(), points)
    reports.append(
        IdentityReport(
            "exp-gamma-identity", (0.0,), (rep.max_gamma_residual,), tolerance=1e-8
        )
    )
    reports.append(
        IdentityReport(
            "exp-beta-prime-identity",
            (0.0,),
            (rep.max_beta_prime_residual,),
            tolerance=1e-8,
        )
    )
    return reports


ORACLE_CASES = (
    (1, 0.2, 256),
    (1, 0.5, 256),
    (1, 0.8, 256),
    (2, 0.2, 128),
    (2, 0.4, 128),
)


def oracle_suite() -> list:
    """Round flows against the closed-form radius at t = 2, relative error."""
    t_end = 2.0
    configs = [
        FlowConfig(
            n=n, size=size, law=SpeedLaw.power(-1.0, -b),
            shape=InitialShape("round", R0=1.0),
            t_end=t_end, stride=10**9,
        )
        for n, b, size in ORACLE_CASES
    ]
    reports = []
    for (n, b, size), trace in zip(ORACLE_CASES, run_ensemble(configs)):
        r_exact = sphere_radius_exact(1.0, t_end, n, b)
        h_final = trace.grids[-1].values
        rel = float(np.max(np.abs(h_final - r_exact)) / r_exact)
        reports.append(
            IdentityReport(
                f"round-oracle-n{n}-b{b:g}",
                (float(size),),
                (rel,),
                tolerance=1e-6,
                relative=False,
                note=f"t_end={t_end:g}",
            )
        )
    return reports


def _perturbed_circle_shape(amp: float = 0.02, mode: int = 3) -> InitialShape:
    return InitialShape("fourier", R0=1.0, modes=((mode, amp), (2, amp / 2.0)))


def evolution_suite() -> list:
    """Evolution-equation residual ladder on a perturbed circle (N = 512,
    stored spacing 1e-3 after a burn-in to t = 0.1).

    The ladder sits past a short burn-in: the identities hold at any time,
    but fast harmonic startup transients would dominate the central-time-
    difference constant, and at fine grids the sixth-derivative roundoff
    floor would pollute the measured order.
    """
    law = SpeedLaw.power(-1.0, -0.5)
    trace = uniform_trace(
        1, 512, law, _perturbed_circle_shape(), spacing=1e-3, n_stored=9, burn_in=0.1
    )
    return check_evolution(trace, law)


def identity_suite() -> list:
    """Grid-refinement ladders for the pointwise geometric identities."""
    shape = _perturbed_circle_shape(amp=0.05)
    reports = identity_convergence(
        lambda s: shape.build(1, s), sizes=(64, 128, 256)
    )
    ellipsoid = lambda s: _ellipsoid_grid(1.0, 1.3, s)
    reports += [
        rep
        for rep in identity_convergence(ellipsoid, sizes=(32, 64, 128))
        if rep.identity == "curvature-divergence"
    ]
    return reports


def _ellipsoid_grid(a: float, c: float, size: int) -> SupportGrid:
    phi = (np.arange(size) + 0.5) * np.pi / size
    h = np.sqrt(a**2 * np.sin(phi) ** 2 + c**2 * np.cos(phi) ** 2)
    return SupportGrid(2, h)


def pexpand_suite() -> list:
    """Algebraic expansions on a deterministic family of 10 random convex states."""
    rng = np.random.default_rng(20240)
    worst = {}
    for i in range(10):
        n = 1 if i % 5 < 3 else 2
        size = 256 if n == 1 else 128
        grid = random_convex_grid(n, size, rng)
        law = SpeedLaw.power(-1.0, -0.5 if n == 1 else -0.25)
        for rep in check_P_expansion(derive_state(grid), law):
            worst[rep.identity] = max(worst.get(rep.identity, 0.0), rep.finest_residual)
    return [
        IdentityReport(name, (0.0,), (res,), tolerance=1e-10)
        for name, res in sorted(worst.items())
    ]


def pevol_suite() -> list:
    """Trace-evolution residual ladders: power law, plus the exponential
    control law whose structural-function group is active.

    The right-hand side stacks six angular derivatives of the support
    function, so the roundoff floor scales like eps/dx**6; a coarse grid
    (N = 128) and a gentle single-mode shape keep that floor far below the
    measured time-truncation residual.
    """
    law = SpeedLaw.power(-1.0, -0.5)
    shape = InitialShape("fourier", R0=1.0, modes=((2, 0.01),))
    trace = uniform_trace(1, 128, law, shape, spacing=8e-3, n_stored=9, burn_in=0.25)
    exp_law = SpeedLaw.exponential()
    exp_trace = uniform_trace(1, 128, exp_law, shape, spacing=1e-3, n_stored=9, burn_in=0.02)
    return [
        check_P_evolution(trace, law),
        replace(check_P_evolution(exp_trace, exp_law), identity="evolve-P-exp"),
    ]


SUITES = {
    "speedlaw": speedlaw_suite,
    "oracle": oracle_suite,
    "evolution": evolution_suite,
    "identity": identity_suite,
    "pexpand": pexpand_suite,
    "pevol": pevol_suite,
}
