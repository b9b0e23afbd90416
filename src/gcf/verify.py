"""Exact oracles and residual suites for the flow and its Harnack quantities.

Everything here checks the continuum statements, not the integrator: time
derivatives are central differences across stored trace states (material
derivatives, including the tangential advection correction), and spatial
assemblies for the geometric identities use an independent set of
2nd-order stencils so they cannot inherit an error from the 4th-order
production stencils.

Suites come in two flavors.  Residual checks take their whole ladder (a
trace of stored states, a coarse-to-fine sequence of grids, or a family
of (state, law) cases) and build each IdentityReport once, with the
measured residual per resolution; a report's convergence order is
estimated from that ladder itself (given at least three resolutions), so
a ladder supplies only its resolutions and residuals.  Every evolution
check on a trace is one call of _ladder, the one time-ladder path: it
derives the ladder's window of stored states as one stacked state and
evaluates its speed fields once, as harnack.monitor does; the check's
table of parts per identity (_evolution_parts for g, h, f and H, _P_parts
for the Harnack-tensor trace) holds each component's field, advection
term and right-hand side as arrays over that stack, and _ladder forms
every spacing's central difference at the middle row and builds the
reports.  A time ladder's trace is one flow.run (uniform_trace) whose
config's times are the stored times, so flow alone places its states.
Closed-form checks (round solutions, power-law identities) carry
absolute tolerances.  The pointwise geometric identities are assembled
once for both n: n picks the stencils' topology and the parities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import stencils
from .errors import BadExponent, InsufficientTrace, NonConvex, OriginOutside
from .flow import REASONS, FlowConfig, FlowTrace, InitialShape, run
from .geometry import (
    SupportGrid,
    box_op,
    derive_state,
    embedding,
    fourier_grid,
    laplace_beltrami,
    round_grid,
)
from .harnack import P_norm_sq_h, P_trace, SpeedFields, dt_f_spatial, speed_fields
from .speedlaw import (
    SpeedLaw,
    alpha_fn,
    beta_fn,
    beta_fn_prime_fd,
    gamma_fn,
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
    single entry for one-shot checks).  order is estimated from the ladder
    itself, and only when it has at least three resolutions; order_window,
    when set, bounds it.  The finest residual is compared against
    tolerance * scale: scale is 1.0 for an absolute tolerance, and the
    largest left-hand side seen for a relative one.
    """

    identity: str
    resolutions: tuple
    residuals: tuple
    tolerance: float
    order_window: tuple | None = None
    scale: float = 1.0

    @property
    def order(self) -> float | None:
        return estimate_order(self.resolutions, self.residuals)

    @property
    def finest_residual(self) -> float:
        return self.residuals[-1]

    @property
    def passed(self) -> bool:
        ok = self.finest_residual <= self.tolerance * self.scale
        order = self.order
        if self.order_window is not None and order is not None:
            lo, hi = self.order_window
            ok = ok and (lo <= order <= hi)
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


def uniform_trace(
    grid: SupportGrid,
    law: SpeedLaw,
    spacing: float,
    n_stored: int,
    burn_in: float = 0.0,
) -> FlowTrace:
    """Run the flow so stored states sit exactly spacing apart.

    An optional burn-in phase integrates past the fast startup transients
    of the high harmonics before storing begins; residual checks centered
    on the stored window then see only the slow dynamics.  The trace is
    one flow.run whose config's times are burn_in + i * spacing, and which
    lands on each of them exactly (see flow.run): with a burn-in it runs
    the initial grid from 0 and drops that grid from the trace, and with
    none that grid is the first stored state, at t0 = 0.  So each step is
    run()'s own, the smaller of stable_dt and the time left to the next
    stored time.  With no burn-in, n_stored = 1 leaves the run no time
    and raises InvalidConfig.  A run that ends early raises (NonConvex,
    OriginOutside, or InsufficientTrace on a step underflow) instead of
    returning a partial trace.
    """
    times = tuple(burn_in + i * spacing for i in range(n_stored))
    burn = burn_in > 0.0  # t0 is 0 with a burn-in, else burn_in, the first time
    trace = _completed(run(FlowConfig(grid, law, times[not burn:], min(burn_in, 0.0), 10**9)))
    del trace.times[:burn], trace.grids[:burn]  # with a burn-in, the initial grid
    return trace


def _completed(trace: FlowTrace) -> FlowTrace:
    """The trace of a run that reached its end; raise if it ended early,
    naming its last accepted time."""
    if trace.reason == "completed":
        return trace
    error = {reason: exc for exc, reason in REASONS.items()}.get(trace.reason, InsufficientTrace)
    raise error(f"flow ended early at t = {trace.times[-1]!r}: {trace.reason}")


def _ladder(trace: FlowTrace, families, tolerance: float, relative=False) -> list:
    """Central-time-difference residual ladders of evolution equations, one
    IdentityReport per identity, against tolerance and the order window
    [1.7, 2.3] of central differences.

    The ladder sits at the middle stored state of a trace of uniformly
    spaced states (raises InsufficientTrace otherwise, or with fewer than 3
    states), with spacings k * base for k in (4, 2, 1) as far as the trace
    allows, base the stored spacing.  The window of states within the
    largest k of the middle one is derived as one stacked state, and its
    speed fields sf are evaluated once.  families(sf) maps each identity
    to its parts, one (field, corr, rhs) per component, each an array over
    the stack: field is the differenced field, corr the advection term and
    rhs the right-hand side, both read at the middle row.  Every spacing is
    one row of the difference.  An identity's residual at a spacing is the
    largest over its components and nodes; a NaN residual stays NaN and so
    fails.  A relative report's scale is the largest left-hand side seen;
    any other's is 1.0.
    """
    if len(trace) < 3:
        raise InsufficientTrace("need at least 3 stored states")
    base = trace.stored_spacing
    if base is None:
        raise InsufficientTrace("stored states are not uniformly spaced")
    mid = len(trace) // 2
    ks = np.array([k for k in (4, 2, 1) if k <= min(mid, len(trace) - 1 - mid)])
    m, spacings = ks[0], ks * base  # m: the middle row of the window
    sf = speed_fields(derive_state(trace.grids[mid - m:mid + m + 1]), trace.law)
    reports = []
    for identity, parts in families(sf).items():
        residuals, scales = [], []
        for field, corr, rhs in parts:
            lhs = (field[m + ks] - field[m - ks]) / (2.0 * spacings[:, None]) + corr[m]
            residuals.append(np.max(np.abs(lhs - rhs[m]), axis=1))
            scales.append(np.max(np.abs(lhs)))
        reports.append(IdentityReport(
            identity, tuple(spacings.tolist()), tuple(np.max(residuals, axis=0).tolist()),
            tolerance, order_window=(1.7, 2.3),
            scale=float(np.max(scales)) if relative else 1.0,
        ))
    return reports


def _evolution_parts(sf: SpeedFields) -> dict:
    """The (field, corr, rhs) parts of the evolution equations of g, h, f
    and H, given the speed fields sf of a stacked state."""
    st = sf.state
    V = sf.v
    Vp = sf.fpp / st.r1 - sf.fp * st.r1p / st.r1**2
    ksq = 1.0 / st.r1**2 if st.n == 1 else 1.0 / st.r1**2 + 1.0 / st.r2**2
    parts = {
        "evolve-g": [(st.r1**2, V * 2.0 * st.r1 * st.r1p + 2.0 * st.r1**2 * Vp,
                      -2.0 * sf.f * st.r1)],
        "evolve-h": [(st.r1, V * st.r1p + 2.0 * st.r1 * Vp, sf.hess - sf.f)],
        "evolve-f": [(sf.f, V * sf.fp, dt_f_spatial(sf))],
        "evolve-H": [(st.H, V * st.Hp, laplace_beltrami(st, sf.f) + sf.f * ksq)],
    }
    if st.n == 2:
        rho, sin2 = st.r2 * st.sinphi, st.sinphi**2
        parts["evolve-g"].append((rho**2, V * 2.0 * rho * (st.r1 * st.cosphi),
                                  -2.0 * sf.f * st.r2 * sin2))
        hess_psi = (st.r2 * st.sinphi * st.cosphi / st.r1) * sf.fp
        parts["evolve-h"].append((st.r2 * sin2,
                                  V * (st.r2p * sin2 + 2.0 * st.r2 * st.sinphi * st.cosphi),
                                  hess_psi - sf.f * sin2))
    return parts


def check_evolution(trace: FlowTrace) -> list:
    """Central-time-difference residuals of the evolution equations of g,
    h, f and H, under the trace's own law, each against the absolute
    tolerance 1e-5 and the order window [1.7, 2.3] of central differences.

    Needs uniformly spaced stored states.  Residuals are evaluated at the
    middle stored state for spacings (1, 2, 4) * base (as far as the trace
    allows), all centered at the same state so the measured order is clean.
    At n=2 the evolve-g and evolve-h ladders sit on a spatial floor: their
    meridian rows fall only with the grid, so unless the time truncation
    outweighs it (a stored spacing near 2e-2) they cannot show a time
    order.  No suite runs this check at n=2.
    """
    return _ladder(trace, _evolution_parts, 1e-5)


def _P_parts(sf: SpeedFields) -> dict:
    """The (field, corr, rhs) part of the evolution equation of the
    Harnack-tensor trace, given the speed fields sf of a stacked state."""
    st, law = sf.state, sf.law
    p = P_trace(sf)
    dP = st.d1(p)
    c = 1.0 + sf.f2 * st.K / sf.f1
    box_p = box_op(st, p)
    grad_f_p = sf.fp * dP / st.r1
    beta_vals = beta_fn(law, st.K)
    beta_prime_vals = sf.f * alpha_fn(law, st.K) / st.K
    group = (st.H * beta_vals - beta_prime_vals / (sf.f * sf.f1) * sf.gradsq_h) * p
    rhs = sf.f1K * box_p + 2.0 * c * grad_f_p + P_norm_sq_h(sf) + c * p**2 + group
    return {"evolve-P": [(p, sf.v * dP, rhs)]}


def check_P_evolution(trace: FlowTrace) -> IdentityReport:
    """Residual of the evolution equation of the Harnack-tensor trace (n=1),
    under the trace's own law.

    d_t trP = f'K box trP + 2(1 + f''K/f') <grad f, grad trP>_h + |P|^2_h
              + (1 + f''K/f') trP^2 + (H beta - beta'/(f f') |grad f|^2_h) trP,
    with beta, beta' the structural functions of the law (identically zero
    for power laws, where the last group drops).  The residual is checked
    against 1e-4 of the largest left-hand side, its order against [1.7, 2.3].
    """
    if trace.n != 1:
        raise ValueError("the trace-evolution residual is implemented for n=1")
    return _ladder(trace, _P_parts, 1e-4, relative=True)[0]


# ---------------------------------------------------------------------------
# pointwise geometric identities, assembled with independent 2nd-order stencils


def _identity_residuals(grid: SupportGrid) -> tuple:
    """The largest |lhs - rhs| of the embedding Hessian, the derivative of
    the normal and the divergence-free curvature tensor at one grid; a NaN
    stays NaN and so fails.

    Each identity's sides are assembled from the embedded positions and
    the geometry state with 2nd-order stencils, once for both n: periodic
    for n=1; for n=2 reflected at the poles, odd for the distance from the
    axis and even for the height.  n=2 adds the azimuthal rows of the
    embedding Hessian.  For n=1 the divergence identity collapses to the
    definitional curvature relation.
    """
    state = derive_state(grid)
    n, dx = grid.n, grid.spacing
    d1 = lambda u, parity: stencils.d1_o2(u, dx, n == 1, parity)
    d2 = lambda u, parity: stencils.d2_o2(u, dx, n == 1, parity)
    parities = ("odd", "even")  # distance from the axis, height (n=2 only)
    F, nu = embedding(grid)
    Fp = np.stack([d1(F[:, c], parities[c]) for c in (0, 1)], axis=1)
    g_emb = Fp[:, 0] ** 2 + Fp[:, 1] ** 2
    gamma = d1(g_emb, "even") / (2.0 * g_emb)

    hess = [(d2(F[:, c], parities[c]) - gamma * Fp[:, c], -state.r1 * nu[:, c]) for c in (0, 1)]
    if n == 2:
        # Azimuthal second fundamental form from the parallel circles.
        rho = F[:, 0]
        gamma_psi = -rho * Fp[:, 0] / g_emb
        rhs_psi = -state.r2 * state.sinphi**2
        hess += [
            (-rho - gamma_psi * Fp[:, 0], rhs_psi * nu[:, 0]),
            (-gamma_psi * Fp[:, 1], rhs_psi * nu[:, 1]),
        ]
    weingarten = [(d1(nu[:, c], parities[c]), Fp[:, c] / state.r1) for c in (0, 1)]

    if n == 1:
        # n=1 divergence of K h^-1 reduces to the definitional K = 1/r.
        div = d1(state.K, "even") + d1(state.r1, "even") * state.K / state.r1
    else:
        # Divergence of K h^-1 in conservation form, weighted by sqrt(det g)
        # so the residual stays uniformly second order up to the poles.
        sqrtg = state.r1 * state.r2 * state.sinphi
        t_phph = state.K / state.r1
        t_psps = state.K / (state.r2 * state.sinphi**2)
        gam_phph = d1(state.r1, "even") / state.r1
        gam_phps = -rho * Fp[:, 0] / state.r1**2
        div = d1(sqrtg * t_phph, "odd") + sqrtg * (gam_phph * t_phph + gam_phps * t_psps)

    def worst(pairs):
        return float(np.max([np.max(np.abs(lhs - rhs)) for lhs, rhs in pairs]))

    return worst(hess), worst(weingarten), float(np.max(np.abs(div)))


def check_identities(grids) -> list:
    """Grid-refinement ladders of the pointwise geometric identities (see
    _identity_residuals) over grids, a coarse-to-fine sequence of grids of
    one n; the resolutions are the grid spacings.

    Each ladder is checked against the absolute tolerance 1e-2 and the
    order window (1.7, 99.0), except the n=1 curvature-divergence, which
    collapses to the definitional K = 1/r and has no order window.
    """
    window = (1.7, 99.0)
    windows = (window, window, None if grids[0].n == 1 else window)
    names = ("hessian-embedding", "weingarten", "curvature-divergence")
    ladders = zip(*(_identity_residuals(grid) for grid in grids))
    spacings = tuple(grid.spacing for grid in grids)
    return [
        IdentityReport(name, spacings, residuals, 1e-2, order_window=w)
        for name, residuals, w in zip(names, ladders, windows)
    ]


# ---------------------------------------------------------------------------
# algebraic expansions of the Harnack tensor


def check_P_expansion(cases) -> list:
    """Squared-trace expansion and, for n=1, the tensor-norm expansion, over
    a family of (state, law) cases.

    These are pure algebra at each state, so the residuals sit at rounding
    level when the identities are implemented correctly.  Each identity's
    residual is the largest over the cases it applies to, reduced with
    np.max, so a NaN stays NaN and fails; it is checked against the
    absolute tolerance 1e-10.  The reports are sorted by name, each with
    the single resolution 0.0.
    """
    residuals = {}
    for state, law in cases:
        sf = speed_fields(state, law)
        p_tr = P_trace(sf)
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
        differences = {"p-square-expansion": expansion - p_tr**2}
        if state.n == 1:
            r, hess, grad_h_cov = state.r1, sf.hess, -state.r1p
            t1 = hess**2 / r**2
            t2 = sf.fp**2 * grad_h_cov**2 / r**4
            t3 = sf.f**2 / r**2
            t4 = -2.0 * grad_h_cov * sf.fp * hess / r**3
            t5 = 2.0 * sf.f * hess / r**2
            t6 = -2.0 * sf.f * state.Hp * sf.fp / r
            p_norm = P_norm_sq_h(sf)
            differences["p-tensor-norm-terms"] = t1 + t2 + t3 + t4 + t5 + t6 - p_norm
            differences["p-norm-trace-square"] = p_norm - p_tr**2
        for name, d in differences.items():
            residuals.setdefault(name, []).append(np.max(np.abs(d)))
    return [
        IdentityReport(name, (0.0,), (float(np.max(res)),), tolerance=1e-10)
        for name, res in sorted(residuals.items())
    ]


# ---------------------------------------------------------------------------
# embedding-based Hessian oracle


def hessian_oracle(grid: SupportGrid, u: np.ndarray) -> np.ndarray:
    """Covariant Hessian components from the embedded hypersurface alone.

    Fits the nonuniform 3-point second derivative along chord lengths of
    the reconstructed meridian (arc length to second order), so it shares
    no stencil with the production path.  Returns principal-frame
    components: shape (N,) for n=1, (M, 2) for n=2, where the azimuthal
    component comes from the turning of the parallel circles.  The -1 and
    +1 neighbours of each node are the ghost-cell rule's, through
    stencils.extend on the grid's topology.
    """
    F, _ = embedding(grid)
    # For n=2, continue through the poles along the meridian great arc: the
    # mirror image across the axis (odd distance from the axis, even height)
    # carries the same field value.
    periodic = grid.n == 1
    eF = np.stack([stencils.extend(F[:, c], periodic, p) for c, p in ((0, "odd"), (1, "even"))])
    eu = stencils.extend(u, periodic)
    Fm, Fp = eF[:, 1:-3].T, eF[:, 3:-1].T
    um, up = eu[1:-3], eu[3:-1]
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


def random_convex_grid(n: int, size: int, rng: np.random.Generator) -> SupportGrid:
    """Fourier-perturbed unit circle or sphere, modes up to 6, convex by
    rejection-free amplitude shrinking."""
    lo = 2 if n == 1 else 1
    ks = list(range(lo, 7))
    amps = rng.uniform(-1.0, 1.0, size=len(ks))
    amps = amps / np.sum(np.abs(amps) * np.array([max(k * k - 1, 1) for k in ks]))
    amps = amps * 0.6
    for _ in range(40):
        try:
            g = fourier_grid(n, 1.0, list(zip(ks, amps)), size)
            derive_state(g)
            return g
        except (NonConvex, OriginOutside):
            amps = amps * 0.5
    raise RuntimeError("could not draw a convex grid")


# ---------------------------------------------------------------------------
# named suites (consumed by the command-line front end and acceptance tests)


def speedlaw_suite() -> list:
    """Vanishing of the structural functions for power laws, and the cross
    identities for the exponential control law.

    At the sample points, alpha, beta and gamma of five power laws must
    vanish to 1e-12.  For exp(x), gamma = -beta/(x f') and, with the
    finite-difference beta', beta' = f*alpha/x must hold to 1e-8.  Each
    residual is the largest over its points and laws, reduced with np.max,
    so a NaN stays NaN and fails.
    """
    x = np.array((0.5, 1.0, 2.0, 4.0))
    vanishing = [
        np.max(np.abs(fn(SpeedLaw.power(a, beta), x)))
        for a, beta in ((-1.0, -0.5), (-1.0, -0.2), (1.0, 2.0), (2.0, 0.5), (1.0, 1.0))
        for fn in (alpha_fn, beta_fn, gamma_fn)
    ]
    law = SpeedLaw.exponential()
    res_gamma = np.abs(gamma_fn(law, x) + beta_fn(law, x) / (x * law.f1(x)))
    res_bp = np.abs(beta_fn_prime_fd(law, x) - law.f(x) * alpha_fn(law, x) / x)
    return [
        IdentityReport(name, (0.0,), (float(np.max(res)),), tolerance=tol)
        for name, res, tol in (
            ("power-structural-vanishing", vanishing, 1e-12),
            ("exp-gamma-identity", res_gamma, 1e-8),
            ("exp-beta-prime-identity", res_bp, 1e-8),
        )
    ]


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
        FlowConfig(round_grid(n, 1.0, size), SpeedLaw.power(-1.0, -b), (t_end,), stride=10**9)
        for n, b, size in ORACLE_CASES
    ]
    reports = []
    for (n, b, size), trace in zip(ORACLE_CASES, run(configs)):
        r_exact = sphere_radius_exact(1.0, t_end, n, b)
        h_final = trace.grids[-1].values
        rel = float(np.max(np.abs(h_final - r_exact)) / r_exact)
        reports.append(
            IdentityReport(f"round-oracle-n{n}-b{b:g}", (float(size),), (rel,), tolerance=1e-6)
        )
    return reports


def _perturbed_circle_shape(amp: float = 0.02) -> InitialShape:
    return InitialShape("fourier", R0=1.0, modes=((3, amp), (2, amp / 2.0)))


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
        _perturbed_circle_shape().build(1, 512), law, spacing=1e-3, n_stored=9, burn_in=0.1
    )
    return check_evolution(trace)


def identity_suite() -> list:
    """Grid-refinement ladders for the pointwise geometric identities."""
    shape = _perturbed_circle_shape(amp=0.05)
    reports = check_identities([shape.build(1, s) for s in (64, 128, 256)])
    ellipsoids = [_ellipsoid_grid(1.0, 1.3, s) for s in (32, 64, 128)]
    reports += [
        rep for rep in check_identities(ellipsoids) if rep.identity == "curvature-divergence"
    ]
    return reports


def _ellipsoid_grid(a: float, c: float, size: int) -> SupportGrid:
    phi = SupportGrid.node_angles(2, size)
    h = np.sqrt(a**2 * np.sin(phi) ** 2 + c**2 * np.cos(phi) ** 2)
    return SupportGrid(2, h)


def pexpand_suite() -> list:
    """Algebraic expansions on a deterministic family of 10 random convex
    states; each row's residual is the largest over the states, reduced with
    np.max, so a NaN stays NaN and fails."""
    rng = np.random.default_rng(20240)
    cases = []
    for i in range(10):
        n = 1 if i % 5 < 3 else 2
        size = 256 if n == 1 else 128
        grid = random_convex_grid(n, size, rng)
        law = SpeedLaw.power(-1.0, -0.5 if n == 1 else -0.25)
        cases.append((derive_state(grid), law))
    return check_P_expansion(cases)


def pevol_suite() -> list:
    """Trace-evolution residual ladders: power law, plus the exponential
    control law whose structural-function group is active.

    The right-hand side stacks six angular derivatives of the support
    function, so the roundoff floor scales like eps/dx**6; a coarse grid
    (N = 128) and a gentle single-mode shape keep that floor far below the
    measured time-truncation residual.
    """
    law = SpeedLaw.power(-1.0, -0.5)
    grid = InitialShape("fourier", R0=1.0, modes=((2, 0.01),)).build(1, 128)
    trace = uniform_trace(grid, law, spacing=8e-3, n_stored=9, burn_in=0.25)
    exp_law = SpeedLaw.exponential()
    exp_trace = uniform_trace(grid, exp_law, spacing=1e-3, n_stored=9, burn_in=0.02)
    return [
        check_P_evolution(trace),
        replace(check_P_evolution(exp_trace), identity="evolve-P-exp"),
    ]


SUITES = {
    "speedlaw": speedlaw_suite,
    "oracle": oracle_suite,
    "evolution": evolution_suite,
    "identity": identity_suite,
    "pexpand": pexpand_suite,
    "pevol": pevol_suite,
}
