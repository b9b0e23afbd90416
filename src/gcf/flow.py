"""Time integration of the support function under normal speed -f(K).

Under the outward-normal support parameterization the hypersurface flow
with normal velocity -f(K)*nu collapses to the scalar equation
dh/dt = -f(K(h)) on the fixed grid of normal directions.  For the
expanding negative-power law (a = -1, beta = -b) the speed is K**(-b).

Stepping is classical RK4: each right-hand-side evaluation re-derives the
curvature from the stage values, and any stage that loses strict
convexity aborts the step.  The state a step produces is checked the same
way, once; that checked curvature is kept and serves the next step bound
and the next first stage.  run() has one step policy: each step is the
smaller of the explicit parabolic step bound (stable_dt) and the time
left; step() takes the step its caller gives.  Round initial data stays
exactly round, so closed-form radius ODEs provide oracles for the
integrator.

A run starts from a grid: a FlowConfig holds its initial SupportGrid,
built by its caller (from an InitialShape, say, or the last state of an
earlier run), and reads the run's n and size from it, so SupportGrid's
checks are the only checks of n and size.

Where a run's states are stored is decided here alone.  A FlowConfig
holds the increasing times after t0 that the run stores, the last being
its end: each step is also at most the time left to the next of them,
the run lands on each one exactly, and it stores the initial state, the
state at each time, and every stride-th state in between.  So a trace
with states at chosen times (verify.uniform_trace) is one run.

Each step is held near the floor of the numpy calls it must make.  Each
curvature derivation is one FlatLayout.curvature call, which writes its
radii into a row of one radii buffer per step: three rows for the
stages, one for the new state.  The checks are one minimum and one
maximum over that buffer and the minimum of the new values, compared
inline, the check functions of geometry running row by row only after a
failure.  The stage values and the final sum are formed in place in one
scratch array.  When every law of a batch is the expanding -K**beta, each
stage's law evaluation is one np.power call, the rate -f itself, which the
stages add; other batches carry f and subtract it, bit for bit the same
arithmetic (see speedlaw.FlatLaws).  numpy's floating-point warnings are
turned off once per run() call's time loop, not once per step; step()
turns them off for its one step.

One run() call is one flat batch: its configs are the rows of one flat
array, whatever their n and size (see geometry.FlatLayout), and every RK4
stage updates all rows at once.  The configs of a call must share a law
kind.  Every batch, a solo run's included, evaluates its laws from
per-element columns (see speedlaw.FlatLaws), so the arithmetic of each
row is that of a solo run and a config's trace does not depend on the
ensemble it ran in.  A step that fails ends only its failing rows, with
what each one's own step would raise; the other rows keep the values it
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GcfError, InvalidConfig, NonConvex, OriginOutside
from .geometry import (
    RADIUS_FLOOR,
    FlatLayout,
    SupportGrid,
    fourier_grid,
    require_admissible,
    require_convex,
    row_layout,
)
from .speedlaw import POWER, FlatLaws, SpeedLaw, require_one_kind, theorem_hypotheses

DT_FLOOR = 1e-12
# Every step of run() is at most SAFETY * dx**2 / lambda.  RK4 with the
# 4th-order d2 stencil is linearly stable to 2.785 * 3/16 = 0.522 of
# dx**2 / lambda (node noise on an n=1 circle grows from 0.525 on, and on an
# n=2 sphere of 128 nodes it decays at 0.52 and grows 167x at 0.53); 0.45
# is 86% of that limit, and its time error is at rounding level.
SAFETY = 0.45

_minimum, _maximum = np.minimum.reduce, np.maximum.reduce


@dataclass(frozen=True)
class InitialShape:
    """Round shape of radius R0, optionally Fourier-perturbed.

    kind is "round" or "fourier"; modes holds (wavenumber, relative
    amplitude) pairs applied as h = R0*(1 + sum amp*cos(k*angle)).
    """

    kind: str = "round"
    R0: float = 1.0
    modes: tuple = ()

    def build(self, n: int, size: int) -> SupportGrid:
        """The shape on the (n, size) grid, through fourier_grid for both
        kinds: a "round" shape ignores its modes and builds with none, which
        gives round_grid's values.  An unknown kind raises InvalidConfig."""
        if self.kind not in ("round", "fourier"):
            raise InvalidConfig(f"unknown initial shape kind {self.kind!r}")
        return fourier_grid(n, self.R0, self.modes if self.kind == "fourier" else (), size)


@dataclass(frozen=True)
class FlowConfig:
    """Validated description of one flow run.

    grid is the initial state, such as the grid an InitialShape builds or
    the last state of an earlier run; the run's n and size are the grid's.
    It must be strictly convex and the law defined on its curvature.
    times is a non-empty tuple of increasing times after t0, the last one
    finite: the run's end, t_end.  run() steps the grid from t0 under
    stable_dt, lands on each time and stores its state there, and stores
    every stride-th state besides.
    """

    grid: SupportGrid
    law: SpeedLaw
    times: tuple
    t0: float = 0.0
    stride: int = 1

    def __post_init__(self):
        ts = (self.t0, *self.times)  # a NaN fails a comparison, so it fails here
        if not (self.times and math.isfinite(ts[-1]) and self.t0 >= 0.0
                and all(a < b for a, b in zip(ts, ts[1:]))):
            raise InvalidConfig(f"need increasing times up to a finite t_end > t0 >= 0, "
                                f"got t0={self.t0}, times={self.times}")
        if self.stride < 1:
            raise InvalidConfig(f"stride must be >= 1, got {self.stride}")
        if self.law.is_power and not theorem_hypotheses(self.law, self.grid.n):
            raise InvalidConfig(
                f"expanding power law needs b < 1/n (and b > 0): "
                f"got b = {-self.law.beta} with n = {self.grid.n}"
            )
        try:
            with np.errstate(all="ignore"):  # as in run(): the checks report, not numpy
                self.law.f(self.grid.curvature()[1])
        except GcfError as exc:
            raise InvalidConfig(f"initial shape is not admissible: {exc}") from exc


@dataclass
class FlowTrace:
    """Stored states of one run, the reason it stopped, and its steps.

    n and law are the run's own: everything that evaluates the law on the
    stored states (harnack.monitor, the verify checks) reads it here.
    steps counts the accepted RK4 steps; dt_min and dt_max bound their
    sizes, and are None while no step has been accepted.  A trace does not
    depend on the ensemble its config ran in.
    """

    n: int
    law: SpeedLaw
    times: list = field(default_factory=list)
    grids: list = field(default_factory=list)
    reason: str = "completed"
    steps: int = 0
    dt_min: float | None = None
    dt_max: float | None = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def rhs_evals(self) -> int:
        """The right-hand-side evaluations of every step attempted, 4 per
        RK4 step: those accepted and the one that failed, if one did."""
        return 4 * (self.steps + (self.reason in REASONS.values()))

    @property
    def stored_spacing(self) -> float | None:
        """Common spacing of stored times, or None if not uniform."""
        t = np.asarray(self.times)
        if t.size < 2:
            return None
        d = np.diff(t)
        if np.max(np.abs(d - d[0])) > 1e-9 * max(abs(d[0]), 1e-30):
            return None
        return float(d[0])


def _rk4(law: FlatLaws, layout: FlatLayout, h: np.ndarray, K: np.ndarray, dt) -> tuple:
    """One classical RK4 update of the flat support values h of a layout.

    K is the checked curvature of h; dt is a float, or one step per
    element.  Every stage derives the curvature from its stage values.
    One (4, radii_size) buffer per step holds the radii: rows 0-2 those of
    the three stages, row 3 those of the new values.  A stage's NaN or inf
    values run on through the later stages, so the caller turns numpy's
    floating-point warnings off.  Returns the new values with their flat
    radii r and K, r being row 3 of the buffer itself (a row's radii are
    layout.row_radii of it), and the failures: None if the step passed
    every check, else per row the exception its own step raises (see
    _row_failure) or None.  Rows that failed hold values to be discarded;
    the others hold their step.

    The checks are one minimum and one maximum over the whole buffer and
    the minimum of the new values, compared inline; the rows are checked
    one by one, in a solo step's order, only after one of these fails.
    New values that are not below inf need no check of their own: an inf
    or NaN value makes its node's radii inf or NaN.  The stage values and
    the final sum are formed in one scratch array, with the operands of
    the textbook form in its order (2 g2 + g1 is g1 + 2 g2 bit for bit).
    The stages carry the law's stage values g and update h with its update
    (see speedlaw.FlatLaws): for a batch of expanding laws g is the rate
    -f, one np.power call, and the update adds; else g is f and the update
    subtracts.  Negating a product or a sum is exact, so either way
    h - c*f is formed bit for bit.
    """
    curvature, g, update, mul = layout.curvature, law.stage, law.update, np.multiply
    half = 0.5 * dt
    buf, work = np.empty((4, layout.radii_size)), np.empty(h.size)
    g1 = g(K)
    g2 = g(curvature(update(h, mul(half, g1, work), work), buf[0]))
    g3 = g(curvature(update(h, mul(half, g2, work), work), buf[1]))
    g4 = g(curvature(update(h, mul(dt, g3, work), work), buf[2]))
    total = mul(2.0, g2, work)
    total += g1
    total += mul(2.0, g3, g3)
    total += g4
    new = update(h, mul(dt / 6.0, total, total))
    K = curvature(new, buf[3])
    failures = None
    if not (_minimum(buf, axis=None) > RADIUS_FLOOR and _maximum(buf, axis=None) < math.inf
            and _minimum(new) > 0.0):
        failures = [_row_failure(layout, j, buf, new) for j in range(len(layout.rows))]
    return new, buf[3], K, failures


def _row_failure(layout: FlatLayout, j: int, buf, new) -> Exception | None:
    """The NonConvex or OriginOutside that row j's own step raises, or None.

    The checks are a solo step's, in its order, on row j's part of a flat
    step's radii buffer and new values: its radii of all three stages
    together (buf[:3]), then its new values, then its new radii (buf[3]),
    the radii as layout.row_radii picks them.  A row's arithmetic in a
    flat step is that of its solo step, so the exception and its message
    are the solo step's.
    """
    start = int(layout.starts[j])
    try:
        require_convex(layout.row_radii(j, buf[:3]))
        require_admissible(new[start:start + int(layout.sizes[j])])
        require_convex(layout.row_radii(j, buf[3]))
    except (NonConvex, OriginOutside) as exc:
        return exc
    return None


def step(grid: SupportGrid, law: SpeedLaw, dt: float) -> SupportGrid:
    """One classical RK4 update of the support values.

    Every stage derives the curvature from its stage values (the first
    from the grid's cached curvature); a stage that loses convexity raises
    NonConvex and the step is rejected.  The new grid is validated and its
    curvature checked before it is returned, so a new state that is not
    strictly convex raises NonConvex and one that leaves the origin
    outside raises OriginOutside.  dt = 0 returns the input values
    unchanged.
    """
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    laws, layout = _one_grid(grid, law)
    with np.errstate(all="ignore"):
        values, r, K, failures = _rk4(laws, layout, grid.values, grid.curvature()[1], dt)
    if failures:
        raise failures[0]
    # r is a row of the step's buffer, which the grid does not keep
    return SupportGrid.with_curvature(grid.n, values, layout.row_radii(0, r.copy()), K)


def _one_grid(grid: SupportGrid, law: SpeedLaw) -> tuple:
    """The law columns and flat layout of one grid, in the order _rk4 and
    _dt_bound take them."""
    return FlatLaws([law], [grid.size]), row_layout(grid.n, grid.size, grid.spacing)


def _dt_bound(law: FlatLaws, layout: FlatLayout, r: np.ndarray, K: np.ndarray, scale: list) -> list:
    """scale[j] / lambda per row j as floats, with scale = SAFETY * dx**2 per
    row and lambda maximised over the row, for the flat state (r, K).

    The division is Python's, the IEEE division numpy's also is; a lambda
    of 0, as when K**2 underflows on a very large body, gives an infinite
    bound, so the row steps its remaining time.  A row whose maximum is
    not finite forms a power law's lambda again from the f1 columns, as
    a*beta * K**(beta + 1): on a very large body f1(K) can overflow to inf
    where K**2 underflows, while lambda itself tends to 0.  (The
    exponential law's f1 = exp(K) overflows only where K**2 > 1.)  A lambda
    still beyond the float range, as of a contracting law on a tiny body,
    gives a bound of 0.
    """
    tops = _lambda_tops(law.f1(K) * (K * K), layout, r)  # K * K is K**2 without the dispatch
    if not all(map(math.isfinite, tops)) and law.kind == POWER:
        again = _lambda_tops(law.coefs[1] * np.power(K, law.expos[1] + 2.0), layout, r)
        tops = [top if math.isfinite(top) else top2 for top, top2 in zip(tops, again)]
    return [s / top if top else math.inf for s, top in zip(scale, tops)]


def _lambda_tops(lam: np.ndarray, layout: FlatLayout, r: np.ndarray) -> list:
    """Each row's maximum of lam, f'(K) * K**2 per node, as floats, from one
    np.maximum.reduceat over the layout's row starts (one row included);
    on the n=2 tail lam is first scaled in place by the larger radius of
    each node, the larger of its r1 and r2 in the flat radii r."""
    tail, size = layout.tail, layout.size
    if tail < size:
        lam[tail:] *= np.maximum(r[tail:size], r[size:])
    return np.maximum.reduceat(lam, layout.starts).tolist()


def stable_dt(grid: SupportGrid, law: SpeedLaw) -> float:
    """Explicit parabolic step bound SAFETY * dx**2 / lambda, the bound
    every step of run() sits under.

    lambda bounds the linearized speed sensitivity to the curvature radii:
    |d(-f)/dr| = f'(K) * K**2 times the complementary radius for n=2.
    A lambda of 0 (K**2 underflows on a very large body) gives inf, and
    one beyond the float range 0; numpy's overflow warnings on the way
    are off, as they are in run().
    """
    dx = grid.spacing
    radii, K = grid.curvature()
    with np.errstate(all="ignore"):
        return _dt_bound(*_one_grid(grid, law), np.concatenate(radii), K, [SAFETY * dx * dx])[0]


def run(config):
    """Integrate the flow from the config's grid at t0 to its last time.

    The initial state is the config's grid as it is, its checked
    curvature included; the run's n and size are the grid's.  Each step
    is the smaller of stable_dt of the state it starts from and the time
    left to the config's next time.  Stores the initial state, the state
    at each of the config's times, which the run's time is set to exactly
    on reaching it, and every stride-th state in between; a state that
    both select is stored once.  Loss of convexity, the origin leaving
    the body, or a dt underflow terminates early: the last accepted state
    is stored and the partial trace is returned with the reason recorded.

    Given a list of configs instead of one config, returns their traces in
    its order, stepping the configs together as one ensemble: their
    support values lie end to end in one flat array, whatever their n and
    size, so one RK4 step updates every row.  The configs must share a law
    kind; a list that mixes power and exponential laws raises
    InvalidSpeedLaw before any step.  Each row keeps its own law columns,
    step (the smaller of its own step bound and the time left to its next
    time), time, step count, stored states and termination reason.  A row
    that completes or ends early leaves the ensemble and the other rows
    run on; so does a row whose step fails, which ends as its solo run
    would, while the others keep the values that step computed for them.
    Each row is computed with the arithmetic of a solo run, so every
    trace equals run(config) exactly, its step count, RHS evaluations and
    dt range included.

    numpy's floating-point warnings are off for the whole time loop (see
    _rk4); the caller's error state is restored on return, as on an
    exception.
    """
    solo = isinstance(config, FlowConfig)
    configs = [config] if solo else list(config)
    require_one_kind([cfg.law for cfg in configs])  # with no time to step, a config still counts
    rows = [_Row(cfg) for cfg in configs]
    traces = [row.trace for row in rows]
    rows = sorted((row for row in rows if row.running), key=lambda row: row.trace.n)
    grids = [row.trace.grids[0] for row in rows]
    batch = _Batch.of(rows, [(grid.values, *grid.curvature()) for grid in grids])
    with np.errstate(all="ignore"):
        while batch is not None:
            bounds = _dt_bound(batch.law, batch.layout, batch.r, batch.K, batch.scale)
            planned = [row.plan(b) for row, b in zip(batch.rows, bounds)]
            if not all(planned):
                for j, ok in enumerate(planned):
                    if not ok:
                        batch.rows[j].end("dt_underflow", batch.grid(j))
                batch = batch.keep(planned)
                if batch is None:
                    break
            h, r, K, failures = _rk4(batch.law, batch.layout, batch.h, batch.K, batch.dt())
            for j, exc in enumerate(failures or ()):
                if exc is not None:  # the row ends; its reason counts the failed step
                    batch.rows[j].end(REASONS[type(exc)], batch.grid(j))
            batch.h, batch.r, batch.K = h, r, K
            for j, row in enumerate(batch.rows):
                if row.running and row.advance():
                    row.store(batch.grid(j))
            batch = batch.keep([row.running for row in batch.rows])
    return traces[0] if solo else traces


class _Row:
    """One config in an ensemble: its time, next step and trace (which
    counts its steps), and whether it still runs.

    target is the config's next time, times[k], and stop its stop value:
    a step that takes the time to stop or past it has reached the target,
    within a relative 1e-14 of the time.
    """

    def __init__(self, cfg: FlowConfig):
        self.cfg = cfg
        self.trace = FlowTrace(n=cfg.grid.n, law=cfg.law, times=[cfg.t0], grids=[cfg.grid])
        self.dx = cfg.grid.spacing
        self.scale = SAFETY * self.dx * self.dx
        self.t, self.dt = cfg.t0, None
        self.times, self.stride = cfg.times, cfg.stride
        self.aim(0)
        self.running = self.t < self.stop

    def aim(self, k: int) -> None:
        """Make times[k] the row's target."""
        self.k, self.target = k, self.times[k]
        self.stop = self.target - 1e-14 * max(1.0, self.target)

    def plan(self, bound: float) -> bool:
        """Set the next step from the row's step bound; False if it underflows.

        A bound underflows below DT_FLOOR, or when adding it to the row's
        time leaves the time unchanged (from t = 2**14 on, a bound above
        DT_FLOOR can be below half an ulp of t).  The step is the smaller of
        the bound and the time left to the target, so an infinite bound
        steps the time left.
        """
        if bound < DT_FLOOR or not self.t + bound > self.t:
            return False
        left = self.target - self.t
        self.dt = left if left < bound else bound  # min(bound, left)
        return True

    def advance(self) -> bool:
        """Count one accepted step; whether its state is to be stored.

        A step that reaches the target sets the time to it exactly, as a
        run restarted at t0 = target would start, and aims at the next
        time; the row stops after its last one.  Such a state is stored,
        as is every stride-th.
        """
        dt, trace = self.dt, self.trace
        self.t += dt
        trace.steps = i = trace.steps + 1
        if i == 1:
            trace.dt_min = trace.dt_max = dt
        elif dt < trace.dt_min:
            trace.dt_min = dt
        elif dt > trace.dt_max:
            trace.dt_max = dt
        if self.t < self.stop:
            return i % self.stride == 0
        self.t, self.running = self.target, self.k + 1 < len(self.times)
        if self.running:
            self.aim(self.k + 1)
        return True

    def store(self, grid: SupportGrid) -> None:
        self.trace.times.append(self.t)
        self.trace.grids.append(grid)

    def end(self, reason: str, grid: SupportGrid) -> None:
        """End early at the last accepted state, stored unless it already is."""
        self.trace.reason = reason
        self.running = False
        if self.trace.times[-1] < self.t:
            self.store(grid)


# The reason a row ends with when its step raises (verify maps it back).
REASONS = {NonConvex: "nonconvex", OriginOutside: "origin_outside"}


class _Batch:
    """The running rows of an ensemble and their flat checked state.

    The rows are laid out n=1 first; h, r and K are the layout's flat state,
    the radii r one flat array (see FlatLayout).  Per batch, not per step:
    the layout, the rows' laws and their SAFETY * dx**2.
    """

    def __init__(self, rows: list, layout: FlatLayout, h, r, K):
        self.rows, self.layout, self.h, self.r, self.K = rows, layout, h, r, K
        self.law = FlatLaws([row.cfg.law for row in rows], layout.sizes)
        self.scale = [row.scale for row in rows]

    @classmethod
    def of(cls, rows: list, parts) -> "_Batch | None":
        """The batch of rows whose (values, radii, K) are parts, or None if no rows."""
        if not rows:
            return None
        layout = FlatLayout([(row.trace.n, row.cfg.grid.size, row.dx) for row in rows])
        return cls(rows, layout, *layout.join(parts))

    def dt(self):
        """The rows' planned steps: a float for one row, else one per element.

        A one-row batch, such as every solo run, makes no per-step arrays.
        """
        if len(self.rows) == 1:
            return self.rows[0].dt
        return np.array([row.dt for row in self.rows]).repeat(self.layout.sizes)

    def grid(self, j: int) -> SupportGrid:
        """Row j's state as a grid of its own, with its curvature kept."""
        return self.layout.grid(j, self.h, self.r, self.K)

    def keep(self, mask: list) -> "_Batch | None":
        """The batch of the rows where mask is true; None if none is."""
        if all(mask):
            return self
        kept = [j for j, k in enumerate(mask) if k]
        parts = [self.layout.row(j, self.h, self.r, self.K) for j in kept]
        return _Batch.of([self.rows[j] for j in kept], parts)
