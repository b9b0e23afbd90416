"""Time integration of the support function under normal speed -f(K).

Under the outward-normal support parameterization the hypersurface flow
with normal velocity -f(K)*nu collapses to the scalar equation
dh/dt = -f(K(h)) on the fixed grid of normal directions.  For the
expanding negative-power law (a = -1, beta = -b) the speed is K**(-b).

Stepping is classical RK4 with an explicit parabolic step bound: each
right-hand-side evaluation re-derives the curvature from the stage values,
and any stage that loses strict convexity aborts the step.  The state a
step produces is checked the same way, once; that checked curvature is
kept and serves the next step bound and the next first stage.  Round
initial data stays exactly round, so closed-form radius ODEs provide
oracles for the integrator.

Runs are stepped as ensembles: the configs of one call that share a law
kind are the rows of one flat array, whatever their n and size (see
geometry.FlatLayout), and every RK4 stage updates all rows at once.  The
arithmetic of each row is that of a solo run, so a config's trace does not
depend on the ensemble it ran in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, NonConvex, OriginOutside
from .geometry import (
    FlatLayout,
    SupportGrid,
    fourier_grid,
    require_admissible,
    require_convex,
    round_grid,
    row_layout,
)
from .speedlaw import FlatLaws, SpeedLaw, theorem_hypotheses

DT_FLOOR = 1e-12
DEFAULT_SAFETY = 0.3


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
        if self.kind == "round":
            return round_grid(n, self.R0, size)
        if self.kind == "fourier":
            return fourier_grid(n, self.R0, self.modes, size)
        raise InvalidConfig(f"unknown initial shape kind {self.kind!r}")


@dataclass(frozen=True)
class FlowConfig:
    """Validated description of one flow run.

    shape is an InitialShape, built on the (n, size) grid, or a
    SupportGrid of that (n, size) to start from as it is, such as the
    last state of an earlier run.  The initial state must be strictly
    convex and the law defined on its curvature.

    safety scales the explicit step bound dx**2 / lambda (see stable_dt).
    RK4's linear stability limit with the 4th-order d2 stencil is about
    0.52 of that bound, so a safety near 1 can step unstably: perturbed
    circles at t_end = 0.5 end nonconvex at safety 0.8 and 1.0 and
    complete at 0.6 or below.
    """

    n: int
    size: int
    law: SpeedLaw
    shape: InitialShape | SupportGrid
    t_end: float
    t0: float = 0.0
    safety: float = DEFAULT_SAFETY
    stride: int = 1
    fixed_dt: float | None = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise InvalidConfig(f"n must be 1 or 2, got {self.n}")
        if not (math.isfinite(self.t_end) and self.t_end > self.t0 >= 0.0):
            raise InvalidConfig(
                f"need a finite t_end > t0 >= 0, got t0={self.t0}, t_end={self.t_end}"
            )
        if not (0.0 < self.safety <= 1.0):
            raise InvalidConfig(f"safety must lie in (0, 1], got {self.safety}")
        if self.stride < 1:
            raise InvalidConfig(f"stride must be >= 1, got {self.stride}")
        if self.fixed_dt is not None:
            if not (math.isfinite(self.fixed_dt) and self.fixed_dt > 0.0):
                raise InvalidConfig(f"fixed_dt must be finite and positive, got {self.fixed_dt}")
            span = self.t_end - self.t0
            n_steps = max(1, round(span / self.fixed_dt))
            if not math.isclose(n_steps * self.fixed_dt, span, rel_tol=1e-9):
                raise InvalidConfig(
                    f"fixed_dt = {self.fixed_dt} does not divide the time span {span}"
                )
            object.__setattr__(self, "_n_steps", n_steps)
        if self.law.is_power and not theorem_hypotheses(self.law, self.n):
            raise InvalidConfig(
                f"expanding power law needs b < 1/n (and b > 0): "
                f"got b = {-self.law.beta} with n = {self.n}"
            )
        try:
            grid = self.shape
            if not isinstance(grid, SupportGrid):
                grid = grid.build(self.n, self.size)
            elif (grid.n, grid.size) != (self.n, self.size):
                raise InvalidConfig(
                    f"initial grid has (n, size) = ({grid.n}, {grid.size}), "
                    f"the config ({self.n}, {self.size})"
                )
            self.law.f(grid.curvature()[1])
        except InvalidConfig:
            raise
        except Exception as exc:
            raise InvalidConfig(f"initial shape is not admissible: {exc}") from exc
        object.__setattr__(self, "_grid", grid)

    def build_grid(self) -> SupportGrid:
        """The validated initial grid, with its checked curvature."""
        return self._grid


@dataclass
class FlowTrace:
    """Stored states of one run, the reason it stopped, and its steps.

    steps counts the accepted RK4 steps; dt_min and dt_max bound their
    sizes, and are None while no step has been accepted.  rhs_evals counts
    the right-hand-side evaluations of every step attempted, 4 per RK4
    step: those accepted, one that failed, and the step of a row taken
    again alone after its ensemble's joint step failed.
    """

    n: int
    law: SpeedLaw
    times: list = field(default_factory=list)
    grids: list = field(default_factory=list)
    reason: str = "completed"
    steps: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    rhs_evals: int = 0

    def __len__(self) -> int:
        return len(self.times)

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
    element.  Every stage derives the curvature from its stage values; the
    stages' radii are kept and checked once, after the last stage, so a
    stage that loses convexity raises NonConvex.  Its NaN or inf values run
    on through the later stages, with numpy's floating-point warnings off,
    and are discarded with the step.  Then new values that are not finite
    and positive raise OriginOutside, and a new state that is not strictly
    convex raises NonConvex.  Returns the new values with their checked
    (radii, K), as the layout splits them.

    The stages carry the law values f rather than the rates -f: negating
    a product or a sum is exact, so h - c*f is bit for bit h + c*(-f).
    """
    half = 0.5 * dt
    stages = np.empty((3, layout.radii_size))
    with np.errstate(all="ignore"):
        f1 = law.f(K)
        f2 = law.f(layout.gauss(layout.radii(h - half * f1, stages[0])))
        f3 = law.f(layout.gauss(layout.radii(h - half * f2, stages[1])))
        f4 = law.f(layout.gauss(layout.radii(h - dt * f3, stages[2])))
        new = h - (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    require_convex(stages)
    require_admissible(new)
    r = layout.radii(new)
    require_convex(r)
    return new, layout.split(r), layout.gauss(r)


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
    layout = row_layout(grid.n, grid.size, grid.spacing)
    values, radii, K = _rk4(
        FlatLaws([law], [grid.size]), layout, grid.values, grid.curvature()[1], dt
    )
    return SupportGrid.with_curvature(grid.n, values, radii, K)


def _dt_bound(law: FlatLaws, layout: FlatLayout, radii: tuple, K: np.ndarray, scale):
    """scale / lambda per row, with scale = safety * dx**2 and lambda maximised over the row."""
    lam = law.f1(K) * K**2
    if len(radii) == 2:
        tail = layout.tail
        lam[tail:] *= np.maximum(radii[0][tail:], radii[1])
    return scale / np.maximum.reduceat(lam, layout.starts)


def stable_dt(grid: SupportGrid, law: SpeedLaw, safety: float = DEFAULT_SAFETY) -> float:
    """Explicit parabolic step bound safety * dx**2 / lambda.

    lambda bounds the linearized speed sensitivity to the curvature radii:
    |d(-f)/dr| = f'(K) * K**2 times the complementary radius for n=2.
    """
    dx = grid.spacing
    layout = row_layout(grid.n, grid.size, dx)
    bound = _dt_bound(FlatLaws([law], [grid.size]), layout, *grid.curvature(), safety * dx * dx)
    return float(bound[0])


def run(config):
    """Integrate the flow from the initial shape at t0 to t_end.

    The initial state is the config's InitialShape built on its grid, or
    the SupportGrid it was given.  Steps adaptively with stable_dt unless
    fixed_dt is set.  Stores the initial state, every stride-th state, and
    the final state.  Loss of convexity, the origin leaving the body, or a
    dt underflow terminates early: the last accepted state is stored and
    the partial trace is returned with the reason recorded.  Given a list
    of configs instead of one config, returns their traces from
    run_ensemble.
    """
    if isinstance(config, FlowConfig):
        return run_ensemble([config])[0]
    return run_ensemble(config)


def run_ensemble(configs) -> list:
    """Run each config as run() does, stepping configs together.

    Each ensemble (see ensembles()) lays its configs' support values end to
    end in one flat array, whatever their n and size, so one RK4 step
    updates every row.  Each row keeps its own law parameters, step (its
    fixed_dt, or the smaller of its own step bound and its remaining
    time), time, step count, stored states and termination reason.  A row
    that completes or ends early leaves the ensemble and the other rows
    run on.  Each row is computed with the arithmetic of a solo run, so
    every trace equals run(config) exactly; only its rhs_evals also counts
    the steps it took again alone after a joint step failed.  Returns the
    traces in the order of configs.
    """
    configs = list(configs)
    traces = [None] * len(configs)
    for members in ensembles(configs):
        for j, trace in zip(members, _run_rows([_Row(configs[j]) for j in members])):
            traces[j] = trace
    return traces


def ensembles(configs) -> list:
    """Indices of the configs that run_ensemble steps together, per ensemble.

    Configs share an ensemble when they share a law kind, at any n and
    size; the ensembles and their members keep the order of configs.
    """
    groups = {}
    for j, cfg in enumerate(configs):
        groups.setdefault(cfg.law.kind, []).append(j)
    return list(groups.values())


class _Row:
    """One config in an ensemble: its time, step count, next step and trace,
    and whether it still runs."""

    def __init__(self, cfg: FlowConfig):
        self.cfg = cfg
        grid = cfg.build_grid()
        self.trace = FlowTrace(n=cfg.n, law=cfg.law, times=[cfg.t0], grids=[grid])
        self.dx = grid.spacing
        self.scale = cfg.safety * self.dx * self.dx  # the step bound's safety * dx**2
        self.t, self.i, self.dt = cfg.t0, 0, cfg.fixed_dt
        self.t_stop = cfg.t_end - 1e-14 * max(1.0, cfg.t_end)
        self.running = cfg.fixed_dt is not None or self.t < self.t_stop

    def plan(self, bound: float) -> bool:
        """Set the next step from the row's step bound; False if it underflows.

        A fixed_dt row keeps its step.
        """
        cfg = self.cfg
        if cfg.fixed_dt is None:
            if bound < DT_FLOOR:
                return False
            self.dt = min(bound, cfg.t_end - self.t)
        return True

    def advance(self) -> bool:
        """Count one accepted step; whether its state is to be stored."""
        cfg, dt, trace = self.cfg, self.dt, self.trace
        self.i += 1
        if cfg.fixed_dt is None:
            self.t += dt
            self.running = self.t < self.t_stop
        else:
            self.t = cfg.t0 + self.i * dt
            self.running = self.i < cfg._n_steps
        trace.steps = self.i
        trace.rhs_evals += 4
        if self.i == 1:
            trace.dt_min = trace.dt_max = dt
        elif dt < trace.dt_min:
            trace.dt_min = dt
        elif dt > trace.dt_max:
            trace.dt_max = dt
        return self.i % cfg.stride == 0 or not self.running

    def store(self, grid: SupportGrid) -> None:
        self.trace.times.append(self.t)
        self.trace.grids.append(grid)

    def end(self, reason: str, grid: SupportGrid) -> None:
        """End early at the last accepted state, stored unless it already is."""
        self.trace.reason = reason
        if self.trace.times[-1] < self.t:
            self.store(grid)


# The reason a row ends with when its step raises.
_REASONS = {NonConvex: "nonconvex", OriginOutside: "origin_outside"}


class _Batch:
    """The running rows of an ensemble and their flat checked state.

    The rows are laid out n=1 first; h, radii and K are as the layout holds
    them.  Per batch, not per step: the layout, the rows' laws, their
    safety * dx**2, and whether any row steps adaptively (else no step
    bound is needed).
    """

    def __init__(self, rows: list, layout: FlatLayout, h, radii, K):
        self.rows, self.layout, self.h, self.radii, self.K = rows, layout, h, radii, K
        self.law = FlatLaws([row.cfg.law for row in rows], layout.sizes)
        self.scale = np.array([row.scale for row in rows])
        self.adaptive = any(row.cfg.fixed_dt is None for row in rows)

    @classmethod
    def of(cls, rows: list, parts) -> "_Batch | None":
        """The batch of rows whose (values, radii, K) are parts, or None if no rows."""
        if not rows:
            return None
        layout = FlatLayout([(row.cfg.n, row.cfg.size, row.dx) for row in rows])
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
        return self.layout.grid(j, self.h, self.radii, self.K)

    def row(self, j: int) -> tuple:
        """Row j's (values, radii, K), as views."""
        return self.layout.row(j, self.h, self.radii, self.K)

    def keep(self, mask: list) -> "_Batch | None":
        """The batch of the rows where mask is true; None if none is."""
        if all(mask):
            return self
        kept = [j for j, k in enumerate(mask) if k]
        return _Batch.of([self.rows[j] for j in kept], [self.row(j) for j in kept])


def _run_rows(rows: list) -> list:
    """Step rows that share a law kind until each has ended."""
    traces = [row.trace for row in rows]
    rows = sorted((row for row in rows if row.running), key=lambda row: row.cfg.n)
    grids = [row.trace.grids[0] for row in rows]
    batch = _Batch.of(rows, [(grid.values, *grid.curvature()) for grid in grids])
    while batch is not None:
        if batch.adaptive:
            bounds = _dt_bound(batch.law, batch.layout, batch.radii, batch.K, batch.scale).tolist()
            planned = [row.plan(b) for row, b in zip(batch.rows, bounds)]
            if not all(planned):
                for j, ok in enumerate(planned):
                    if not ok:
                        batch.rows[j].end("dt_underflow", batch.grid(j))
                batch = batch.keep(planned)
                if batch is None:
                    break
        try:
            stepped = _rk4(batch.law, batch.layout, batch.h, batch.K, batch.dt())
            batch.h, batch.radii, batch.K = stepped
        except (NonConvex, OriginOutside) as exc:
            batch = _step_rows_alone(batch, exc)
            if batch is None:
                break
        for j, row in enumerate(batch.rows):
            if row.advance():
                row.store(batch.grid(j))
        batch = batch.keep([row.running for row in batch.rows])
    return traces


def _step_rows_alone(batch: _Batch, exc: Exception) -> _Batch | None:
    """After a batch's joint step raised exc, step each of its rows alone.

    The failed step counts as attempted by every row.  A batch of one row
    ends it with exc as its reason.  Otherwise a row whose own step fails
    ends with that failure as its reason, exactly where a solo run would;
    the batch of the other rows is returned stepped (None if none is
    left).
    """
    for row in batch.rows:
        row.trace.rhs_evals += 4
    if len(batch.rows) == 1:
        batch.rows[0].end(_REASONS[type(exc)], batch.grid(0))
        return None
    rows, results = [], []
    for j, row in enumerate(batch.rows):
        n, size, dx = batch.layout.rows[j]
        h, _, K = batch.row(j)
        law = FlatLaws([row.cfg.law], [size])
        try:
            results.append(_rk4(law, row_layout(n, size, dx), h, K, row.dt))
        except (NonConvex, OriginOutside) as own:
            row.trace.rhs_evals += 4
            row.end(_REASONS[type(own)], batch.grid(j))
        else:
            rows.append(row)
    return _Batch.of(rows, results)
