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

Runs are stepped as ensembles: the configs of one call that share
(n, size, law kind) are the rows of one (B, N) array, and every RK4 stage
updates all rows at once.  The arithmetic of each row is that of a solo
run, so a config's trace does not depend on the ensemble it ran in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, NonConvex, OriginOutside
from .geometry import (
    SupportGrid,
    fourier_grid,
    radii_and_K,
    require_admissible,
    round_grid,
    stack_grids,
)
from .speedlaw import SpeedLaw

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
        if not (self.t_end > self.t0 >= 0.0):
            raise InvalidConfig(f"need t_end > t0 >= 0, got t0={self.t0}, t_end={self.t_end}")
        if not (0.0 < self.safety <= 1.0):
            raise InvalidConfig(f"safety must lie in (0, 1], got {self.safety}")
        if self.stride < 1:
            raise InvalidConfig(f"stride must be >= 1, got {self.stride}")
        if self.fixed_dt is not None:
            if self.fixed_dt <= 0.0:
                raise InvalidConfig(f"fixed_dt must be positive, got {self.fixed_dt}")
            span = self.t_end - self.t0
            n_steps = max(1, round(span / self.fixed_dt))
            if not math.isclose(n_steps * self.fixed_dt, span, rel_tol=1e-9):
                raise InvalidConfig(
                    f"fixed_dt = {self.fixed_dt} does not divide the time span {span}"
                )
            object.__setattr__(self, "_n_steps", n_steps)
        if self.law.is_power and self.law.a < 0.0 and not (-1.0 / self.n < self.law.beta < 0.0):
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
    sizes, and are None while no step has been accepted.
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
    def stored_spacing(self) -> float | None:
        """Common spacing of stored times, or None if not uniform."""
        t = np.asarray(self.times)
        if t.size < 2:
            return None
        d = np.diff(t)
        if np.max(np.abs(d - d[0])) > 1e-9 * max(abs(d[0]), 1e-30):
            return None
        return float(d[0])


def _rk4(law: SpeedLaw, n: int, h: np.ndarray, K: np.ndarray, dx: float, dt) -> tuple:
    """One classical RK4 update of support values h along the last axis.

    K is the checked curvature of h.  h is one grid (N,) or a batch (B, N)
    of grids, with a scalar dt or a (B, 1) column of per-row steps.  Every
    stage derives the curvature from its stage values and raises NonConvex
    if one is lost.  Returns the new values with their checked (radii, K);
    new values that are not finite and positive raise OriginOutside, and
    a new state that is not strictly convex raises NonConvex.

    The stages carry the law values f rather than the rates -f: negating
    a product or a sum is exact, so h - c*f is bit for bit h + c*(-f).
    """
    half = 0.5 * dt
    f1 = law.f(K)
    f2 = law.f(radii_and_K(n, h - half * f1, dx)[1])
    f3 = law.f(radii_and_K(n, h - half * f2, dx)[1])
    f4 = law.f(radii_and_K(n, h - dt * f3, dx)[1])
    new = h - (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    require_admissible(new)
    return (new, *radii_and_K(n, new, dx))


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
    values, radii, K = _rk4(law, grid.n, grid.values, grid.curvature()[1], grid.spacing, dt)
    return SupportGrid.with_curvature(grid.n, values, radii, K)


def _dt_bound(law: SpeedLaw, n: int, radii: tuple, K: np.ndarray, scale):
    """scale / lambda with scale = safety * dx**2, lambda maximised along the last axis."""
    lam = law.f1(K) * K**2
    if n == 2:
        lam = lam * np.maximum(radii[0], radii[1])
    return scale / np.maximum.reduce(lam, axis=-1)


def stable_dt(grid: SupportGrid, law: SpeedLaw, safety: float = DEFAULT_SAFETY) -> float:
    """Explicit parabolic step bound safety * dx**2 / lambda.

    lambda bounds the linearized speed sensitivity to the curvature radii:
    |d(-f)/dr| = f'(K) * K**2 times the complementary radius for n=2.
    """
    dx = grid.spacing
    return float(_dt_bound(law, grid.n, *grid.curvature(), safety * dx * dx))


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

    Each ensemble (see ensembles()) holds its configs' support values as
    the rows of one (B, N) array.  Each row keeps its own law
    parameters, step (its fixed_dt, or the smaller of its own step bound
    and its remaining time), time, step count, stored states and
    termination reason.  A row that completes or ends early leaves the
    ensemble and the other rows run on.  Each row is computed with the
    arithmetic of a solo run, so every trace equals run(config) exactly.
    A law evaluated outside its domain raises, as it does in run().
    Returns the traces in the order of configs.
    """
    configs = list(configs)
    traces = [None] * len(configs)
    for members in ensembles(configs):
        for j, trace in zip(members, _run_rows([_Row(configs[j]) for j in members])):
            traces[j] = trace
    return traces


def ensembles(configs) -> list:
    """Indices of the configs that run_ensemble steps together, per ensemble.

    Configs share an ensemble when they share (n, size, law kind); the
    ensembles and their members keep the order of configs.
    """
    groups = {}
    for j, cfg in enumerate(configs):
        groups.setdefault((cfg.n, cfg.size, cfg.law.kind), []).append(j)
    return list(groups.values())


class _Row:
    """One config in an ensemble: its time, step count, next step and trace,
    and whether it still runs."""

    def __init__(self, cfg: FlowConfig):
        self.cfg = cfg
        grid = cfg.build_grid()
        self.trace = FlowTrace(n=cfg.n, law=cfg.law, times=[cfg.t0], grids=[grid])
        self.scale = cfg.safety * grid.spacing * grid.spacing  # the step bound's safety * dx**2
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


class _Batch:
    """The running rows of an ensemble and their (B, N) checked states.

    Per batch, not per step: the rows' stacked law, their safety * dx**2,
    and whether any row steps adaptively (else no step bound is needed).
    """

    def __init__(self, rows: list, h: np.ndarray, radii: tuple, K: np.ndarray):
        self.rows, self.h, self.radii, self.K = rows, h, radii, K
        if rows:
            self.law = SpeedLaw.stacked([row.cfg.law for row in rows])
            self.scale = np.array([row.scale for row in rows])
            self.adaptive = any(row.cfg.fixed_dt is None for row in rows)

    def dt(self):
        """The rows' planned steps: a float for one row, else a (B, 1) column."""
        if len(self.rows) == 1:
            return self.rows[0].dt
        return np.array([row.dt for row in self.rows])[:, None]

    def grid(self, j: int) -> SupportGrid:
        """Row j's state as a grid of its own, with its curvature kept."""
        return SupportGrid.with_curvature(
            self.rows[j].cfg.n,
            self.h[j].copy(),
            tuple(r[j].copy() for r in self.radii),
            self.K[j].copy(),
        )

    def keep(self, mask: list) -> "_Batch":
        if all(mask):
            return self
        m = np.asarray(mask, dtype=bool)
        rows = [row for row, k in zip(self.rows, mask) if k]
        return _Batch(rows, self.h[m], tuple(r[m] for r in self.radii), self.K[m])


def _run_rows(rows: list) -> list:
    """Step rows that share (n, size, law kind) until each has ended."""
    traces = [row.trace for row in rows]
    grids = [row.trace.grids[0] for row in rows]
    n, dx = grids[0].n, grids[0].spacing
    batch = _Batch(rows, *stack_grids(grids)).keep([row.running for row in rows])
    while batch.rows:
        if batch.adaptive:
            bounds = _dt_bound(batch.law, n, batch.radii, batch.K, batch.scale).tolist()
            planned = [row.plan(b) for row, b in zip(batch.rows, bounds)]
            if not all(planned):
                for j, ok in enumerate(planned):
                    if not ok:
                        batch.rows[j].end("dt_underflow", batch.grid(j))
                batch = batch.keep(planned)
                if not batch.rows:
                    break
        try:
            batch.h, batch.radii, batch.K = _rk4(batch.law, n, batch.h, batch.K, dx, batch.dt())
        except (NonConvex, OriginOutside):
            batch = _step_rows_alone(batch, n, dx)
        for j, row in enumerate(batch.rows):
            if row.advance():
                row.store(batch.grid(j))
        batch = batch.keep([row.running for row in batch.rows])
    return traces


def _step_rows_alone(batch: _Batch, n: int, dx: float) -> _Batch:
    """Step each row of a batch whose joint step failed on its own.

    A row whose step fails ends with that failure as its reason, exactly
    where a solo run would; the batch of the other rows is returned
    stepped.
    """
    results = []
    for j, row in enumerate(batch.rows):
        s = slice(j, j + 1)
        try:
            results.append(_rk4(row.cfg.law, n, batch.h[s], batch.K[s], dx, row.dt))
            continue
        except NonConvex:
            row.end("nonconvex", batch.grid(j))
        except OriginOutside:
            row.end("origin_outside", batch.grid(j))
        results.append(None)
    stepped = [r for r in results if r is not None]
    batch = batch.keep([r is not None for r in results])
    if stepped:
        h, radii, K = zip(*stepped)
        batch.h, batch.K = np.concatenate(h), np.concatenate(K)
        batch.radii = tuple(np.concatenate(r) for r in zip(*radii))
    return batch
