"""Time integration of the support function under normal speed -f(K).

Under the outward-normal support parameterization the hypersurface flow
with normal velocity -f(K)*nu collapses to the scalar equation
dh/dt = -f(K(h)) on the fixed grid of normal directions.  For the
expanding negative-power law (a = -1, beta = -b) the speed is K**(-b).

Stepping is classical RK4 with an explicit parabolic step bound: each
right-hand-side evaluation re-derives the curvature from the stage values,
and any stage that loses strict convexity aborts the step.  The state a
step produces is checked the same way, once; that checked curvature is
kept on the grid and serves the next step bound and the next first stage.
Round initial data stays exactly round, so closed-form radius ODEs provide
oracles for the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, NonConvex, OriginOutside
from .geometry import SupportGrid, fourier_grid, radii_and_K, round_grid
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
    """Validated description of one flow run."""

    n: int
    size: int
    law: SpeedLaw
    shape: InitialShape
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
        if self.fixed_dt is not None and self.fixed_dt <= 0.0:
            raise InvalidConfig(f"fixed_dt must be positive, got {self.fixed_dt}")
        if self.law.is_power and self.law.a < 0.0 and not (-1.0 / self.n < self.law.beta < 0.0):
            raise InvalidConfig(
                f"expanding power law needs b < 1/n (and b > 0): "
                f"got b = {-self.law.beta} with n = {self.n}"
            )
        try:
            grid = self.shape.build(self.n, self.size)
            grid.curvature()
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
    """Stored states of one run and the reason it stopped."""

    n: int
    law: SpeedLaw
    times: list = field(default_factory=list)
    grids: list = field(default_factory=list)
    reason: str = "completed"

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


def _speed(law: SpeedLaw, n: int, h: np.ndarray, dx: float) -> np.ndarray:
    return -law.f(radii_and_K(n, h, dx)[1])


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
    n, h, dx = grid.n, grid.values, grid.spacing
    k1 = -law.f(grid.curvature()[1])
    k2 = _speed(law, n, h + 0.5 * dt * k1, dx)
    k3 = _speed(law, n, h + 0.5 * dt * k2, dx)
    k4 = _speed(law, n, h + dt * k3, dx)
    new = SupportGrid(n, h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    new.curvature()
    return new


def stable_dt(grid: SupportGrid, law: SpeedLaw, safety: float = DEFAULT_SAFETY) -> float:
    """Explicit parabolic step bound safety * dx**2 / lambda.

    lambda bounds the linearized speed sensitivity to the curvature radii:
    |d(-f)/dr| = f'(K) * K**2 times the complementary radius for n=2.
    """
    dx = grid.spacing
    radii, K = grid.curvature()
    lam = law.f1(K) * K**2
    if grid.n == 2:
        lam = lam * np.maximum(radii[0], radii[1])
    return safety * dx * dx / float(lam.max())


def run(config: FlowConfig) -> FlowTrace:
    """Integrate the flow from the initial shape at t0 to t_end.

    Steps adaptively with stable_dt unless fixed_dt is set.  Stores the
    initial state, every stride-th state, and the final state.  Loss of
    convexity, the origin leaving the body, or a dt underflow terminates
    early: the last accepted state is stored and the partial trace is
    returned with the reason recorded.
    """
    law, t0, t_end, fixed_dt = config.law, config.t0, config.t_end, config.fixed_dt
    if fixed_dt is not None:
        n_steps = max(1, round((t_end - t0) / fixed_dt))
        if not math.isclose(n_steps * fixed_dt, t_end - t0, rel_tol=1e-9):
            raise InvalidConfig(
                f"fixed_dt = {fixed_dt} does not divide the time span {t_end - t0}"
            )
    t_stop = t_end - 1e-14 * max(1.0, t_end)
    grid = config.build_grid()
    trace = FlowTrace(n=config.n, law=law, times=[t0], grids=[grid])
    t, i = t0, 0
    try:
        while (i < n_steps) if fixed_dt is not None else (t < t_stop):
            if fixed_dt is None:
                dt = stable_dt(grid, law, config.safety)
                if dt < DT_FLOOR:
                    trace.reason = "dt_underflow"
                    break
                dt = min(dt, t_end - t)
            else:
                dt = fixed_dt
            grid = step(grid, law, dt)
            i += 1
            if fixed_dt is None:
                t += dt
                last = t >= t_stop
            else:
                t = t0 + i * dt
                last = i == n_steps
            if i % config.stride == 0 or last:
                trace.times.append(t)
                trace.grids.append(grid)
    except NonConvex:
        trace.reason = "nonconvex"
    except OriginOutside:
        trace.reason = "origin_outside"
    if trace.reason != "completed" and trace.times[-1] < t:
        trace.times.append(t)
        trace.grids.append(grid)
    return trace
