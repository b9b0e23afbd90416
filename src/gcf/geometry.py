"""Support-function geometry of convex hypersurfaces.

A convex body is stored as its support function h sampled over normal
directions: equally spaced angles on the circle of normals for curves
(n=1), and cell-centered polar angles for axisymmetric surfaces (n=2).
Everything else (principal curvature radii, Gaussian curvature K, mean
curvature H, metric and second fundamental form in the normal-angle
parameterization, embedded positions and outward normals) derives from h.
derive_state forms the intrinsic fields; embedding forms the positions and
normals, which only the verification oracles read.

For n=1 the curvature radius is r = h'' + h, the metric is g = r**2, the
second fundamental form is r, and K = H = 1/r.  For n=2 the radii are
r1 = h_pp + h (meridian) and r2 = h_p*cot(phi) + h (azimuthal), with
metric diag(r1**2, (r2 sin(phi))**2), second fundamental form
diag(r1, r2 sin(phi)**2), K = 1/(r1 r2) and H = 1/r1 + 1/r2.

Differentiation policy: the support function and the radii fields are
differentiated with 4th-order stencils (periodic for n=1, even
reflection across the poles for n=2), while fields derived from the radii
(K, H, speed functions of K) carry exact chain-rule derivatives on top of
those stencil values.  Purely algebraic relations between derived
quantities then cancel to rounding error instead of truncation error,
which the verification suites rely on.  For n=2 the azimuthal radius
derivative uses its closed form r2' = (r1 - r2) cot(phi), so no stencil is
ever applied to a pole-singular expression.  The second-derivative bundle
(r2'', and through it the curvature second derivatives) divides the
meridian truncation error by sin(phi)**2, which costs two orders in the
two cells nearest each pole; those fields stay second-order accurate
there and fourth-order elsewhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import stencils
from .errors import NonConvex, OriginOutside

RADIUS_FLOOR = 1e-12


@dataclass(frozen=True)
class SupportGrid:
    """Discretized support function over normal directions.

    n = 1: values[i] = h(theta_i), theta_i = 2*pi*i/N on the normal circle.
    n = 2: values[j] = h(phi_j), phi_j = (j + 1/2)*pi/M, axisymmetric.

    A grid is a value: its support values are never changed in place, so
    its checked curvature is derived once and kept (see curvature()).
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("support values must be a 1-D array")
        m = v.size
        if m < 16:
            raise ValueError(f"grid needs at least 16 nodes, got {m}")
        if self.n == 1 and m % 2 != 0:
            raise ValueError(f"n=1 grid size must be even, got {m}")
        require_admissible(v)

    @classmethod
    def with_curvature(cls, n: int, values: np.ndarray, radii: tuple, K: np.ndarray):
        """A grid whose curvature (radii, K) was already derived and checked.

        The arrays are kept as curvature() would keep them, read-only.
        """
        return cls(n, values)._keep_curvature(radii, K)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def angles(self) -> np.ndarray:
        return self.node_angles(self.n, self.size)

    @staticmethod
    def node_angles(n: int, size: int) -> np.ndarray:
        """The angles theta_i or phi_j of the nodes of an (n, size) grid."""
        if n == 1:
            return 2.0 * np.pi * np.arange(size) / size
        return (np.arange(size) + 0.5) * np.pi / size

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.size if self.n == 1 else np.pi / self.size

    def curvature(self) -> tuple:
        """Checked (radii, K) of this grid, derived on first use and cached.

        A grid made by with_curvature() has its (radii, K) cached from the
        start.  The cached arrays are read-only, since every later user of
        this grid shares them.  Raises NonConvex as radii_and_K does.
        """
        if "_curvature" not in self.__dict__:
            self._keep_curvature(*radii_and_K(self.n, self.values, self.spacing))
        return self._curvature

    def _keep_curvature(self, radii: tuple, K: np.ndarray) -> "SupportGrid":
        # The one place a grid's checked (radii, K) is made read-only and kept.
        for a in (*radii, K):
            a.flags.writeable = False
        object.__setattr__(self, "_curvature", (radii, K))
        return self


def require_admissible(values: np.ndarray) -> None:
    """Raise OriginOutside unless all support values are finite and positive.

    A NaN makes the minimum and maximum NaN, so it fails as not finite.
    """
    values = np.asarray(values)
    if not values.size:
        return
    lo = np.minimum.reduce(values, axis=None)
    hi = np.maximum.reduce(values, axis=None)
    if not (-np.inf < lo and hi < np.inf):
        raise OriginOutside("support values must be finite")
    if not lo > 0.0:
        raise OriginOutside("support values must be strictly positive")


def round_grid(n: int, radius: float, size: int) -> SupportGrid:
    """Circle (n=1) or sphere (n=2) of the given radius."""
    return SupportGrid(n, np.full(size, float(radius)))


def fourier_grid(n: int, base_radius: float, modes, size: int) -> SupportGrid:
    """Round shape of radius R0 perturbed by cosine modes.

    h = R0 * (1 + sum_k amp_k * cos(k * angle)); modes is an iterable of
    (wavenumber, relative amplitude) pairs.  Cosines of the polar angle are
    polynomials in cos(phi), so the n=2 variants stay smooth at the poles.
    The modes are added to round_grid's values, so with no modes the
    values are round_grid's, bit for bit.
    """
    g = round_grid(n, base_radius, size)
    ang, h = g.angles, g.values
    for k, amp in modes:
        h = h + base_radius * amp * np.cos(int(k) * ang)
    return SupportGrid(n, h)


@functools.lru_cache(maxsize=32)
def _polar_cot(size: int) -> np.ndarray:
    phi = SupportGrid.node_angles(2, size)
    cot = np.cos(phi) / np.sin(phi)
    cot.flags.writeable = False
    return cot


def radii_and_K(n: int, h: np.ndarray, dx: float) -> tuple:
    """Principal curvature radii and Gauss curvature of one grid's values h.

    Returns ((r,), 1/r) with r = h'' + h for n=1, and ((r1, r2), 1/(r1 r2))
    with r1 = h_pp + h, r2 = h_p cot(phi) + h for n=2; the radii are views,
    through FlatLayout.row_radii, of the one flat array that
    FlatLayout.curvature writes.  Raises NonConvex if a radius is not finite
    or does not exceed RADIUS_FLOOR.  This is the checked one-grid case of
    FlatLayout.curvature, the only place the radii and K are formed from h;
    SupportGrid.curvature() calls it on grids whose curvature was not kept.
    K is formed before the check, so a radius that fails it may divide by
    zero: that K is discarded with the exception, and numpy's divide and
    invalid warnings are off while K is formed.
    """
    layout = row_layout(n, h.size, dx)
    r = np.empty(layout.radii_size)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = layout.curvature(h, r)
    require_convex(r)
    return layout.row_radii(0, r), K


def _as_slice(index: np.ndarray):
    # A descending run of consecutive indices picks a view; any other index
    # array a copy.
    first, count = int(index[0]), index.size
    if np.array_equal(index, np.arange(first, first - count, -1)):
        return slice(first, first - count if first >= count else None, -1)
    return index


class FlatLayout:
    """Support grids of any (n, size) laid end to end in one flat array.

    rows holds each grid's (n, size, dx), the n=1 grids first, so that the
    n=2 grids form one contiguous tail of nodes from `tail` on.  A flat
    state (h, r, K) is three flat arrays: the values h and K, one element
    per node, and the radii r, radii_size elements (r1 of every node, then
    r2 of the tail nodes).  row_radii() is the one rule for where a row's
    radii lie in r; the (r1,) or (r1, r2) tuples of a SupportGrid exist only
    per row, through row(), grid() and join().  curvature() is the one
    derivation of a flat state's radii and K from its values.  It gathers
    every grid's values with its ghost cells in reversed order, with one
    precomputed index, and runs each 4th-order stencil over all grids at
    once as one np.correlate with the reversed weights of stencils (the n=2
    tail's d1 over the first part of the same reversed values).  It picks
    each node's output back, which lies at a reversed position, and divides
    it by its grid's 12 dx**2 (or 12 dx), into the caller's radii buffer; K
    is formed from those radii in one pass.  Each output sums the textbook
    stencil's terms in the textbook order (see stencils), so every grid gets
    the bits it gets alone.
    """

    def __init__(self, rows):
        self.rows = rows = tuple(rows)
        ns = [n for n, _, _ in rows]
        if ns != sorted(ns):
            raise ValueError("the n=1 grids of a flat layout come first")
        self.sizes = sizes = np.array([size for _, size, _ in rows])
        ends = np.cumsum(sizes)
        self.starts, self.size = ends - sizes, int(ends[-1])  # first node of each grid; nodes
        first_tail = ns.index(2) if 2 in ns else len(rows)
        self.tail = int(ends[first_tail - 1]) if first_tail else 0
        # the flat radii: r1 of every node, then r2 of the tail nodes
        self.radii_size = 2 * self.size - self.tail
        # Extended rows are size + 4 long; their outputs at their own first
        # size places are the nodes' derivatives.  Gathered in reversed
        # order, the output at flat place k of L extended values is the
        # correlate's output L - 5 - k.
        ext = sizes + 4
        ext_starts = np.cumsum(ext) - ext
        ghosts = np.concatenate([
            stencils.ghost_index(size, n == 1) + int(start)
            for (n, size, _), start in zip(rows, self.starts)
        ])
        self.ghosts = ghosts[::-1].copy()
        pick = np.concatenate([np.arange(size) + int(es) for size, es in zip(sizes, ext_starts)])
        self.pick = _as_slice(ghosts.size - 5 - pick)
        self.div2 = np.repeat([12.0 * dx * dx for _, _, dx in rows], sizes)
        tail_rows = rows[first_tail:]
        if tail_rows:
            # the tail's extended values, the first tail_ext of the reversed ones
            self.tail_ext = int(ghosts.size - ext_starts[first_tail])
            self.pick_tail = _as_slice(ghosts.size - 5 - pick[self.tail:])
            self.div1 = np.repeat([12.0 * dx for _, _, dx in tail_rows], sizes[first_tail:])
            self.cot = np.concatenate([_polar_cot(size) for _, size, _ in tail_rows])

    def curvature(self, h: np.ndarray, out: np.ndarray) -> np.ndarray:
        """K of the flat values h, with their flat radii written into out;
        unchecked.  K is 1/r1 on the n=1 nodes and 1/(r1 r2) on the tail."""
        size, tail = self.size, self.tail
        e = h[self.ghosts]
        r1 = np.divide(np.correlate(e, stencils.D2_REVERSED, "valid")[self.pick], self.div2,
                       out[:size])
        r1 += h
        if tail == size:
            return 1.0 / r1
        r2 = np.divide(np.correlate(e[:self.tail_ext], stencils.D1_REVERSED, "valid")
                       [self.pick_tail], self.div1, out[size:])
        r2 *= self.cot
        r2 += h[tail:]
        den = r1.copy()
        den[tail:] *= r2
        return np.divide(1.0, den, den)

    def join(self, parts) -> tuple:
        """(h, r, K) of the grids' (values, radii, K), one part per row, with
        the flat radii r as curvature() writes them: every row's r1, then
        the r2 of the tail's rows."""
        h, radii, K = zip(*parts)
        r = np.concatenate([a[0] for a in radii] + [a[1] for a in radii if len(a) == 2])
        return np.concatenate(h), r, np.concatenate(K)

    def row(self, j: int, h: np.ndarray, r: np.ndarray, K: np.ndarray) -> tuple:
        """Row j's (values, radii, K) in a flat state (h, r, K), as views."""
        start = int(self.starts[j])
        nodes = slice(start, start + int(self.sizes[j]))
        return h[nodes], self.row_radii(j, r), K[nodes]

    def row_radii(self, j: int, r: np.ndarray) -> tuple:
        """Row j's radii in flat radii r, along r's last axis, as views: (r1,),
        or (r1, r2) for an n=2 row.  The one rule for where a row's radii lie."""
        start = int(self.starts[j])
        stop = start + int(self.sizes[j])
        if self.rows[j][0] == 1:
            return (r[..., start:stop],)
        shift = self.size - self.tail
        return r[..., start:stop], r[..., start + shift:stop + shift]

    def grid(self, j: int, h: np.ndarray, r: np.ndarray, K: np.ndarray) -> SupportGrid:
        """Row j of a flat state (h, r, K) as a grid of its own, with its
        curvature kept."""
        values, radii, K = self.row(j, h, r, K)
        return SupportGrid.with_curvature(
            self.rows[j][0], values.copy(), tuple(a.copy() for a in radii), K.copy()
        )


@functools.lru_cache(maxsize=64)
def row_layout(n: int, size: int, dx: float) -> FlatLayout:
    """The flat layout of one grid."""
    return FlatLayout(((n, size, dx),))


@dataclass(frozen=True)
class GeometryState:
    """All pointwise geometry derived from one support grid, or a stack.

    Radii, curvatures and the chain-rule derivative bundle
    (first angular derivatives of the radii, K and H, and the second one of
    K) used by downstream fields.  For n=1, r2 and the azimuthal entries are None.
    A stacked state (see derive_state) holds S grids as (S, N) rows; d1,
    d2, h_norm_sq and box_op work along the last axis, so they serve both.
    """

    n: int
    angles: np.ndarray
    dx: float
    r1: np.ndarray
    r2: np.ndarray | None
    r1p: np.ndarray
    r2p: np.ndarray | None
    K: np.ndarray
    Kp: np.ndarray
    Kpp: np.ndarray
    H: np.ndarray
    Hp: np.ndarray
    Gamma: np.ndarray  # Christoffel of the meridian/angular coordinate
    sinphi: np.ndarray | None
    cosphi: np.ndarray | None
    cot: np.ndarray | None

    def d1(self, u):
        return stencils.d1(u, self.dx, self.n == 1)

    def d2(self, u):
        return stencils.d2(u, self.dx, self.n == 1)


def stack_grids(grids) -> tuple:
    """(radii, K) of grids of one (n, size), stacked as (S, N) rows.

    They are each grid's checked curvature(), so nothing is derived again
    for grids that already hold it; the support values are not stacked.
    """
    first = grids[0]
    if any((g.n, g.size) != (first.n, first.size) for g in grids):
        raise ValueError("stacked grids must share their dimension and size")
    radii, K = zip(*(g.curvature() for g in grids))
    return tuple(np.stack(r) for r in zip(*radii)), np.stack(K)


def mean_curvature(radii: tuple) -> np.ndarray:
    """H = the sum of 1/r over the radii: 1/r for n=1, 1/r1 + 1/r2 for n=2.

    At n=1 this is K bit for bit, since K is formed as 1.0 / r there.
    """
    return sum(1.0 / r for r in radii)


def derive_state(grid) -> GeometryState:
    """Differentiate a support grid into its full geometry.

    grid is one SupportGrid, or a sequence of S grids of one (n, size).
    A sequence gives one stacked state: every per-node field is an (S, N)
    array whose row s is that of derive_state(grid[s]), bit for bit; angles
    and the polar factors, which depend on the node alone, stay (N,).

    Raises NonConvex if any curvature radius falls below the strict
    positivity floor, OriginOutside if any support value is non-positive
    (already enforced by the grid itself).  The radii and K are the grids'
    cached curvature().  One body serves both n and both shapes: r1p and
    r1pp come from the stencils on the grid's topology (periodic for n=1,
    reflected for n=2); only Kp, Kpp, H and Hp are formed per n.
    """
    if isinstance(grid, SupportGrid):
        first = grid
        radii, K = grid.curvature()
    else:
        first = grid[0]
        radii, K = stack_grids(grid)
    n, dx, ang = first.n, first.spacing, first.angles
    r1, periodic = radii[0], n == 1
    r1p = stencils.d1(r1, dx, periodic)
    r1pp = stencils.d2(r1, dx, periodic)

    if n == 1:
        r2 = r2p = sin_p = cos_p = cot = None
        Kp = -r1p / r1**2
        Kpp = -r1pp / r1**2 + 2.0 * r1p**2 / r1**3
        # H is mean_curvature(radii) bit for bit, K being 1.0 / r1; the two
        # fields share one array, which nothing writes in place
        H, Hp = K, Kp
    else:
        r2 = radii[1]
        sin_p, cos_p = np.sin(ang), np.cos(ang)
        cot = _polar_cot(first.size)
        # Closed forms below keep every pole-singular factor analytic.
        r2p = (r1 - r2) * cot
        r2pp = (r1p - r2p) * cot - (r1 - r2) / sin_p**2
        L1 = r1p / r1 + r2p / r2
        Kp = -K * L1
        Kpp = -Kp * L1 - K * (r1pp / r1 - (r1p / r1) ** 2 + r2pp / r2 - (r2p / r2) ** 2)
        H, Hp = mean_curvature(radii), -r1p / r1**2 - r2p / r2**2
    return GeometryState(
        n=n, angles=ang, dx=dx,
        r1=r1, r2=r2, r1p=r1p, r2p=r2p,
        K=K, Kp=Kp, Kpp=Kpp, H=H, Hp=Hp, Gamma=r1p / r1,
        sinphi=sin_p, cosphi=cos_p, cot=cot,
    )


def embedding(grid: SupportGrid) -> tuple:
    """(positions, normals) of the hypersurface of one support grid, each (N, 2).

    n=1: points of the plane curve, F = h*nu + h'*tau, and the outward unit
    normals.  n=2: meridian-plane points (distance from the axis, height)
    and the normal's meridian components (sin(phi), cos(phi)).  h' comes
    from the 4th-order stencil on the grid's topology.
    """
    h, ang = grid.values, grid.angles
    hp = stencils.d1(h, grid.spacing, grid.n == 1)
    if grid.n == 1:
        cos_t, sin_t = np.cos(ang), np.sin(ang)
        normals = np.stack([cos_t, sin_t], axis=-1)
        tangents = np.stack([-sin_t, cos_t], axis=-1)
        return h[:, None] * normals + hp[:, None] * tangents, normals
    sin_p, cos_p = np.sin(ang), np.cos(ang)
    rho = h * sin_p + hp * cos_p
    z = h * cos_p - hp * sin_p
    return np.stack([rho, z], axis=-1), np.stack([sin_p, cos_p], axis=-1)


def require_convex(radii: np.ndarray) -> None:
    """Raise NonConvex unless all radii are finite and above RADIUS_FLOOR.

    A NaN makes the minimum NaN, so it fails too.
    """
    radii = np.asarray(radii)
    if not radii.size:
        return
    lo = np.minimum.reduce(radii, axis=None)
    if not (lo > RADIUS_FLOOR and np.maximum.reduce(radii, axis=None) < np.inf):
        raise NonConvex(f"curvature radius dropped to {float(lo):.3e} (floor {RADIUS_FLOOR:g})")


def h_norm_sq(state: GeometryState, du: np.ndarray) -> np.ndarray:
    """Squared gradient in the inverse-second-fundamental-form norm, from
    the field's angular derivative du: (du)**2 / r1 for n=1 and n=2."""
    return du * du / state.r1


def h_trace(state: GeometryState, hess: np.ndarray, du: np.ndarray) -> np.ndarray:
    """A field's covariant Hessian contracted with the inverse second
    fundamental form, from its meridian component hess and its angular
    derivative du: hess/r1, plus cot*du/r1 from the azimuthal direction at n=2."""
    if state.n == 1:
        return hess / state.r1
    return hess / state.r1 + state.cot * du / state.r1


def box_op(state: GeometryState, u: np.ndarray) -> np.ndarray:
    """Covariant Hessian of u contracted with the inverse second fundamental form.

    Diagonal in the principal frame: sum_i (Hess u)(e_i, e_i) * r_i.
    """
    du = state.d1(u)
    ddu = state.d2(u)
    return h_trace(state, ddu - state.Gamma * du, du)


def laplace_beltrami(state: GeometryState, u: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator of the induced metric on a scalar field."""
    du = state.d1(u)
    ddu = state.d2(u)
    hess_mer = ddu - state.Gamma * du
    if state.n == 1:
        return hess_mer / state.r1**2
    return (hess_mer + (state.r1 / state.r2) * state.cot * du) / state.r1**2
