"""Central finite-difference stencils on the two grid topologies.

Periodic stencils serve the n=1 grid of normal angles.  Reflected stencils
serve the cell-centered n=2 polar grid, where smooth axisymmetric fields
extend evenly across the poles and fields odd under the mirror (anything
carrying a single polar derivative or a lone sin factor) extend oddly.

The 4th-order variants are the workhorses; the 2nd-order ones exist so the
verification oracles differentiate through an independent code path.

Every stencil works along the last axis, so a (B, N) array of B grids is
differentiated row by row with the same arithmetic as a single (N,) grid.
Grids of different sizes and topologies laid end to end in one flat array
are differentiated by d1_extended/d2_extended, on values extended by a
gather with ghost_index, with the same arithmetic again.
"""

from __future__ import annotations

import numpy as np


def _extend_periodic(u: np.ndarray) -> np.ndarray:
    # Two wrapped ghost cells per side: e[k + 2] = u[k], e[1] = u[-1], e[N + 2] = u[0].
    return np.concatenate((u[..., -2:], u, u[..., :2]), axis=-1)


def _extend_reflect(u: np.ndarray, parity: str) -> np.ndarray:
    # Cell-centered mirror: ghost[-1-k] pairs with u[k], ghost[M-1+k] with u[M-k].
    left, right = u[..., 1::-1], u[..., -1:-3:-1]
    if parity == "odd":
        left, right = -left, -right
    elif parity != "even":
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return np.concatenate((left, u, right), axis=-1)


def ghost_index(size: int, periodic: bool) -> np.ndarray:
    """Indices into a grid of `size` nodes that gather its extended values.

    u[ghost_index(size, True)] equals _extend_periodic(u), and
    u[ghost_index(size, False)] the even _extend_reflect(u, "even").
    """
    nodes = np.arange(size)
    if periodic:
        return np.concatenate((nodes[-2:], nodes, nodes[:2]))
    return np.concatenate((nodes[1::-1], nodes, nodes[-1:-3:-1]))


# 4th-order stencils on values e extended by two ghost cells per side.  The
# rows of e are taken end to end, so that every term is one contiguous slice:
# the output at flat index k reads e.flat[k:k + 5], which lies in k's own row
# for the first N outputs of each row; the 4 outputs per row that straddle
# two rows are computed and dropped.  The rows may differ in length, as in a
# flat layout of grids of several sizes; the output at flat index k is then
# divided by element k of an array div, formed per row.  The textbook forms
# lead with -e[4:]; starting from the next term instead subtracts it, the
# same floating-point operation, and the two terms of equal weight share one
# scaled copy of e.  The weights are 0-d arrays: a Python float operand is
# converted on every call.
_W8, _W16, _W30 = np.array(8.0), np.array(16.0), np.array(30.0)


def d1_extended(e: np.ndarray, div) -> np.ndarray:
    """4th-order first derivative of extended values e, divided by div = 12*dx.

    div is a float, or one divisor per flat output (e.size - 4 of them).
    Returns the outputs as e's shape less 4 along the last axis.
    """
    u, out = e.reshape(-1), np.empty(e.shape)
    s = _W8 * u
    d = np.subtract(s[3:-1], u[4:], out=out.reshape(-1)[:-4])
    d -= s[1:-3]
    d += u[:-4]
    d /= div
    return out[..., :-4]


def d2_extended(e: np.ndarray, div) -> np.ndarray:
    """4th-order second derivative of extended values e, divided by div = 12*dx*dx.

    div is a float, or one divisor per flat output, as in d1_extended.
    """
    u, out = e.reshape(-1), np.empty(e.shape)
    s = _W16 * u
    d = np.subtract(s[3:-1], u[4:], out=out.reshape(-1)[:-4])
    d -= _W30 * u[2:-2]
    d += s[1:-3]
    d -= u[:-4]
    d /= div
    return out[..., :-4]


def d1_periodic(u: np.ndarray, dx: float) -> np.ndarray:
    """4th-order first derivative on a periodic grid."""
    return d1_extended(_extend_periodic(u), 12.0 * dx)


def d2_periodic(u: np.ndarray, dx: float) -> np.ndarray:
    """4th-order second derivative on a periodic grid."""
    return d2_extended(_extend_periodic(u), 12.0 * dx * dx)


def d1_periodic_o2(u: np.ndarray, dx: float) -> np.ndarray:
    """2nd-order first derivative on a periodic grid."""
    e = _extend_periodic(u)
    return (e[..., 3:-1] - e[..., 1:-3]) / (2.0 * dx)


def d2_periodic_o2(u: np.ndarray, dx: float) -> np.ndarray:
    """2nd-order second derivative on a periodic grid."""
    e = _extend_periodic(u)
    return (e[..., 3:-1] - 2.0 * u + e[..., 1:-3]) / (dx * dx)


def d1_reflect(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """4th-order first derivative on a cell-centered grid with pole reflection."""
    return d1_extended(_extend_reflect(u, parity), 12.0 * dx)


def d2_reflect(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """4th-order second derivative on a cell-centered grid with pole reflection."""
    return d2_extended(_extend_reflect(u, parity), 12.0 * dx * dx)


def d1_reflect_o2(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """2nd-order first derivative with pole reflection."""
    e = _extend_reflect(u, parity)
    return (e[..., 3:-1] - e[..., 1:-3]) / (2.0 * dx)


def d2_reflect_o2(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """2nd-order second derivative with pole reflection."""
    e = _extend_reflect(u, parity)
    return (e[..., 3:-1] - 2.0 * e[..., 2:-2] + e[..., 1:-3]) / (dx * dx)
