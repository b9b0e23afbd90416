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
(geometry.FlatLayout) are differentiated on values extended by a gather
with ghost_index, with the same arithmetic again: each 4th-order stencil
is one np.correlate with D1_REVERSED or D2_REVERSED.  extend_periodic and
extend_reflect are the one ghost-cell rule: the stencils, ghost_index and
the neighbours of verify.hessian_oracle all read their ghost cells from them.
"""

from __future__ import annotations

import numpy as np


def extend_periodic(u: np.ndarray) -> np.ndarray:
    """u with two wrapped ghost cells per side, along the last axis:
    e[k + 2] = u[k], e[1] = u[-1], e[N + 2] = u[0]."""
    return np.concatenate((u[..., -2:], u, u[..., :2]), axis=-1)


def extend_reflect(u: np.ndarray, parity: str) -> np.ndarray:
    """u with two ghost cells per side, along the last axis, mirrored across
    the poles of a cell-centered grid: ghost[-1-k] pairs with u[k] and
    ghost[M-1+k] with u[M-k], negated for an "odd" parity."""
    left, right = u[..., 1::-1], u[..., -1:-3:-1]
    if parity == "odd":
        left, right = -left, -right
    elif parity != "even":
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return np.concatenate((left, u, right), axis=-1)


def ghost_index(size: int, periodic: bool) -> np.ndarray:
    """Indices into a grid of `size` nodes that gather its extended values.

    They are the node indices np.arange(size) extended as the values are:
    by extend_periodic, or by the even extend_reflect.  So
    u[ghost_index(size, True)] equals extend_periodic(u), and
    u[ghost_index(size, False)] equals extend_reflect(u, "even").
    """
    nodes = np.arange(size)
    return extend_periodic(nodes) if periodic else extend_reflect(nodes, "even")


# 4th-order stencils on values e extended by two ghost cells per side.  The
# rows of e are taken end to end, so that every output is one dot product
# over a contiguous window: the output at flat index k reads e.flat[k:k + 5],
# which lies in k's own row for the first N outputs of each row; the 4
# outputs per row that straddle two rows are computed and dropped.  The rows
# may differ in length, as in a flat layout of grids of several sizes; the
# output at flat index k is then divided by element k of an array div,
# formed per row.  One helper serves every shape of e: its e.size - 4 flat
# outputs are written into a buffer of e's shape, and the view that drops
# the last 4 entries along the last axis is returned.  For a 1-D e (one
# grid, or a flat layout) that view holds all e.size - 4 outputs,
# straddling ones included, from which the caller picks its nodes; for an
# (S, N+4) stack it is the (S, N) outputs of its rows.
#
# Each evaluation is one np.correlate, in "valid" mode, of the values in
# reversed order r = e[::-1] with the weights below.  Its output m is the dot
# product of r[m:m + 5] with the weights, and belongs to the flat output
# k = e.size - 5 - m; its terms, first to last, are those of the textbook
# form -e[k+4] + 16 e[k+3] - 30 e[k+2] + 16 e[k+1] - e[k], in that order.
# numpy adds them one rounded product at a time to a leading +0.0, so the
# bits are the textbook form's, except that an exact zero reads +0.0.  d1's
# 0 * e[k+2] term adds a zero, which leaves the sum unchanged (an infinite
# e[k+2] makes it NaN, where the textbook d1 skips that value).  numpy
# hands each window to cblas_ddot; a BLAS kernel that fused or reordered the
# five terms would change the bits, and a Hypothesis property in the tests
# checks the kernel that numpy dispatches to.  np.correlate copies a
# reversed view into a contiguous array first; geometry.FlatLayout gathers
# its values reversed, so it correlates them with these weights as they are.
D1_REVERSED = np.array((-1.0, 8.0, 0.0, -8.0, 1.0))
D2_REVERSED = np.array((-1.0, 16.0, -30.0, 16.0, -1.0))


def _correlate(weights, e, div):
    out = np.empty(e.shape)
    np.divide(np.correlate(e.reshape(-1)[::-1], weights, "valid")[::-1], div,
              out=out.reshape(-1)[:-4])
    return out[..., :-4]


def d1_extended(e: np.ndarray, div) -> np.ndarray:
    """4th-order first derivative of extended values e, divided by div = 12*dx.

    div is a float, or one divisor per flat output (e.size - 4 of them).
    Returns e.size - 4 flat outputs for a 1-D e, else the outputs as e's
    shape less 4 along the last axis.
    """
    return _correlate(D1_REVERSED, e, div)


def d2_extended(e: np.ndarray, div) -> np.ndarray:
    """4th-order second derivative of extended values e, divided by div = 12*dx*dx.

    div is a float, or one divisor per flat output, as in d1_extended.
    """
    return _correlate(D2_REVERSED, e, div)


def d1_periodic(u: np.ndarray, dx: float) -> np.ndarray:
    """4th-order first derivative on a periodic grid."""
    return d1_extended(extend_periodic(u), 12.0 * dx)


def d2_periodic(u: np.ndarray, dx: float) -> np.ndarray:
    """4th-order second derivative on a periodic grid."""
    return d2_extended(extend_periodic(u), 12.0 * dx * dx)


def d1_periodic_o2(u: np.ndarray, dx: float) -> np.ndarray:
    """2nd-order first derivative on a periodic grid."""
    e = extend_periodic(u)
    return (e[..., 3:-1] - e[..., 1:-3]) / (2.0 * dx)


def d2_periodic_o2(u: np.ndarray, dx: float) -> np.ndarray:
    """2nd-order second derivative on a periodic grid."""
    e = extend_periodic(u)
    return (e[..., 3:-1] - 2.0 * u + e[..., 1:-3]) / (dx * dx)


def d1_reflect(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """4th-order first derivative on a cell-centered grid with pole reflection."""
    return d1_extended(extend_reflect(u, parity), 12.0 * dx)


def d2_reflect(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """4th-order second derivative on a cell-centered grid with pole reflection."""
    return d2_extended(extend_reflect(u, parity), 12.0 * dx * dx)


def d1_reflect_o2(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """2nd-order first derivative with pole reflection."""
    e = extend_reflect(u, parity)
    return (e[..., 3:-1] - e[..., 1:-3]) / (2.0 * dx)


def d2_reflect_o2(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """2nd-order second derivative with pole reflection."""
    e = extend_reflect(u, parity)
    return (e[..., 3:-1] - 2.0 * e[..., 2:-2] + e[..., 1:-3]) / (dx * dx)
