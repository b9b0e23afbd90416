"""Central finite-difference stencils on the two grid topologies.

Periodic stencils serve the n=1 grid of normal angles.  Reflected stencils
serve the cell-centered n=2 polar grid, where smooth axisymmetric fields
extend evenly across the poles and fields odd under the mirror (anything
carrying a single polar derivative or a lone sin factor) extend oddly.

The 4th-order variants are the workhorses; the 2nd-order ones exist so the
verification oracles differentiate through an independent code path.
"""

from __future__ import annotations

import numpy as np


def _extend_periodic(u: np.ndarray) -> np.ndarray:
    # Two wrapped ghost cells per side: e[k + 2] = u[k], e[1] = u[-1], e[N + 2] = u[0].
    return np.concatenate((u[-2:], u, u[:2]))


def d1_periodic(u: np.ndarray, dx: float) -> np.ndarray:
    """4th-order first derivative on a periodic grid."""
    e = _extend_periodic(u)
    return (-e[4:] + 8.0 * e[3:-1] - 8.0 * e[1:-3] + e[:-4]) / (12.0 * dx)


def d2_periodic(u: np.ndarray, dx: float) -> np.ndarray:
    """4th-order second derivative on a periodic grid."""
    e = _extend_periodic(u)
    return (-e[4:] + 16.0 * e[3:-1] - 30.0 * u + 16.0 * e[1:-3] - e[:-4]) / (
        12.0 * dx * dx
    )


def d1_periodic_o2(u: np.ndarray, dx: float) -> np.ndarray:
    """2nd-order first derivative on a periodic grid."""
    e = _extend_periodic(u)
    return (e[3:-1] - e[1:-3]) / (2.0 * dx)


def d2_periodic_o2(u: np.ndarray, dx: float) -> np.ndarray:
    """2nd-order second derivative on a periodic grid."""
    e = _extend_periodic(u)
    return (e[3:-1] - 2.0 * u + e[1:-3]) / (dx * dx)


def _extend_reflect(u: np.ndarray, parity: str) -> np.ndarray:
    # Cell-centered mirror: ghost[-1-k] pairs with u[k], ghost[M-1+k] with u[M-k].
    if parity == "even":
        s = 1.0
    elif parity == "odd":
        s = -1.0
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    left = s * u[1::-1]
    right = s * u[-1:-3:-1]
    return np.concatenate([left, u, right])


def d1_reflect(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """4th-order first derivative on a cell-centered grid with pole reflection."""
    e = _extend_reflect(u, parity)
    return (-e[4:] + 8.0 * e[3:-1] - 8.0 * e[1:-3] + e[:-4]) / (12.0 * dx)


def d2_reflect(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """4th-order second derivative on a cell-centered grid with pole reflection."""
    e = _extend_reflect(u, parity)
    return (-e[4:] + 16.0 * e[3:-1] - 30.0 * e[2:-2] + 16.0 * e[1:-3] - e[:-4]) / (
        12.0 * dx * dx
    )


def d1_reflect_o2(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """2nd-order first derivative with pole reflection."""
    e = _extend_reflect(u, parity)
    return (e[3:-1] - e[1:-3]) / (2.0 * dx)


def d2_reflect_o2(u: np.ndarray, dx: float, parity: str = "even") -> np.ndarray:
    """2nd-order second derivative with pole reflection."""
    e = _extend_reflect(u, parity)
    return (e[3:-1] - 2.0 * e[2:-2] + e[1:-3]) / (dx * dx)
