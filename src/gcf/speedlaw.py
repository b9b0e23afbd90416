"""Admissible speed functions f(K) and their structural invariants.

Two law families are provided.  The power law f(x) = a*x**beta is the case
of interest: with a = -1 and beta = -b, 0 < b < 1/n, the flow speed -f(K)
equals K**(-b), the expanding negative-power Gauss-curvature flow.  The
exponential law f(x) = exp(x) is a deliberate control case: it is the
designated non-power witness for the converse direction of the power-law
characterization below.

Three auxiliary functions of the curvature argument drive the Harnack
analysis::

    alpha(x) = (x f''/f')**2 - x f''/f' - x**2 f'''/f'
    beta(x)  = x f' - x f f''/f' - f
    gamma(x) = (1 + x f''/f') * f/(x f') - 1

They vanish identically exactly for power laws (alpha for f' a power,
beta and gamma for f itself a power with a*b > 0), and satisfy the exact
cross identities gamma = -beta/(x f') and beta' = f*alpha/x for every
admissible law.  The three are computed from independent formulas so those
identities remain genuine cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpeedLaw, NonPositiveArgument

POWER = "power"
EXPONENTIAL = "exp"


@dataclass(frozen=True)
class SpeedLaw:
    """Speed function f with analytic derivatives up to third order.

    Attributes
    ----------
    kind : str
        ``"power"`` for f(x) = a*x**beta, ``"exp"`` for f(x) = exp(x).
    a, beta : float
        Power-law coefficient and exponent; ignored for the exponential law.
        A law made by stacked() carries them as (B, 1) columns instead.
    """

    kind: str
    a: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in (POWER, EXPONENTIAL):
            raise InvalidSpeedLaw(f"unknown speed-law kind {self.kind!r}")
        if self.kind == POWER:
            if not (np.isfinite(self.a).all() and np.isfinite(self.beta).all()):
                raise InvalidSpeedLaw("power-law parameters must be finite")
            if (np.multiply(self.a, self.beta) <= 0.0).any():
                raise InvalidSpeedLaw(
                    f"power law needs a*beta > 0 for f' > 0; got a={self.a}, beta={self.beta}"
                )
            # f1's coefficient and exponent, formed once rather than per call
            object.__setattr__(self, "_a_beta", self.a * self.beta)
            object.__setattr__(self, "_beta_1", self.beta - 1.0)

    @staticmethod
    def power(a: float, beta: float) -> "SpeedLaw":
        return SpeedLaw(POWER, a=a, beta=beta)

    @staticmethod
    def exponential() -> "SpeedLaw":
        return SpeedLaw(EXPONENTIAL)

    @staticmethod
    def stacked(laws) -> "SpeedLaw":
        """One law that evaluates laws[i] on row i of a (len(laws), N) argument.

        Equal laws give that law itself.  Power laws with different
        parameters give a power law whose a and beta are (len(laws), 1)
        columns, so each row is computed with its own law's arithmetic.
        """
        first = laws[0]
        if all(law == first for law in laws):
            return first
        if not all(law.is_power for law in laws):
            raise InvalidSpeedLaw("laws of different kinds cannot be stacked")
        return SpeedLaw.power(
            np.array([[law.a] for law in laws]), np.array([[law.beta] for law in laws])
        )

    @property
    def is_power(self) -> bool:
        return self.kind == POWER

    @property
    def paper_b(self) -> float | None:
        """Exponent b when the law is f = -K^(-b) (a = -1, beta < 0), else None.

        The flow's speed is then K**(-b).
        """
        if self.kind == POWER and self.a == -1.0 and self.beta < 0.0:
            return -self.beta
        return None

    def f(self, x):
        _check_positive(x)
        if self.kind == POWER:
            return self.a * np.power(x, self.beta)
        return np.exp(x)

    def f1(self, x):
        _check_positive(x)
        if self.kind == POWER:
            return self._a_beta * np.power(x, self._beta_1)
        return np.exp(x)

    def f2(self, x):
        _check_positive(x)
        if self.kind == POWER:
            b = self.beta
            return self.a * b * (b - 1.0) * np.power(x, b - 2.0)
        return np.exp(x)

    def f3(self, x):
        _check_positive(x)
        if self.kind == POWER:
            b = self.beta
            return self.a * b * (b - 1.0) * (b - 2.0) * np.power(x, b - 3.0)
        return np.exp(x)


def _check_positive(x) -> None:
    # fmin skips NaN, so this raises exactly when some element is <= 0.
    x = np.asarray(x)
    if x.size and np.fmin.reduce(x, axis=None) <= 0.0:
        raise NonPositiveArgument("speed laws are defined for positive arguments only")


def eval_derivs(law: SpeedLaw, x):
    """Return (f, f', f'', f''') of the law at x (scalar or array), analytically."""
    return law.f(x), law.f1(x), law.f2(x), law.f3(x)


def alpha_fn(law: SpeedLaw, x):
    """alpha(x) = (x f''/f')**2 - x f''/f' - x**2 f'''/f'."""
    _check_positive(x)
    x = np.asarray(x, dtype=float)
    f1, f2, f3 = law.f1(x), law.f2(x), law.f3(x)
    q = x * f2 / f1
    return q * q - q - x * x * f3 / f1


def beta_fn(law: SpeedLaw, x):
    """beta(x) = x f' - x f f''/f' - f."""
    _check_positive(x)
    x = np.asarray(x, dtype=float)
    f, f1, f2 = law.f(x), law.f1(x), law.f2(x)
    return x * f1 - x * f * f2 / f1 - f


def gamma_fn(law: SpeedLaw, x):
    """gamma(x) = (1 + x f''/f') * f/(x f') - 1."""
    _check_positive(x)
    x = np.asarray(x, dtype=float)
    f, f1, f2 = law.f(x), law.f1(x), law.f2(x)
    return (1.0 + x * f2 / f1) * f / (x * f1) - 1.0


def beta_fn_prime_fd(law: SpeedLaw, x, rel_step: float = 5e-6):
    """Central finite difference of beta at x, step rel_step*max(x, 1).

    Kept numeric on purpose: it makes the beta' = f*alpha/x identity a test
    that is independent of alpha's closed form.  The default step balances
    the h**2 truncation of exp-scale laws at x up to ~4 against roundoff.
    """
    _check_positive(x)
    x = np.asarray(x, dtype=float)
    h = rel_step * np.maximum(x, 1.0)
    return (beta_fn(law, x + h) - beta_fn(law, x - h)) / (2.0 * h)


@dataclass(frozen=True)
class PowerLawIdentityReport:
    """Residuals of the structural identities over a set of sample points."""

    points: tuple
    max_gamma_residual: float  # |gamma + beta/(x f')|
    max_beta_prime_residual: float  # |beta'_fd - f*alpha/x|
    max_alpha: float
    max_beta: float
    max_gamma: float


def check_power_law_identities(law: SpeedLaw, sample_points) -> PowerLawIdentityReport:
    """Evaluate the cross identities linking alpha, beta, gamma at each point.

    Reports the max residuals of gamma = -beta/(x f') and beta' = f*alpha/x
    (the latter with a finite-difference beta'), plus the max magnitudes of
    the three functions themselves, which vanish for power laws.
    """
    x = np.asarray(sample_points, dtype=float)
    _check_positive(x)
    f, f1 = law.f(x), law.f1(x)
    a_v = alpha_fn(law, x)
    b_v = beta_fn(law, x)
    g_v = gamma_fn(law, x)
    res_gamma = np.abs(g_v + b_v / (x * f1))
    res_bp = np.abs(beta_fn_prime_fd(law, x) - f * a_v / x)
    return PowerLawIdentityReport(
        points=tuple(float(v) for v in np.atleast_1d(x)),
        max_gamma_residual=float(np.max(res_gamma)),
        max_beta_prime_residual=float(np.max(res_bp)),
        max_alpha=float(np.max(np.abs(a_v))),
        max_beta=float(np.max(np.abs(b_v))),
        max_gamma=float(np.max(np.abs(g_v))),
    )
