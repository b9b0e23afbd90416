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


def _power_or_exp(kind: str, coef, expo, x):
    """coef * x**expo for a power law, exp(x) for the exponential law; unchecked."""
    if kind == POWER:
        return coef * np.power(x, expo)
    return np.exp(x)


@dataclass(frozen=True)
class SpeedLaw:
    """Speed function f with analytic derivatives up to third order.

    Attributes
    ----------
    kind : str
        ``"power"`` for f(x) = a*x**beta, ``"exp"`` for f(x) = exp(x).
    a, beta : float
        Power-law coefficient and exponent; ignored for the exponential law.
    """

    kind: str
    a: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in (POWER, EXPONENTIAL):
            raise InvalidSpeedLaw(f"unknown speed-law kind {self.kind!r}")
        if self.kind == POWER:
            if not (np.isfinite(self.a) and np.isfinite(self.beta)):
                raise InvalidSpeedLaw("power-law parameters must be finite")
            if self.a * self.beta <= 0.0:
                raise InvalidSpeedLaw(
                    f"power law needs a*beta > 0 for f' > 0; got a={self.a}, beta={self.beta}"
                )
        # f1's power-law coefficient and exponent, formed once rather than per call
        object.__setattr__(self, "_a_beta", self.a * self.beta)
        object.__setattr__(self, "_beta_1", self.beta - 1.0)

    @staticmethod
    def power(a: float, beta: float) -> "SpeedLaw":
        return SpeedLaw(POWER, a=a, beta=beta)

    @staticmethod
    def exponential() -> "SpeedLaw":
        return SpeedLaw(EXPONENTIAL)

    @property
    def is_power(self) -> bool:
        return self.kind == POWER

    def f(self, x):
        _check_positive(x)
        return _power_or_exp(self.kind, self.a, self.beta, x)

    def f1(self, x):
        _check_positive(x)
        return _power_or_exp(self.kind, self._a_beta, self._beta_1, x)

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


class FlatLaws:
    """The laws of grids laid end to end, one law per grid, as f and f1 of
    flat arguments.

    laws[i] applies to the sizes[i] elements of grid i.  All laws must be
    of one kind.  Power laws that differ give the parameters a, beta, a*beta
    and beta - 1 as per-element columns; equal laws keep that law's floats,
    because np.power's scalar fast paths (exponents 0.5, 2 and -1) can
    differ in the last bit from its element-wise loop.  f and f1 are
    SpeedLaw.f and f1 without the positivity check: a caller that has
    checked the curvature radii knows K is positive.
    """

    def __init__(self, laws, sizes):
        first = laws[0]
        if any(law.kind != first.kind for law in laws):
            raise InvalidSpeedLaw("a flat batch needs laws of one kind")
        self.kind = first.kind
        names = ("a", "beta", "_a_beta", "_beta_1")
        if all(law == first for law in laws):
            params = [getattr(first, name) for name in names]
        else:
            params = [np.repeat([getattr(law, name) for law in laws], sizes) for name in names]
        self.a, self.beta, self.a_beta, self.beta_1 = params

    def f(self, x):
        return _power_or_exp(self.kind, self.a, self.beta, x)

    def f1(self, x):
        return _power_or_exp(self.kind, self.a_beta, self.beta_1, x)


def theorem_hypotheses(law: SpeedLaw, n: int) -> bool:
    """Whether the Harnack trace bound applies to this law in dimension n."""
    if not law.is_power:
        return False
    if law.a > 0.0 and law.beta > 0.0:
        return True
    return law.a < 0.0 and -1.0 / n < law.beta < 0.0


def expanding_b(law: SpeedLaw, n: int) -> float | None:
    """Exponent b when the law is -K^(-b) with 0 < b < 1/n, else None.

    The flow's speed is then K**(-b).
    """
    if theorem_hypotheses(law, n) and law.a == -1.0:
        return -law.beta
    return None


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
