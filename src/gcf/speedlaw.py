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
identities remain genuine cross-checks; verify.speedlaw_suite runs them.
They take their domain check from the law's f, f1, f2 and f3, which raise
NonPositiveArgument where some x <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidSpeedLaw, NonPositiveArgument

POWER = "power"
EXPONENTIAL = "exp"


def _power(coef, expo, x):
    """coef * x**expo, a power law's derivative from a row of its table; unchecked."""
    return coef * np.power(x, expo)


def _power_or_exp(kind: str, coef, expo, x):
    """coef * x**expo for a power law, exp(x) for the exponential law; unchecked."""
    if kind == POWER:
        return _power(coef, expo, x)
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

    f, f1, f2 and f3 read one derivative table, formed once: the k-th
    derivative of a power law is coefs[k] * x**expos[k], with coefs
    (a, a*b, a*b*(b - 1), a*b*(b - 1)*(b - 2)) and expos (b, b - 1, b - 2,
    b - 3) for b = beta.  FlatLaws builds its columns from the same table.
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
        a, b = self.a, self.beta
        coefs = (a, a * b, a * b * (b - 1.0), a * b * (b - 1.0) * (b - 2.0))
        object.__setattr__(self, "coefs", coefs)
        object.__setattr__(self, "expos", (b, b - 1.0, b - 2.0, b - 3.0))

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
        return _power_or_exp(self.kind, self.coefs[0], self.expos[0], x)

    def f1(self, x):
        _check_positive(x)
        return _power_or_exp(self.kind, self.coefs[1], self.expos[1], x)

    def f2(self, x):
        _check_positive(x)
        return _power_or_exp(self.kind, self.coefs[2], self.expos[2], x)

    def f3(self, x):
        _check_positive(x)
        return _power_or_exp(self.kind, self.coefs[3], self.expos[3], x)


def _check_positive(x) -> None:
    # fmin skips NaN, so this raises exactly when some element is <= 0.
    x = np.asarray(x)
    if x.size and np.fmin.reduce(x, axis=None) <= 0.0:
        raise NonPositiveArgument("speed laws are defined for positive arguments only")


def require_one_kind(laws) -> None:
    """Raise InvalidSpeedLaw unless all laws are of one kind."""
    if len({law.kind for law in laws}) > 1:
        raise InvalidSpeedLaw("a flat batch needs laws of one kind")


class FlatLaws:
    """The laws of grids laid end to end, one law per grid, as f and f1 of
    flat arguments, and the law values an RK4 stage carries.

    laws[i] applies to the sizes[i] elements of grid i.  All laws must be
    of one kind.  The f and f1 rows of each law's table (SpeedLaw.coefs,
    SpeedLaw.expos) are per-element columns, also when every law is equal,
    so each element takes np.power's element-wise loop whatever its
    neighbours' laws.  f and f1 are SpeedLaw.f and f1 without the
    positivity check: a caller that has checked the curvature radii knows
    K is positive.  They are built once, so no call tests the law kind.

    stage and update are what flow's RK4 stages carry and how they update
    the support values h: h - c*f is update(h, c*stage(x)).  When every law
    is the expanding -x**beta (a power law with a = -1), stage is the one
    call np.power(x, beta), which is -f exactly, and update is np.add; else
    stage is f and update np.subtract.  Negating a product or a sum is
    exact, so h + c*(-f) is h - c*f bit for bit, and either way each row
    steps as it would alone.
    """

    def __init__(self, laws, sizes):
        require_one_kind(laws)
        self.kind = laws[0].kind
        # coefs[k] and expos[k]: the k-th derivative's column, for k = 0, 1
        table = np.array([law.coefs[:2] + law.expos[:2] for law in laws])
        a, a1, b, b1 = np.repeat(table.T, sizes, axis=1)
        self.coefs, self.expos = (a, a1), (b, b1)
        if self.kind == EXPONENTIAL:
            self.f = self.f1 = self.stage = np.exp
            self.update = np.subtract
        else:
            self.f, self.f1 = partial(_power, a, b), partial(_power, a1, b1)
            if all(law.a == -1.0 for law in laws):
                self.stage, self.update = (lambda x: np.power(x, b)), np.add
            else:
                self.stage, self.update = self.f, np.subtract


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
    x = np.asarray(x, dtype=float)
    f1, f2, f3 = law.f1(x), law.f2(x), law.f3(x)
    q = x * f2 / f1
    return q * q - q - x * x * f3 / f1


def beta_fn(law: SpeedLaw, x):
    """beta(x) = x f' - x f f''/f' - f."""
    x = np.asarray(x, dtype=float)
    f, f1, f2 = law.f(x), law.f1(x), law.f2(x)
    return x * f1 - x * f * f2 / f1 - f


def gamma_fn(law: SpeedLaw, x):
    """gamma(x) = (1 + x f''/f') * f/(x f') - 1."""
    x = np.asarray(x, dtype=float)
    f, f1, f2 = law.f(x), law.f1(x), law.f2(x)
    return (1.0 + x * f2 / f1) * f / (x * f1) - 1.0


def beta_fn_prime_fd(law: SpeedLaw, x, rel_step: float = 5e-6):
    """Central finite difference of beta at x, step rel_step*max(x, 1).

    Kept numeric on purpose: it makes the beta' = f*alpha/x identity a test
    that is independent of alpha's closed form.  The default step balances
    the h**2 truncation of exp-scale laws at x up to ~4 against roundoff.
    An x <= 0 raises NonPositiveArgument from beta at x - h < 0.
    """
    x = np.asarray(x, dtype=float)
    h = rel_step * np.maximum(x, 1.0)
    return (beta_fn(law, x + h) - beta_fn(law, x - h)) / (2.0 * h)
