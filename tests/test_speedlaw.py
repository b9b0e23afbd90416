import math

import numpy as np
import pytest

from gcf import speedlaw
from gcf.errors import InvalidSpeedLaw, NonPositiveArgument
from gcf.speedlaw import (
    FlatLaws,
    SpeedLaw,
    alpha_fn,
    beta_fn,
    beta_fn_prime_fd,
    expanding_b,
    gamma_fn,
)

POINTS = (0.5, 1.0, 2.0, 4.0)


def test_eval_derivs_negative_half_power():
    # direct differentiation of -x^(-1/2) at x=4
    law = SpeedLaw.power(-1.0, -0.5)
    f, f1, f2, f3 = law.f(4.0), law.f1(4.0), law.f2(4.0), law.f3(4.0)
    assert f == pytest.approx(-0.5, abs=1e-15)
    assert f1 == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert f2 == pytest.approx(-3.0 / 128.0, abs=1e-15)
    assert f3 == pytest.approx(15.0 / 1024.0, abs=1e-15)


def test_eval_derivs_identity_law():
    law = SpeedLaw.power(1.0, 1.0)
    f, f1, f2, f3 = law.f(7.0), law.f1(7.0), law.f2(7.0), law.f3(7.0)
    assert (f, f1, f2, f3) == (7.0, 1.0, 0.0, 0.0)


def test_eval_derivs_exponential():
    law = SpeedLaw.exponential()
    for v in (law.f(0.5), law.f1(0.5), law.f2(0.5), law.f3(0.5)):
        assert v == pytest.approx(math.exp(0.5), rel=1e-15)


def test_eval_derivs_matches_numeric_differentiation():
    # central differences of f itself as an independent oracle
    for law in (SpeedLaw.power(-1.0, -0.5), SpeedLaw.power(2.0, 0.75), SpeedLaw.exponential()):
        x, h = 1.7, 1e-4
        f1, f2 = law.f1(x), law.f2(x)
        fd1 = (law.f(x + h) - law.f(x - h)) / (2 * h)
        fd2 = (law.f(x + h) - 2 * law.f(x) + law.f(x - h)) / h**2
        assert f1 == pytest.approx(fd1, rel=1e-7)
        assert f2 == pytest.approx(fd2, rel=1e-5)


@pytest.mark.parametrize(
    "op", [SpeedLaw.f, SpeedLaw.f1, SpeedLaw.f2, SpeedLaw.f3, alpha_fn, beta_fn, gamma_fn,
           beta_fn_prime_fd]
)
def test_nonpositive_argument_rejected(op):
    law = SpeedLaw.power(-1.0, -0.5)
    with pytest.raises(NonPositiveArgument):
        op(law, 0.0)
    with pytest.raises(NonPositiveArgument):
        op(law, -1.0)


@pytest.mark.parametrize("a,beta", [(1.0, -1.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
def test_construction_requires_increasing_f(a, beta):
    with pytest.raises(InvalidSpeedLaw):
        SpeedLaw.power(a, beta)


@pytest.mark.parametrize(
    "a,beta", [(-1.0, -0.5), (-1.0, -0.2), (1.0, 2.0), (2.0, 0.5), (1.0, 1.0)]
)
def test_power_laws_have_vanishing_structure_functions(a, beta):
    law = SpeedLaw.power(a, beta)
    x = np.asarray(POINTS)
    assert np.max(np.abs(alpha_fn(law, x))) <= 1e-12
    assert np.max(np.abs(beta_fn(law, x))) <= 1e-12
    assert np.max(np.abs(gamma_fn(law, x))) <= 1e-12


def test_exponential_structure_function_values():
    # for f = e^x: alpha = -x, beta = -e^x, gamma = 1/x
    law = SpeedLaw.exponential()
    assert alpha_fn(law, 2.0) == pytest.approx(-2.0, abs=1e-12)
    assert beta_fn(law, 1.0) == pytest.approx(-math.e, rel=1e-14)
    assert gamma_fn(law, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("law", [SpeedLaw.power(-1.0, -0.5), SpeedLaw.exponential()])
def test_gamma_cross_identity(law):
    x = np.asarray(POINTS)
    lhs = gamma_fn(law, x)
    rhs = -beta_fn(law, x) / (x * law.f1(x))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_beta_prime_identity_exponential():
    # analytic beta' = -e^x must match f*alpha/x through the FD route
    law = SpeedLaw.exponential()
    x = np.asarray(POINTS)
    fd = beta_fn_prime_fd(law, x)
    assert np.max(np.abs(fd - (-np.exp(x)))) <= 1e-8
    assert np.max(np.abs(fd - law.f(x) * alpha_fn(law, x) / x)) <= 1e-8


def test_beta_prime_fd_second_order_in_step(monkeypatch):
    # truncation of the central difference is h^2 * |beta'''| / 6
    law = SpeedLaw.exponential()
    x = 2.0
    errs = []
    for step in (4e-4, 2e-4, 1e-4):
        monkeypatch.setattr(speedlaw, "BETA_FD_REL_STEP", step / max(x, 1.0))
        fd = beta_fn_prime_fd(law, x)
        errs.append(abs(fd - (-math.exp(x))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def _cross_residuals(law, x):
    """Largest |gamma + beta/(x f')| and |beta'_fd - f*alpha/x| over x."""
    res_gamma = np.abs(gamma_fn(law, x) + beta_fn(law, x) / (x * law.f1(x)))
    res_bp = np.abs(beta_fn_prime_fd(law, x) - law.f(x) * alpha_fn(law, x) / x)
    return np.max(res_gamma), np.max(res_bp)


def test_identity_report_power_law():
    law, x = SpeedLaw.power(-1.0, -0.5), np.array(POINTS)
    assert np.max(np.abs(alpha_fn(law, x))) <= 1e-12
    assert np.max(np.abs(beta_fn(law, x))) <= 1e-12
    assert np.max(np.abs(gamma_fn(law, x))) <= 1e-12
    res_gamma, res_bp = _cross_residuals(law, x)
    assert res_gamma <= 1e-12
    # the FD beta' residual is rounding noise amplified by the step
    assert res_bp <= 1e-9


def test_identity_report_exponential():
    law, x = SpeedLaw.exponential(), np.array((0.5, 1.0, 2.0))
    res_gamma, res_bp = _cross_residuals(law, x)
    assert res_gamma <= 1e-8
    assert res_bp <= 1e-8
    assert np.max(np.abs(beta_fn(law, x))) > 1.0  # genuinely non-power control law


def test_quadratic_power_law_alpha_beta_vanish_exactly_at_one():
    law = SpeedLaw.power(1.0, 2.0)
    assert abs(float(alpha_fn(law, 1.0))) <= 1e-15
    assert abs(float(beta_fn(law, 1.0))) <= 1e-15


def test_stacked_law_evaluates_each_row_with_its_own_law():
    # FlatLaws: rows of different sizes laid end to end, each with its own law
    laws = [SpeedLaw.power(-1.0, -0.3), SpeedLaw.power(1.0, 1.7), SpeedLaw.power(-1.0, -0.45)]
    sizes = [64, 32, 48]
    x = np.random.default_rng(0).uniform(0.1, 5.0, sum(sizes))
    rows = np.split(np.arange(x.size), np.cumsum(sizes)[:-1])
    flat = FlatLaws(laws, sizes)
    for name in ("f", "f1"):
        got = getattr(flat, name)(x)
        for law, nodes in zip(laws, rows):
            assert np.array_equal(got[nodes], getattr(law, name)(x[nodes]))
    exp = FlatLaws([SpeedLaw.exponential()] * 2, [32, 32])
    assert np.array_equal(exp.f1(x[:64]), np.exp(x[:64]))
    with pytest.raises(InvalidSpeedLaw):
        FlatLaws([laws[0], SpeedLaw.exponential()], [32, 32])
    # the flat laws leave out the check that SpeedLaw.f makes
    bad = np.where(np.arange(x.size) == 5, 0.0, x)
    with pytest.raises(NonPositiveArgument):
        laws[0].f(bad[:64])
    with np.errstate(divide="ignore"):
        assert np.isinf(flat.f(bad)[5])


@pytest.mark.parametrize("laws,folded", [
    ([SpeedLaw.power(-1.0, -0.3)], True),
    ([SpeedLaw.power(-1.0, -0.3), SpeedLaw.power(-1.0, -0.45)], True),
    ([SpeedLaw.power(-1.0, -0.3), SpeedLaw.power(-2.0, -0.3)], False),
    ([SpeedLaw.power(-0.37, -0.3)], False),
    ([SpeedLaw.power(1.0, 1.7)], False),
    ([SpeedLaw.power(-1.0, -0.3), SpeedLaw.power(1.0, 1.7)], False),
    ([SpeedLaw.exponential()] * 2, False),
])
def test_flat_laws_carry_the_rate_only_when_every_law_is_expanding(laws, folded):
    # stage is -f, bit for bit, and update adds, exactly when every law is
    # -x**beta; else stage is f and update subtracts
    sizes = [16 + 8 * i for i in range(len(laws))]
    flat = FlatLaws(laws, sizes)
    x = np.random.default_rng(2).uniform(0.1, 5.0, sum(sizes))
    assert flat.update is (np.add if folded else np.subtract)
    want = -flat.f(x) if folded else flat.f(x)
    assert flat.stage(x).tobytes() == want.tobytes()


# beta 0.5 and 2 are f exponents, and beta - 1 = 0.5 and 2 f1 exponents, for
# which np.power has a scalar path besides its element-wise loop
@pytest.mark.parametrize("beta", [0.5, 1.5, 2.0, 3.0, 1.3])
def test_flat_law_row_does_not_depend_on_its_neighbours(beta):
    law = SpeedLaw.power(1.0, beta)
    x = np.random.default_rng(1).uniform(0.1, 5.0, 3 * 256)
    row = slice(256, 512)
    same = FlatLaws([law] * 3, [256] * 3)
    mixed = FlatLaws([SpeedLaw.power(1.0, 1.7), law, SpeedLaw.power(2.0, 0.7)], [256] * 3)
    alone = FlatLaws([law], [256])
    for name in ("f", "f1"):
        want = getattr(mixed, name)(x)[row]
        assert np.array_equal(getattr(same, name)(x)[row], want)
        assert np.array_equal(getattr(alone, name)(x[row]), want)


@pytest.mark.parametrize("a,b", [(-1.0, -0.3), (-1.0, -0.5), (1.0, 0.5), (1.0, 2.0), (2.5, 3.0),
                                 (0.7, 1.3)])
def test_derivative_table_equals_the_textbook_expressions(a, b):
    law = SpeedLaw.power(a, b)

    def textbook(x):
        return (
            a * np.power(x, b),
            a * b * np.power(x, b - 1.0),
            a * b * (b - 1.0) * np.power(x, b - 2.0),
            a * b * (b - 1.0) * (b - 2.0) * np.power(x, b - 3.0),
        )

    x = np.random.default_rng(2).uniform(0.1, 5.0, 257)
    for name, want, want_at_1_7 in zip(("f", "f1", "f2", "f3"), textbook(x), textbook(1.7)):
        assert np.array_equal(getattr(law, name)(x), want)
        assert getattr(law, name)(1.7) == want_at_1_7
    exp = SpeedLaw.exponential()
    for name in ("f", "f1", "f2", "f3"):
        assert np.array_equal(getattr(exp, name)(x), np.exp(x))


def test_expanding_b_only_for_the_minus_k_power_form():
    # b is the exponent of the speed K^(-b), i.e. of the law f = -K^(-b),
    # and only within the theorem's range 0 < b < 1/n
    assert expanding_b(SpeedLaw.power(-1.0, -0.5), 1) == 0.5
    assert expanding_b(SpeedLaw.power(-2.0, -0.5), 1) is None
    assert expanding_b(SpeedLaw.power(-0.5, -0.25), 1) is None
    assert expanding_b(SpeedLaw.power(1.0, 0.5), 1) is None
    assert expanding_b(SpeedLaw.exponential(), 1) is None
    assert expanding_b(SpeedLaw.power(-1.0, -0.25), 2) == 0.25
    assert expanding_b(SpeedLaw.power(-1.0, -0.5), 2) is None
