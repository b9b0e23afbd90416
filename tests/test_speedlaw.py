import math

import numpy as np
import pytest

from gcf.errors import InvalidSpeedLaw, NonPositiveArgument
from gcf.speedlaw import (
    FlatLaws,
    SpeedLaw,
    alpha_fn,
    beta_fn,
    beta_fn_prime_fd,
    check_power_law_identities,
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
    "op", [SpeedLaw.f, SpeedLaw.f1, SpeedLaw.f2, SpeedLaw.f3, alpha_fn, beta_fn, gamma_fn]
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


def test_beta_prime_fd_second_order_in_step():
    # truncation of the central difference is h^2 * |beta'''| / 6
    law = SpeedLaw.exponential()
    x = 2.0
    errs = []
    for step in (4e-4, 2e-4, 1e-4):
        fd = beta_fn_prime_fd(law, x, rel_step=step / max(x, 1.0))
        errs.append(abs(fd - (-math.exp(x))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_identity_report_power_law():
    rep = check_power_law_identities(SpeedLaw.power(-1.0, -0.5), POINTS)
    assert rep.max_alpha <= 1e-12
    assert rep.max_beta <= 1e-12
    assert rep.max_gamma <= 1e-12
    assert rep.max_gamma_residual <= 1e-12
    # the FD beta' residual is rounding noise amplified by the step
    assert rep.max_beta_prime_residual <= 1e-9


def test_identity_report_exponential():
    rep = check_power_law_identities(SpeedLaw.exponential(), (0.5, 1.0, 2.0))
    assert rep.max_gamma_residual <= 1e-8
    assert rep.max_beta_prime_residual <= 1e-8
    assert rep.max_beta > 1.0  # genuinely non-power control law


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
    # equal laws keep their floats, so np.power's scalar fast path for the
    # exponent 2 gives the bits SpeedLaw.f does
    square = SpeedLaw.power(1.0, 2.0)
    same = FlatLaws([square, SpeedLaw.power(1.0, 2.0)], [32, 32])
    assert same.beta == 2.0
    assert np.array_equal(same.f(x[:64]), square.f(x[:64]))
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
