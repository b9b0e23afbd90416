"""fmt17.g17 against Python's own '%.17g', value by value."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcf import fmt17
from gcf.fmt17 import ARGS, FALLBACK, PIECES, g17


def render(values) -> str:
    """The values as g17 writes them, comma-separated."""
    codes, args = g17(np.asarray(values, dtype=np.float64))
    assert len(args) == int(ARGS[codes].sum())
    return ",".join(PIECES[c] for c in codes.tolist()) % tuple(args)


def reference(values) -> str:
    return ",".join("%.17g" % x for x in np.asarray(values, dtype=np.float64).tolist())


def neighbours(x: float, ulps: int = 2) -> list:
    """x and the floats up to ulps steps either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


# Values within 4e-4 of a rounding tie in their 17th digit, where the
# long-double product falls on the wrong side of the tie, so that only the
# error margin sends them to '%.17g'.  Each scales by a rounded power of ten
# (16 - X < 0 or 16 - X > 27).
NEAR_TIES = [
    -5.495800740729257e+22, -3.5823837098419906e+39, 6.734515888729821e+36,
    -1.6206318365618332e+22, 6.691151952087813e+39, -7.011155499057734e+22,
    -6.098126294834458e-47, -1.4730151169092866e+47, -6.704430021881686e+43,
    -9.762487239820992e+53, 6.875067768197039e-38, -6.20990190772994e-34,
]
# Values with X = 43, scaled by 10**-27, whose product lies 7.8e-3 from the
# tie on the wrong side: beyond the one-rounding margin 1e17 * eps / 2 of
# an exact power, inside the two-rounding margin of a rounded one.  A search
# of X = 17..43 found such values at X = 43 alone.
ROUNDED_POWER_TIES = [9.85688813637609e+43, 9.795156066516265e+43, 9.909904344284252e+43]
# Where %g switches layout or the 17 digits gain or lose a decade: 10**k and
# its neighbours for every k a double reaches, the fixed/scientific switches
# at X = -5/-4 and X = 16/17, the 1e16 and 1e17 ends of the 17-digit range,
# and the ends of the double range; the signed zeros and the near ties.
EDGES = sorted(
    {v for k in range(-300, 301) for v in neighbours(float(f"1e{k}"))}
    | {v for x in (1e-4, 1e-5, 9.99995e-5, 1e16, 1e17, 99999999999999984.0, 2.0**53,
                   0.5, 1.0, 123.0, 1e-280, 1e280, 2.2250738585072014e-308)
       for v in neighbours(x)}
    | {0.0, 5e-324, 1.7976931348623157e308, float("inf"), float("nan"), *NEAR_TIES,
       *ROUNDED_POWER_TIES}
)


def test_edge_table_matches_percent_17g():
    values = np.array(EDGES + [-v for v in EDGES])
    assert render(values) == reference(values)


def test_negative_zero():
    assert render([-0.0, 0.0]) == "-0,0"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_floats_match_percent_17g(values):
    assert render(values) == reference(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_bit_patterns_match_percent_17g(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert render(values) == reference(values)


def test_typical_values_take_the_int_pieces():
    values = np.random.default_rng(5).normal(size=4096) * 10.0 ** np.arange(-6, 10).repeat(256)
    codes, _ = g17(values)
    assert np.mean(codes == FALLBACK) < 0.03
    assert render(values) == reference(values)


def test_the_one_rounding_margin_goes_with_an_exact_power_alone():
    # a power of ten that long double rounds adds a second rounding to s
    eps = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
    one_rounding = fmt17._MARGIN < fmt17._MARGIN.max()
    for k, p, one in zip(range(-fmt17._K, fmt17._K + 1), fmt17._POW, one_rounding):
        error = abs(Fraction(*p.as_integer_ratio()) / Fraction(10) ** k - 1)
        assert error <= eps / 2  # correctly rounded
        assert error == 0 or not one


def test_every_value_falls_back_when_no_rounding_is_certain(monkeypatch):
    # a margin of one, as on a platform whose long double is a double
    monkeypatch.setattr(fmt17, "_MARGIN", np.ones_like(fmt17._MARGIN))
    values = np.concatenate([np.random.default_rng(6).normal(size=500), EDGES])
    codes, args = g17(values)
    assert (codes == FALLBACK).all()
    assert np.array_equal(args, values, equal_nan=True)  # each value is its own argument
    assert render(values) == reference(values)


@pytest.mark.parametrize("shape", [(0,), (3, 4), (2, 3, 5)])
def test_any_shape_is_read_in_c_order(shape):
    values = np.arange(np.prod(shape), dtype=float).reshape(shape) / 7.0 - 1.0
    assert render(values) == reference(values.ravel())


def leading_zero_values() -> list:
    """Values whose fraction has 0 to 15 leading zeros: 1 + 1.234567e-k in
    fixed decades (X = 0, 5, 12) and scientific ones (X = 40, -60), and
    1.234567e-k for k = 1 to 4 (0.1 to 0.0001), each of either sign."""
    values = [(1 + 1.234567 * 10.0**-k) * 10.0**X for k in range(1, 17) for X in (0, 5, 12, 40, -60)]
    values += [1.234567 * 10.0**-k for k in range(1, 5)]
    return values + [-v for v in values]


def test_fractions_with_leading_zeros_match_percent_17g():
    values = leading_zero_values()
    assert render(values) == reference(values)
    # every piece with a fraction is taken: z = 1..16 of the fixed |x| >= 1
    # and the scientific kinds, z = 1..4 of fixed |x| < 1, in either sign
    taken = {PIECES[c] for c in g17(np.array(values))[0].tolist()}
    for kind, zs in ((0, range(1, 17)), (1, range(1, 5)), (2, range(1, 17))):
        for sign in (0, 1):
            assert {PIECES[fmt17.WIDTHS * (3 * sign + kind) + z] for z in zs} <= taken


def test_no_piece_pads_its_fraction():
    # the fraction's leading zeros are text in its piece, so that its digits
    # print through a plain %d: % writes a zero-padded %0wd much more slowly
    assert [p for p in PIECES if "%0" in p] == []


@pytest.mark.parametrize("values", [
    [float("nan"), 1.5, -2.5e30, 0.125, 0.0],  # first and last fall back
    [-0.0, 1e300, -7.25e-300, float("inf")],  # all fall back
    [5e-324, 3.5, -1.25e-7, 1e-300, 42.0, float("-inf")],  # after 2- and 3-argument pieces
    [float("nan")],
])
def test_fallbacks_at_either_end_of_a_block(values):
    codes, args = g17(np.array(values))
    assert codes[0] == codes[-1] == FALLBACK
    assert render(values) == reference(values)
