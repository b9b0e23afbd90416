"""Python's '%.17g' of many floats at once, as int fields of % pieces.

g17(values) gives each value a code into PIECES, a table of % templates
of one to three plain %d fields, and the flat list of the arguments that
those pieces take in turn.  So ''.join(PIECES[c] for c in codes) %
tuple(args) equals ''.join('%.17g' % x for x in values), byte for byte,
and % turns an int into text several times faster than a float into 17
digits.  A piece holds the leading zeros of its value's fraction as text,
as % writes a zero-padded %0wd field much more slowly than a plain %d.

The 17 significant digits D and the decimal exponent X of a value come
from s = |x| * 10**(16 - X) in long double, with 10**k read from its
decimal string (correctly rounded, and exact for 0 <= k <= 27).  A value
takes FALLBACK, the piece "%.17g" with the value itself as its argument,
where s lies within its rounding error of a tie, where D falls outside
[1e16, 1e17), or where |x| lies outside [1e-280, 1e280] (zeros,
subnormals, inf and NaN).  Where long double is no wider than a double,
that error exceeds one half, so every value falls back.
"""

from __future__ import annotations

import numpy as np

# The layout of %g: fixed notation for -4 <= X <= 16, scientific otherwise,
# trailing zeros of the fraction stripped, and no "." when none is left.
# A piece of each kind for each z, the fraction's leading zeros plus one (0
# where there is no fraction): the zeros are text in the piece, so that the
# fraction's own digits print through a plain %d, which % writes much faster
# than a zero-padded %0wd.
WIDTHS = 17  # z <= 16
_KINDS = (("%d", ""), ("0", ""), ("%d", "e%+03d"))  # fixed |x| >= 1, fixed |x| < 1, scientific
# code = WIDTHS * (3 * (x < 0) + kind) + z, and FALLBACK = 102
_CODES = [(sign, kind, z) for sign in ("", "-") for kind in range(3) for z in range(WIDTHS)]
PIECES = [sign + _KINDS[kind][0] + ("." + "0" * (z - 1) + "%d" if z else "") + _KINDS[kind][1]
          for sign, kind, z in _CODES] + ["%.17g"]
FALLBACK = len(PIECES) - 1
# which of a value's (lead digits, fraction digits, exponent) each piece
# takes, and a fourth column none takes, so that a piece's row is one uint32
_TAKES = np.array([(kind != 1, z > 0, kind == 2, False) for _, kind, z in _CODES]
                  + [(True, False, False, False)])
_ROWS = _TAKES.view(np.uint32).ravel()
ARGS = _TAKES.sum(axis=1)  # the number of arguments of each piece

_K = 300  # 10**k for -_K <= k <= _K
_POW = np.array([np.longdouble(f"1e{k}") for k in range(-_K, _K + 1)])
# the largest error of s: one rounding if 10**k is exact (0 <= k <= 27, as
# 5**27 < 2**64 and 10**-k is no binary fraction), two if not
_EPS = float(np.finfo(np.longdouble).eps)
_k = np.arange(-_K, _K + 1)
_MARGIN = np.where((_k >= 0) & (_k <= 27), 1e17 * _EPS / 2, 1e17 * _EPS)
_TEN = 10 ** np.arange(18, dtype=np.int64)
# By X + _K: the fraction digits F (fixed notation puts X + 1 digits, none
# if X < 0, before them), 10**F (10**17 where no digit is before them) and
# WIDTHS times the kind.
_FIXED = (_k >= -4) & (_k <= 16)
_F = np.where(_FIXED, 16 - _k, 16)
_UNIT = _TEN[np.minimum(_F, 17)]
_KIND = WIDTHS * np.where(_FIXED, _k < 0, 2)


def g17(values) -> tuple:
    """(codes, args) of a float array: codes an int array of indices into
    PIECES, one per value in order, and args the list of their arguments.

    numpy keeps freed arrays under 1 KB for reuse, and kept arrays of ever
    new sizes stop the C heap from shrinking; so every temporary here is as
    long as values, or as the values whose fraction ends in a zero.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)  # False for NaN
    a[~fast] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    trunc, D, sure = _digits(a, X)
    fast &= sure
    # X is one too high where s < 1e16, and one too low where D has 18 digits
    low, high = trunc < 10**16, D >= 10**17
    del trunc, sure
    if low.any() or high.any():
        X = X + high - low
        _, D, sure = _digits(a, X)
        fast &= sure
    del a, low, high
    fast &= (D >= 10**16) & (D < 10**17)

    j = X + _K
    lead, fraction = np.divmod(D, _UNIT[j])
    del D
    # z, the fraction's leading zeros plus one, or 0 where it is 0
    z = np.where(fraction > 0, _F[j] + 1 - np.searchsorted(_TEN, fraction, side="right"), 0)
    # strip the fraction's trailing zeros (numpy divides by a scalar far
    # faster than it takes a remainder)
    some = np.flatnonzero(fraction // 10 * 10 == fraction)
    f, q, rest = fraction[some], np.empty_like(some), np.empty_like(some)
    whole = np.empty(x.size, dtype=bool)[:some.size]
    for p in (16, 8, 4, 2, 1):
        np.floor_divide(f, _TEN[p], out=q)
        np.equal(np.multiply(q, _TEN[p], out=rest), f, out=whole)
        np.copyto(f, q, where=whole)
    fraction[some] = f
    codes = np.where(fast, z + _KIND[j] + 3 * WIDTHS * (x < 0), FALLBACK)
    args = np.compress(_ROWS[codes].view(bool), np.stack((lead, fraction, X, X), axis=-1))
    del j, z, lead, fraction, X
    args = args.tolist()
    if not fast.all():  # a fallback's one argument, its last, is its value
        ends, xs, slow = memoryview(np.cumsum(ARGS[codes])), memoryview(x), (~fast).tobytes()
        i = slow.find(1)
        while i >= 0:
            args[ends[i] - 1] = xs[i]
            i = slow.find(1, i + 1)
    return codes, args


def _digits(a, X):
    """trunc(s), round(s), and where the rounding is certain, of s = a * 10**(16 - X)."""
    s = a.astype(np.longdouble)
    s *= _POW[_K + 16 - X]
    trunc = s.astype(np.int64)
    s -= trunc
    frac = s.astype(np.float64)
    return trunc, trunc + (frac > 0.5), np.abs(frac - 0.5) >= _MARGIN[_K + 16 - X]
