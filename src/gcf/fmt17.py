"""Python's '%.17g' of many floats at once, as int fields of % pieces.

g17(values) gives each value a code into PIECES, a table of % templates
of one to three %d fields, and the flat list of the arguments that those
pieces take in turn.  So ''.join(PIECES[c] for c in codes) % tuple(args)
equals ''.join('%.17g' % x for x in values), byte for byte, and % turns
an int into text several times faster than a float into 17 digits.

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
# A piece of each kind for each width w, the fraction digits it prints.
WIDTHS = 21
_KINDS = (
    lambda w: f"%d.%0{w}d" if w else "%d",  # fixed, |x| >= 1
    lambda w: f"0.%0{w}d",  # fixed, |x| < 1
    lambda w: f"%d.%0{w}de%+03d" if w else "%de%+03d",  # scientific
)
# code = 63 * (x < 0) + WIDTHS * kind + w, and FALLBACK = 126
PIECES = [sign + piece(w) for sign in ("", "-") for piece in _KINDS for w in range(WIDTHS)]
PIECES.append("%.17g")
FALLBACK = len(PIECES) - 1
# which of a value's (lead digits, fraction digits, exponent) each piece takes
_TAKES = np.array([(p.lstrip("-")[:2] in ("%d", "%."), "%0" in p, "e%" in p) for p in PIECES])
ARGS = _TAKES.sum(axis=1)  # the number of arguments of each piece

_K = 300  # 10**k for -_K <= k <= _K
_POW = np.array([np.longdouble(f"1e{k}") for k in range(-_K, _K + 1)])
# the largest error of s: one rounding if 10**k is exact (0 <= k <= 27, as
# 5**27 < 2**64 and 10**-k is no binary fraction), two if not
_EPS = float(np.finfo(np.longdouble).eps)
_k = np.arange(-_K, _K + 1)
_MARGIN = np.where((_k >= 0) & (_k <= 27), 1e17 * _EPS / 2, 1e17 * _EPS)
_TEN = 10 ** np.arange(18, dtype=np.int64)


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

    # F fraction digits; fixed notation puts X + 1 digits (none if X < 0) before them
    fixed = (X >= -4) & (X <= 16)
    F = np.where(fixed, 16 - X, 16)
    lead, fraction = np.divmod(D, _TEN[np.minimum(F, 17)])
    del D
    zeros = np.zeros_like(fraction)  # trailing zeros of the fraction, all F if it is 0
    some = np.flatnonzero(fraction % 10 == 0)
    f, z, rest = fraction[some], zeros[some], np.empty_like(some)
    whole = np.empty(x.size, dtype=bool)[:some.size]
    for p in (16, 8, 4, 2, 1):
        np.equal(np.remainder(f, _TEN[p], out=rest), 0, out=whole)
        np.floor_divide(f, _TEN[p], out=f, where=whole)
        np.add(z, p, out=z, where=whole)
    fraction[some], zeros[some] = f, np.minimum(z, F[some])
    codes = np.where(fast, 63 * (x < 0) + WIDTHS * np.where(fixed, X < 0, 2) + F - zeros, FALLBACK)
    args = np.stack((lead, fraction, X), axis=-1)[_TAKES[codes]]
    del fixed, F, zeros, lead, fraction, X
    if not fast.all():  # a fallback's one argument is its value
        counts = ARGS[codes]
        args = args.astype(object)
        np.copyto(args, np.repeat(x, counts), where=np.repeat(~fast, counts))
    return codes, args.tolist()


def _digits(a, X):
    """trunc(s), round(s), and where the rounding is certain, of s = a * 10**(16 - X)."""
    s = a.astype(np.longdouble)
    s *= _POW[_K + 16 - X]
    trunc = s.astype(np.int64)
    s -= trunc
    frac = s.astype(np.float64)
    return trunc, trunc + (frac > 0.5), np.abs(frac - 0.5) >= _MARGIN[_K + 16 - X]
