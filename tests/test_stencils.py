import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gcf import stencils
from gcf.geometry import FlatLayout

SIZES = (16, 17, 64, 127, 256, 1000, 1024)


# Reference: the np.roll forms of the periodic stencils, term for term.
def roll_d1(u, dx):
    return (
        -np.roll(u, -2) + 8.0 * np.roll(u, -1) - 8.0 * np.roll(u, 1) + np.roll(u, 2)
    ) / (12.0 * dx)


def roll_d2(u, dx):
    return (
        -np.roll(u, -2)
        + 16.0 * np.roll(u, -1)
        - 30.0 * u
        + 16.0 * np.roll(u, 1)
        - np.roll(u, 2)
    ) / (12.0 * dx * dx)


def roll_d1_o2(u, dx):
    return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)


def roll_d2_o2(u, dx):
    return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (dx * dx)


# Reference: the pole-reflected forms, mirror cells by index, term for term.
def mirror(u, parity):
    sign = 1.0 if parity == "even" else -1.0
    return np.concatenate((sign * u[[1, 0]], u, sign * u[[-1, -2]]))


def mirror_d1(u, dx, parity="even"):
    e = mirror(u, parity)
    return (-e[4:] + 8.0 * e[3:-1] - 8.0 * e[1:-3] + e[:-4]) / (12.0 * dx)


def mirror_d2(u, dx, parity="even"):
    e = mirror(u, parity)
    return (-e[4:] + 16.0 * e[3:-1] - 30.0 * e[2:-2] + 16.0 * e[1:-3] - e[:-4]) / (12.0 * dx * dx)


def odd(fn):
    def with_odd_parity(u, dx):
        return fn(u, dx, "odd")

    with_odd_parity.__name__ = fn.__name__ + "_odd"
    return with_odd_parity


# The derivatives of a flat layout (geometry.FlatLayout): one gathered
# extension, shared by d1 and d2, with the divisor given.
def gathered(u, periodic):
    return u[..., stencils.ghost_index(u.shape[-1], periodic)]


def shared_d1(u, dx):
    return stencils.d1_extended(gathered(u, False), 12.0 * dx)


def shared_d2(u, dx):
    return stencils.d2_extended(gathered(u, False), 12.0 * dx * dx)


def gathered_d1_periodic(u, dx):
    return stencils.d1_extended(gathered(u, True), 12.0 * dx)


def gathered_d2_periodic(u, dx):
    return stencils.d2_extended(gathered(u, True), 12.0 * dx * dx)


PAIRS = [
    (stencils.d1_periodic, roll_d1),
    (stencils.d2_periodic, roll_d2),
    (stencils.d1_periodic_o2, roll_d1_o2),
    (stencils.d2_periodic_o2, roll_d2_o2),
    (gathered_d1_periodic, roll_d1),
    (gathered_d2_periodic, roll_d2),
]
REFLECT_PAIRS = [
    (stencils.d1_reflect, mirror_d1),
    (stencils.d2_reflect, mirror_d2),
    (odd(stencils.d1_reflect), odd(mirror_d1)),
    (odd(stencils.d2_reflect), odd(mirror_d2)),
    (shared_d1, mirror_d1),
    (shared_d2, mirror_d2),
]


def assert_equal_to_reference(fn, ref, size):
    rng = np.random.default_rng(size)
    for _ in range(10):
        scale = 10.0 ** rng.uniform(-3, 3)
        u = scale * rng.standard_normal(size)
        dx = 2.0 * np.pi / size * rng.uniform(0.5, 2.0)
        assert np.array_equal(fn(u, dx), ref(u, dx))
    # smooth data as well, where the terms cancel most
    u = 1.0 + 0.03 * np.cos(3.0 * 2.0 * np.pi * np.arange(size) / size)
    assert np.array_equal(fn(u, 2.0 * np.pi / size), ref(u, 2.0 * np.pi / size))
    # a batch of rows, each differentiated as on its own
    batch = rng.standard_normal((3, size))
    got = fn(batch, 0.1)
    assert got.shape == batch.shape
    for row, want in zip(got, batch):
        assert np.array_equal(row, ref(want, 0.1))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("fn,ref", PAIRS, ids=lambda f: getattr(f, "__name__", ""))
def test_periodic_stencils_bit_identical_to_roll(fn, ref, size):
    assert_equal_to_reference(fn, ref, size)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("fn,ref", REFLECT_PAIRS, ids=lambda f: getattr(f, "__name__", ""))
def test_reflect_stencils_bit_identical_to_mirror(fn, ref, size):
    assert_equal_to_reference(fn, ref, size)


def test_reflect_stencils_reject_an_unknown_parity():
    for fn in (stencils.d1_reflect, stencils.d2_reflect, stencils.d1_reflect_o2,
               stencils.d2_reflect_o2):
        with pytest.raises(ValueError, match="parity must be 'even' or 'odd', got 'mixed'"):
            fn(np.ones(16), 0.1, "mixed")


def test_periodic_stencils_leave_input_unchanged():
    u = np.linspace(1.0, 2.0, 32)
    before = u.copy()
    for fn, _ in PAIRS:
        fn(u, 0.1)
    assert np.array_equal(u, before)


# The textbook forms on extended values e, along the last axis, each sum
# taken left to right from -e[k+4] and then divided by div.  The stencils
# must give their bits on whatever BLAS kernel numpy's np.correlate reaches:
# a kernel that fused a product into its sum (as an FMA does with
# -30 e[k+2]) or summed the five terms in another order would show here.
def textbook_d1(e, div):
    return (-e[..., 4:] + 8.0 * e[..., 3:-1] - 8.0 * e[..., 1:-3] + e[..., :-4]) / div


def textbook_d2(e, div):
    return (-e[..., 4:] + 16.0 * e[..., 3:-1] - 30.0 * e[..., 2:-2] + 16.0 * e[..., 1:-3]
            - e[..., :-4]) / div


def assert_same_bits(got, want):
    # bit for bit, except the sign of an exact zero: the stencils sum onto
    # a leading +0.0, so a sum of signed zeros reads +0.0
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    same = (got.view(np.uint64) == want.view(np.uint64)) | ((got == 0.0) & (want == 0.0))
    assert same.all(), (got[~same], want[~same])


# Finite values small enough that no stencil sum overflows: any magnitude,
# subnormals and zeros included.
FINITE = st.floats(-1e300, 1e300)


@st.composite
def extended_values(draw, shape):
    """Values of the given shape, random or a level with small noise (where
    the terms cancel most), placed at a random byte offset into a larger
    buffer, so that their alignment varies."""
    if draw(st.booleans()):
        values = draw(hnp.arrays(np.float64, shape, elements=FINITE))
    else:
        level = draw(st.floats(0.1, 10.0))
        noise = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
        values = level + draw(st.floats(0.0, 1e-3)) * noise
    count = math.prod(shape)
    offset = draw(st.integers(0, 127))
    buffer = bytearray(offset + 8 * count + 64)
    view = np.frombuffer(buffer, np.float64, count, offset).reshape(shape)
    view[...] = values
    return view


DIVISORS = st.floats(1e-3, 1e3)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(5, 300), st.booleans())
def test_flat_stencils_equal_the_textbook_forms_bit_for_bit(data, count, per_output):
    e = data.draw(extended_values((count,)))
    div = (data.draw(hnp.arrays(np.float64, count - 4, elements=DIVISORS)) if per_output
           else data.draw(DIVISORS))
    before = e.copy()
    assert_same_bits(stencils.d1_extended(e, div), textbook_d1(e, div))
    assert_same_bits(stencils.d2_extended(e, div), textbook_d2(e, div))
    assert np.array_equal(e, before)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 80), st.booleans())
def test_stacked_stencils_equal_the_textbook_forms_bit_for_bit(data, rows, size, per_output):
    e = data.draw(extended_values((rows, size + 4)))
    # a flat divisor has one entry per flat output, straddling ones included
    div = (data.draw(hnp.arrays(np.float64, e.size - 4, elements=DIVISORS)) if per_output
           else data.draw(DIVISORS))
    for fn, textbook in ((stencils.d1_extended, textbook_d1), (stencils.d2_extended, textbook_d2)):
        got = fn(e, div)
        assert got.shape == (rows, size)
        want = np.empty(e.size)
        want[:-4] = textbook(e.reshape(-1), div)
        assert_same_bits(got, want.reshape(e.shape)[:, :size])


@st.composite
def mixed_layouts(draw):
    """1-5 rows of (n, size, dx, values), the n=1 rows first; values are
    random positive, not necessarily convex, since radii() does not check."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from((1, 2)))
        size = 2 * draw(st.integers(8, 48)) if n == 1 else draw(st.integers(16, 96))
        dx = (2.0 if n == 1 else 1.0) * math.pi / size * draw(st.floats(0.9, 1.1))
        level = draw(st.floats(0.5, 2.0))
        noise = draw(hnp.arrays(np.float64, size, elements=st.floats(-1.0, 1.0)))
        rows.append((n, size, dx, level + draw(st.sampled_from((1e-6, 1e-2, 0.4))) * noise))
    return sorted(rows, key=lambda row: row[0])


def textbook_radii(n, dx, u):
    """r1 = h'' + h, and for n=2 r2 = h' cot(phi) + h, from the textbook forms."""
    if n == 1:
        return (textbook_d2(np.concatenate((u[-2:], u, u[:2])), 12.0 * dx * dx) + u,)
    e = mirror(u, "even")
    phi = (np.arange(u.size) + 0.5) * np.pi / u.size
    return (textbook_d2(e, 12.0 * dx * dx) + u,
            textbook_d1(e, 12.0 * dx) * (np.cos(phi) / np.sin(phi)) + u)


@settings(max_examples=100, deadline=None)
@given(mixed_layouts())
def test_flat_layout_radii_equal_each_rows_textbook_radii(rows):
    layout = FlatLayout([(n, size, dx) for n, size, dx, _ in rows])
    r = np.empty(layout.radii_size)
    layout.curvature(np.concatenate([u for *_, u in rows]), r)
    for j, (n, _, dx, u) in enumerate(rows):
        assert_same_bits(np.concatenate(layout.row_radii(j, r)),
                         np.concatenate(textbook_radii(n, dx, u)))
