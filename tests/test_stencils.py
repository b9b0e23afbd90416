import numpy as np
import pytest

from gcf import stencils

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


def shared_d1(u, dx):
    return stencils.d1_d2_reflect(u, dx)[0]


def shared_d2(u, dx):
    return stencils.d1_d2_reflect(u, dx)[1]


PAIRS = [
    (stencils.d1_periodic, roll_d1),
    (stencils.d2_periodic, roll_d2),
    (stencils.d1_periodic_o2, roll_d1_o2),
    (stencils.d2_periodic_o2, roll_d2_o2),
]
REFLECT_PAIRS = [
    (stencils.d1_reflect, mirror_d1),
    (stencils.d2_reflect, mirror_d2),
    (odd(stencils.d1_reflect), odd(mirror_d1)),
    (odd(stencils.d2_reflect), odd(mirror_d2)),
    (shared_d1, mirror_d1),  # the shared extension of geometry.radii_and_K (n=2)
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


def test_periodic_stencils_leave_input_unchanged():
    u = np.linspace(1.0, 2.0, 32)
    before = u.copy()
    for fn, _ in PAIRS:
        fn(u, 0.1)
    assert np.array_equal(u, before)
