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


PAIRS = [
    (stencils.d1_periodic, roll_d1),
    (stencils.d2_periodic, roll_d2),
    (stencils.d1_periodic_o2, roll_d1_o2),
    (stencils.d2_periodic_o2, roll_d2_o2),
]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("fn,ref", PAIRS, ids=lambda f: getattr(f, "__name__", ""))
def test_periodic_stencils_bit_identical_to_roll(fn, ref, size):
    rng = np.random.default_rng(size)
    for _ in range(10):
        scale = 10.0 ** rng.uniform(-3, 3)
        u = scale * rng.standard_normal(size)
        dx = 2.0 * np.pi / size * rng.uniform(0.5, 2.0)
        assert np.array_equal(fn(u, dx), ref(u, dx))
    # smooth data as well, where the terms cancel most
    u = 1.0 + 0.03 * np.cos(3.0 * 2.0 * np.pi * np.arange(size) / size)
    assert np.array_equal(fn(u, 2.0 * np.pi / size), ref(u, 2.0 * np.pi / size))


def test_periodic_stencils_leave_input_unchanged():
    u = np.linspace(1.0, 2.0, 32)
    before = u.copy()
    for fn, _ in PAIRS:
        fn(u, 0.1)
    assert np.array_equal(u, before)
