"""Invariants of the flow on random data, not only on hand-picked shapes.

The Harnack inequality holds along every flow of the expanding law -K^(-b)
with 0 < b < 1/n from a random convex shape: trP stays above the bound
-1/((1/n + beta) t) at every monitored state, up to the truncation error
of a coarse grid.  A round shape stays round: its support values all
follow the same radius ODE, so they stay equal to within a few ulps.  And
the flow keeps the order of two bodies (the comparison principle): a body
whose support function lies above another's at t=0 stays above it.  Every
step a run accepts, alone or in an ensemble, is at most the step bound of
the state it starts from.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcf.flow import FlowConfig, run, stable_dt
from gcf.geometry import SupportGrid, round_grid
from gcf.harnack import margin_summary, monitor
from gcf.speedlaw import SpeedLaw
from gcf.verify import random_convex_grid

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def expanding_laws(draw):
    """(n, b) with n in {1, 2} and b in (0, 1/n)."""
    n = draw(st.sampled_from([1, 2]))
    return n, draw(st.floats(0.0, 1.0 / n, exclude_min=True, exclude_max=True))


# coarse grids, so each flow takes a few hundred steps at most
SIZES = {1: (32, 48, 64), 2: (16, 24, 32)}
SIZE_INDICES = st.integers(0, 2)


@settings(max_examples=100, deadline=None)
@given(SEEDS, expanding_laws(), SIZE_INDICES)
@example(0, (2, 5e-324), 0)
@example(0, (2, 0.49999999999999994), 0)
def test_harnack_inequality_on_random_convex_data(seed, nb, size_index):
    n, b = nb
    size = SIZES[n][size_index]
    grid = random_convex_grid(n, size, np.random.default_rng(seed))
    trace = run(FlowConfig(grid=grid, law=SpeedLaw.power(-1.0, -b), times=(0.5,), stride=1))
    if len(trace) < 3:  # too few steps to monitor
        return
    summary = margin_summary(monitor(trace))
    assert summary.min_margin_rel >= -1e-3, summary


@settings(max_examples=60, deadline=None)
@given(expanding_laws(), SIZE_INDICES, st.floats(0.2, 3.0))
def test_round_shapes_stay_round(nb, size_index, R0):
    n, b = nb
    size = SIZES[n][size_index]
    trace = run(FlowConfig(grid=round_grid(n, R0, size), law=SpeedLaw.power(-1.0, -b),
                           times=(0.5,), stride=10**9))
    h = trace.grids[-1].values
    spread = (np.max(h) - np.min(h)) / np.mean(h)
    assert spread <= 8 * np.finfo(float).eps, spread


@settings(max_examples=60, deadline=None)
@given(SEEDS, expanding_laws(), SIZE_INDICES, st.floats(1e-3, 0.2), st.booleans())
def test_comparison_principle_on_random_convex_data(seed, nb, size_index, delta, scaled):
    # the upper body is the lower one grown by delta: scaled by 1 + delta,
    # or moved out by delta along every normal
    n, b = nb
    size = SIZES[n][size_index]
    lower = random_convex_grid(n, size, np.random.default_rng(seed))
    upper = SupportGrid(n, (1.0 + delta) * lower.values if scaled else lower.values + delta)
    law = SpeedLaw.power(-1.0, -b)
    traces = run([FlowConfig(grid=grid, law=law, times=(0.3,), stride=10**9)
                  for grid in (lower, upper)])
    assert [trace.reason for trace in traces] == ["completed", "completed"]
    gap = traces[1].grids[-1].values - traces[0].grids[-1].values
    assert np.min(gap) > 0.0, np.min(gap)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(SEEDS, expanding_laws(), SIZE_INDICES), min_size=1, max_size=3))
def test_every_step_sits_under_the_step_bound(flows):
    # one flow runs alone, two or three as one ensemble; with stride 1 the
    # stored states are every accepted step's start and end
    configs = []
    for seed, (n, b), size_index in flows:
        size = SIZES[n][size_index]
        grid = random_convex_grid(n, size, np.random.default_rng(seed))
        configs.append(FlowConfig(grid=grid, law=SpeedLaw.power(-1.0, -b), times=(0.1,), stride=1))
    traces = [run(configs[0])] if len(configs) == 1 else run(configs)
    for trace in traces:
        assert trace.steps == len(trace) - 1
        for t0, t1, grid in zip(trace.times, trace.times[1:], trace.grids):
            # a stored time is the sum of the steps before it, so t1 - t0 is
            # the step up to the rounding of that sum
            assert t1 - t0 <= stable_dt(grid, trace.law) + math.ulp(t1), (t0, t1)
