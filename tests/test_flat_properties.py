"""Flat stepping against one grid at a time, on random layouts.

A flat layout lays grids of any (n, size, dx) end to end.  Each grid of it
must get, bit for bit, the curvature and the RK4 update it gets alone:
FlatLayout.curvature against radii_and_K of the grid, and one flat
_rk4 against the grid's own _rk4 on its one-row layout.  With steps too
large for some rows, each row must meet the failure, or make the update,
of its own step.  Grids are random convex perturbed round shapes, each
row with its own expanding law -K**beta, or each with its own power law
of any coefficient, or all rows with the exponential law.  A batch of
expanding laws carries the rates -f through its stages and one that
mixes in other coefficients carries f (see speedlaw.FlatLaws), while each
row alone carries what its own law gives: both paths are checked against
each other.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gcf import flow
from gcf.flow import FlowConfig, InitialShape, run
from gcf.geometry import FlatLayout, fourier_grid, radii_and_K, row_layout
from gcf.speedlaw import FlatLaws, SpeedLaw


@st.composite
def flat_rows(draw):
    """1-4 rows of (n, size, dx, values, law), the n=1 rows first."""
    kind = draw(st.sampled_from(("expanding", "power", "exp")))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from((1, 2)))
        size = 2 * draw(st.integers(8, 40)) if n == 1 else draw(st.integers(16, 64))
        spacing = (2.0 if n == 1 else 1.0) * math.pi / size
        # mixed dx: the node spacing, scaled a little, so rows of one size
        # can differ in their divisors too
        dx = spacing * draw(st.floats(0.9, 1.1))
        modes = [(k, draw(st.floats(-0.01, 0.01)) / k**2) for k in range(2, 6)]
        values = fourier_grid(n, draw(st.floats(0.5, 2.0)), modes, size).values
        if kind == "exp":
            law = SpeedLaw.exponential()
        else:
            a = -1.0 if kind == "expanding" else draw(st.sampled_from((-1.0, -2.0, -0.37, 1.0)))
            beta = -draw(st.floats(0.05, 0.95 / n)) if a < 0.0 else draw(st.floats(0.3, 2.0))
            law = SpeedLaw.power(a, beta)
        rows.append((n, size, dx, values, law))
    return sorted(rows, key=lambda row: row[0])


def _flat(rows):
    layout = FlatLayout([(n, size, dx) for n, size, dx, _, _ in rows])
    h = np.concatenate([values for _, _, _, values, _ in rows])
    return layout, h


@settings(max_examples=60, deadline=None)
@given(flat_rows())
def test_flat_radii_and_gauss_equal_each_grid_alone(rows):
    layout, h = _flat(rows)
    r = np.empty(layout.radii_size)
    K = layout.curvature(h, r)
    for j, (n, _, dx, values, _) in enumerate(rows):
        _, row_radii, row_K = layout.row(j, h, r, K)
        want_radii, want_K = radii_and_K(n, values, dx)
        assert len(row_radii) == len(want_radii) == n
        for got, want in zip(row_radii, want_radii):
            assert np.array_equal(got, want)
        assert np.array_equal(row_K, want_K)
    # the rows' parts, joined again, are the flat state bit for bit
    joined = layout.join([layout.row(j, h, r, K) for j in range(len(rows))])
    assert [a.tobytes() for a in joined] == [a.tobytes() for a in (h, r, K)]


@settings(max_examples=100, deadline=None)
@given(flat_rows(), st.booleans(),
       st.none() | st.lists(st.floats(1.0, 100.0), min_size=4, max_size=4))
def test_flat_rk4_equals_each_grid_alone(rows, one_dt, scales):
    layout, h = _flat(rows)
    r = np.empty(layout.radii_size)
    K = layout.curvature(h, r)
    law = FlatLaws([law for *_, law in rows], layout.sizes)
    # each row's own step bound, or the smallest for all rows; scaled up to
    # 100 times, the steps lose convexity in some rows, and each row's
    # failure must then be the one its own step meets
    bounds = flow._dt_bound(law, layout, r, K,
                            [flow.SAFETY * dx * dx for _, _, dx, _, _ in rows])
    if scales:
        bounds = [bound * scale for bound, scale in zip(bounds, scales)]
    row_dt = [min(bounds)] * len(rows) if one_dt else bounds
    dt = row_dt[0] if one_dt else np.repeat(row_dt, layout.sizes)
    with np.errstate(all="ignore"):
        new, new_r, new_K, failures = flow._rk4(law, layout, h, K, dt)
        assert failures is None or scales
        for j, (n, size, dx, values, row_law) in enumerate(rows):
            K_j = layout.row(j, h, r, K)[2]
            alone = row_layout(n, size, dx)
            want = flow._rk4(FlatLaws([row_law], [size]), alone, values, K_j, row_dt[j])
            got_failure = failures[j] if failures else None
            want_failure = want[3][0] if want[3] else None
            assert type(got_failure) is type(want_failure)
            assert str(got_failure) == str(want_failure)
            if want_failure is None:
                got = layout.row(j, new, new_r, new_K)
                assert np.array_equal(got[0], want[0])
                for a, b in zip(got[1], alone.row_radii(0, want[1])):
                    assert np.array_equal(a, b)
                assert np.array_equal(got[2], want[2])


def test_run_leaves_the_error_state_unchanged(monkeypatch):
    completed = FlowConfig(
        n=2, size=16, law=SpeedLaw.power(-1.0, -0.25),
        shape=InitialShape("fourier", 1.0, ((2, 0.02),)), t_end=0.05,
    )
    # a contracting flow that loses convexity in a step above RK4's
    # stability limit (see test_flow.EARLY_ENDS); the short completed flow
    # completes at that step bound too
    monkeypatch.setattr(flow, "SAFETY", 1.5)
    nonconvex = FlowConfig(
        n=1, size=32, law=SpeedLaw.power(1.0, 1.1700967619904363),
        shape=InitialShape("fourier", 1.0, ((5, 0.017207980635981685),)),
        t_end=3.0, stride=7,
    )
    before = np.geterr()
    with np.errstate(divide="raise", over="warn", under="print", invalid="ignore"):
        inside = np.geterr()
        assert run(completed).reason == "completed"
        assert np.geterr() == inside
        assert run(nonconvex).reason == "nonconvex"
        assert np.geterr() == inside
    assert run(nonconvex).reason == "nonconvex"
    assert np.geterr() == before
