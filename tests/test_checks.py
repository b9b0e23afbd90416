"""The input checks against the element-wise formulas they replace.

Each check takes a minimum and a maximum over the array instead of testing
every element.  The reference formulas below are the element-wise ones,
term for term; a check must raise the same exception type with the same
message exactly when its reference does.  The references of the two grid
checks take arrays, so lists and Python scalars reach them through
np.asarray.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gcf.errors import NonConvex, NonPositiveArgument, OriginOutside
from gcf.geometry import RADIUS_FLOOR, require_convex, require_admissible
from gcf.speedlaw import _check_positive


def ref_require_convex(radii):
    if not np.isfinite(radii).all() or (radii <= RADIUS_FLOOR).any():
        raise NonConvex(
            f"curvature radius dropped to {float(np.min(radii)):.3e} (floor {RADIUS_FLOOR:g})"
        )


def ref_require_admissible(values):
    if not np.isfinite(values).all():
        raise OriginOutside("support values must be finite")
    if (values <= 0.0).any():
        raise OriginOutside("support values must be strictly positive")


def ref_check_positive(x):
    if (np.asarray(x) <= 0.0).any():
        raise NonPositiveArgument("speed laws are defined for positive arguments only")


SPECIAL = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0, RADIUS_FLOOR,
    math.nextafter(RADIUS_FLOOR, 0.0), math.nextafter(RADIUS_FLOOR, 1.0),
    5e-324, 1e308, -1e308,
]
ELEMENTS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6), elements=ELEMENTS
)
INPUTS = st.one_of(
    ARRAYS,
    ELEMENTS,  # Python floats
    ELEMENTS.map(np.float64),
    st.lists(ELEMENTS, max_size=8),
)


def outcome(check, x):
    try:
        check(x)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


def as_array(x):
    return x if isinstance(x, (np.ndarray, np.generic)) else np.asarray(x, dtype=float)


@settings(max_examples=200, deadline=None)
@given(INPUTS)
def test_require_convex_matches_elementwise_form(x):
    assert outcome(require_convex, x) == outcome(ref_require_convex, as_array(x))


@settings(max_examples=200, deadline=None)
@given(INPUTS)
def test_require_admissible_matches_elementwise_form(x):
    assert outcome(require_admissible, x) == outcome(ref_require_admissible, as_array(x))


@settings(max_examples=200, deadline=None)
@given(st.one_of(INPUTS, st.lists(st.integers(-3, 3), max_size=5), st.integers(-3, 3)))
def test_check_positive_matches_elementwise_form(x):
    assert outcome(_check_positive, x) == outcome(ref_check_positive, x)


def test_checks_on_hand_picked_inputs():
    nan, inf = math.nan, math.inf
    # NaN beside a non-positive value: the element-wise test sees the latter
    assert outcome(_check_positive, [nan, -1.0]) is not None
    assert outcome(_check_positive, [nan, 2.0]) is None
    assert outcome(_check_positive, np.array([])) is None
    assert outcome(require_admissible, np.array([-1.0, inf]))[1] == "support values must be finite"
    assert outcome(require_admissible, np.array([-1.0, 2.0]))[1] == (
        "support values must be strictly positive"
    )
    assert outcome(require_admissible, np.array([nan, 2.0]))[1] == "support values must be finite"
    assert outcome(require_convex, np.array([1.0, inf]))[0] is NonConvex
    assert outcome(require_convex, np.array([nan, 1.0]))[0] is NonConvex
    assert outcome(require_convex, np.array([RADIUS_FLOOR]))[0] is NonConvex
    assert outcome(require_convex, np.array([]).reshape(0, 3)) is None
