"""Coloring 1's array backend against its float backend, bit for bit."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sixcoloring.coloring_one import D_HIGH, D_LOW, Params1, constraints, constraints_along  # noqa: E402
from sixcoloring.errors import DomainError, RangeError  # noqa: E402

# w1 = 0 on the curve d = 2 sin(alpha1/2), and t3 divides by w1; at these
# two points the division is by exactly zero
ZERO_DIVISOR_POINTS = [(0.9998367536161386, 59.9892), (0.808432734508, 47.68406)]


def float_row(d, a):
    """The six residuals from the float backend, or None where it raises."""
    try:
        return constraints(Params1(d, a)).as_tuple()
    except (DomainError, RangeError):
        return None


def assert_rows_match(d, alphas):
    residuals, feasible = constraints_along(d, alphas)
    assert residuals.shape == (len(alphas), 6)
    for a, row, ok in zip(alphas, residuals, feasible):
        expected = float_row(d, a)
        if expected is None:
            assert np.isnan(row).all() and not ok, (d, a)
        else:
            assert row.tobytes() == np.array(expected).tobytes(), (d, a)
            assert ok == (min(expected) >= -1e-9), (d, a)


def test_zero_divisor_rows():
    for d, a in ZERO_DIVISOR_POINTS:
        assert float_row(d, a) is None
        assert_rows_match(d, [a, 120.0])


def test_out_of_range_and_empty():
    assert_rows_match(0.45, [-1.0, 0.0, 1e-300, 120.0, 180.0, 190.0, math.nan])
    for d in (0.0, 1.0, -0.5, math.nan):
        assert_rows_match(d, [120.0])
    residuals, feasible = constraints_along(0.45, [])
    assert residuals.shape == (0, 6) and feasible.shape == (0,)


def test_grid_matches_float_backend():
    rng = np.random.default_rng(5)
    for d in rng.uniform(0, 1, 8).tolist() + [D_LOW, 0.45, D_HIGH]:
        assert_rows_match(d, rng.uniform(0, 180, 60).tolist())


OPEN_UNIT = st.floats(0, 1, exclude_min=True, exclude_max=True)
OPEN_ANGLE = st.floats(0, 180, exclude_min=True, exclude_max=True)


@st.composite
def rows(draw):
    """One d and up to 16 alpha1: over (0, 1) x (0, 180), over the band box
    [0.33, 0.58] x [100, 140], and within a few ulps of the w1 = 0 curve."""
    d = draw(st.one_of(OPEN_UNIT, st.floats(0.33, 0.58)))
    curve = 2 * math.degrees(math.asin(d / 2))
    near_curve = st.integers(-4, 4).map(lambda k: curve + k * math.ulp(curve))
    alphas = draw(st.lists(st.one_of(OPEN_ANGLE, st.floats(100, 140), near_curve),
                           min_size=1, max_size=16))
    return d, alphas


@settings(max_examples=150, deadline=None, database=None)
@given(rows())
@example((0.9998367536161386, [59.9892, 120.0]))
@example((0.808432734508, [47.68406]))
def test_array_backend_matches_float_backend(row):
    assert_rows_match(*row)
