"""Natural cubic spline: oracle equivalence, C2/natural-boundary checks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubecodec.errors import ArgumentError
from cubecodec.spline import natural_cubic_spline

from conftest import dense_spline_oracle


def _random_instance(seed, max_p=12):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, max_p + 1))
    x = np.sort(rng.uniform(-5, 5, p))
    while np.any(np.diff(x) < 1e-3):
        x = np.sort(rng.uniform(-5, 5, p))
    y = rng.uniform(-2, 2, p)
    q = rng.uniform(x[0], x[-1], 17)
    return x, y, q


@given(st.floats(-5, 5), st.floats(-5, 5), st.integers(0, 1000))
def test_linear_reproduction(slope, intercept, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 10, 6))
    while np.any(np.diff(x) < 1e-3):
        x = np.sort(rng.uniform(0, 10, 6))
    y = slope * x + intercept
    q = rng.uniform(x[0], x[-1], 11)
    out = natural_cubic_spline(x, y, q)
    assert np.abs(out - (slope * q + intercept)).max() < 1e-10


def test_evaluation_at_knots_is_exact():
    x = np.array([0.0, 0.7, 1.9, 3.1, 4.0])
    y = np.array([0.3, -1.2, 2.5, 0.1, 0.9])
    out = natural_cubic_spline(x, y, x)
    assert np.array_equal(out, y)


def test_two_knots_degenerate_to_line():
    out = natural_cubic_spline([0.0, 2.0], [1.0, 5.0], [0.0, 0.5, 1.0, 2.0])
    assert np.allclose(out, [1.0, 2.0, 3.0, 5.0], atol=1e-14)


def test_interior_query_matches_dense_oracle():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    got = natural_cubic_spline(x, y, np.array([1.5]))[0]
    expected = dense_spline_oracle(x, y, np.array([1.5]))[0]
    assert abs(got - expected) <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_random_instances_match_dense_oracle(seed):
    x, y, q = _random_instance(seed)
    got = natural_cubic_spline(x, y, q)
    expected = dense_spline_oracle(x, y, q)
    assert np.abs(got - expected).max() <= 1e-12


def test_matrix_valued_knots_match_columnwise():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0, 4, 6))
    y = rng.uniform(-1, 1, (6, 3))
    q = rng.uniform(x[0], x[-1], 9)
    out = natural_cubic_spline(x, y, q)
    for k in range(3):
        col = natural_cubic_spline(x, y[:, k], q)
        assert np.array_equal(out[:, k], col)


def test_errors():
    with pytest.raises(ArgumentError):
        natural_cubic_spline([0.0], [1.0], [0.0])
    with pytest.raises(ArgumentError):
        natural_cubic_spline([0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [0.5])
    with pytest.raises(ArgumentError):
        natural_cubic_spline([0.0, 1.0], [1.0, 2.0], [1.5])  # extrapolation
    with pytest.raises(ArgumentError):
        natural_cubic_spline([0.0, 1.0], [1.0, 2.0], [-0.1])
    for knot_y, query_x in (([np.nan, 2.0], [0.5]), ([1.0, 2.0], [np.nan])):
        with pytest.raises(ArgumentError, match="knots and queries must be finite"):
            natural_cubic_spline([0.0, 1.0], knot_y, query_x)


@pytest.mark.parametrize("knot_x,knot_y,query_x", [
    ([0.0, 1.0, 2.0], [1e308, -1e308, 1e308], [0.5, 1.5]),  # differences overflow
    ([0.0, 1e-320, 2e-320], [1.0, 2.0, 3.0], [0.5e-320]),  # slopes overflow
], ids=["huge-ordinates", "subnormal-knot-spacing"])
def test_overflowing_spline_is_an_argument_error(knot_x, knot_y, query_x):
    with pytest.raises(ArgumentError, match="spline values must be finite"):
        natural_cubic_spline(knot_x, knot_y, query_x)


def _fd_second_derivative(f, x, h):
    return (f(x - h) - 2.0 * f(x) + f(x + h)) / (h * h)


def _one_sided_second_derivative(f, x0, h, direction):
    s = 1.0 if direction > 0 else -1.0
    return (2.0 * f(x0) - 5.0 * f(x0 + s * h) + 4.0 * f(x0 + 2 * s * h)
            - f(x0 + 3 * s * h)) / (h * h)


def _fd_instance(seed, max_p=8):
    """Knot set with comfortably wide pieces for finite-difference stencils."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, max_p + 1))
    x = np.cumsum(rng.uniform(0.5, 1.5, p))
    y = rng.uniform(-2, 2, p)
    return x, y


def _max_curvature(f, x, h):
    return max(abs(_fd_second_derivative(f, 0.5 * (x[i] + x[i + 1]), h))
               for i in range(len(x) - 1))


@pytest.mark.parametrize("seed", range(8))
def test_c2_continuity_at_interior_knots(seed):
    x, y = _fd_instance(seed)
    span = x[-1] - x[0]
    h = 1e-4 * span
    f = lambda q: natural_cubic_spline(x, y, np.atleast_1d(q))[0]
    scale = max(_max_curvature(f, x, h), 1e-9)
    for xk in x[1:-1]:
        left = _one_sided_second_derivative(f, xk, h, -1)
        right = _one_sided_second_derivative(f, xk, h, +1)
        assert abs(left - right) <= 1e-4 * scale


@pytest.mark.parametrize("seed", range(8))
def test_natural_boundary_conditions(seed):
    x, y = _fd_instance(seed)
    span = x[-1] - x[0]
    h = 1e-4 * span
    f = lambda q: natural_cubic_spline(x, y, np.atleast_1d(q))[0]
    scale = max(_max_curvature(f, x, h), 1e-9)
    lo = _one_sided_second_derivative(f, x[0], h, +1)
    hi = _one_sided_second_derivative(f, x[-1], h, -1)
    assert abs(lo) <= 1e-4 * scale
    assert abs(hi) <= 1e-4 * scale
