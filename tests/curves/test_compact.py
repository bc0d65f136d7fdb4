"""Property and unit tests for direction-certified curve compaction."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.curves import Curve
from repro.curves.compact import MIN_BUDGET, compact, max_deviation
from repro.curves.curve import CurveError
from repro.curves.memo import curve_cache

# -- strategies ------------------------------------------------------------

times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=40,
)


@st.composite
def step_curves(draw):
    times = draw(times_strategy)
    height = draw(st.floats(min_value=0.05, max_value=3.0))
    return Curve.step_from_times(times, height)


@st.composite
def general_curves(draw):
    """Non-decreasing PLF mixing sloped segments and jumps."""
    n = draw(st.integers(min_value=3, max_value=30))
    dx = draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                       min_size=n, max_size=n))
    dy = draw(st.lists(st.floats(min_value=0.0, max_value=3.0),
                       min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(dy)))
    fs = draw(st.floats(min_value=0.0, max_value=2.0))
    return Curve.from_breakpoints(xs, ys, fs)


any_curves = st.one_of(step_curves(), general_curves())

modes = st.sampled_from(["upper", "lower"])
shapes = st.sampled_from(["step", "linear"])
budgets = st.integers(min_value=MIN_BUDGET, max_value=40)


def dense_grid(a: Curve, b: Curve):
    t_end = max(a.x_end, b.x_end) * 1.5 + 1.0
    return np.unique(np.concatenate(
        [np.linspace(0.0, t_end, 801), a.breakpoints().x, b.breakpoints().x]
    ))


def assert_direction(c: Curve, r: Curve, mode: str):
    """r >= c (upper) or r <= c (lower) for values and left limits."""
    grid = dense_grid(c, r)
    cv, rv = np.atleast_1d(c.value(grid)), np.atleast_1d(r.value(grid))
    cl, rl = np.atleast_1d(c.value_left(grid)), np.atleast_1d(r.value_left(grid))
    tol = 1e-9 * max(1.0, float(np.abs(cv).max()))
    if mode == "upper":
        assert np.all(rv >= cv - tol)
        assert np.all(rl >= cl - tol)
    else:
        assert np.all(rv <= cv + tol)
        assert np.all(rl <= cl + tol)


# -- budget mode -----------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(any_curves, modes, budgets, shapes)
# Knots packed within a denormal width: the chord slope of the first span
# overflows, and the flat fallback must take over without a warning.
@example(Curve.step_from_times([5e-324, 1e-311, 1.0, 2.0], 1.0), "upper", 8, "linear")
def test_budget_direction_and_cap(c, mode, budget, shape):
    r = compact(c, mode, budget=budget, shape=shape)
    assert r.n_breakpoints <= max(budget, c.n_breakpoints)
    assert_direction(c, r, mode)
    assert r.final_slope == c.final_slope


@settings(max_examples=60, deadline=None)
@given(step_curves(), modes, budgets)
def test_budget_step_shape_preserves_steps(c, mode, budget):
    r = compact(c, mode, budget=budget)
    assert r.is_step()


@settings(max_examples=60, deadline=None)
@given(any_curves, modes, budgets, shapes)
def test_budget_idempotent_within_cap(c, mode, budget, shape):
    r = compact(c, mode, budget=budget, shape=shape)
    r2 = compact(r, mode, budget=budget, shape=shape)
    assert r2.n_breakpoints <= max(budget, r.n_breakpoints)
    assert_direction(r, r2, mode)
    # a curve already within budget is returned untouched
    assert compact(r2, mode, budget=max(budget, r2.n_breakpoints), shape=shape) is r2


# -- error mode ------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(any_curves, modes, st.floats(min_value=0.05, max_value=10.0))
def test_error_mode_bounds_deviation(c, mode, max_error):
    r = compact(c, mode, max_error=max_error)
    assert_direction(c, r, mode)
    t_end = c.x_end + 1.0
    assert max_deviation(r, c, t_end) <= max_error + 1e-9


# -- linear shape ----------------------------------------------------------


def test_linear_error_is_horizon_independent():
    """The chord shape's deviation stays near the step height while the
    staircase shape's deviation grows with the curve's rise."""
    devs = {}
    for n in (500, 4000):
        c = Curve.step_from_times(np.arange(float(n)), 0.5)
        for shape in ("step", "linear"):
            r = compact(c, "upper", budget=32, shape=shape)
            devs[(shape, n)] = max_deviation(r, c, float(n))
    assert devs[("step", 4000)] > 4 * devs[("step", 500)]
    assert devs[("linear", 4000)] < 2 * devs[("linear", 500)]
    assert devs[("linear", 4000)] < 3 * 0.5  # a few step heights


def test_linear_requires_budget_mode():
    c = Curve.step_from_times(np.arange(20.0), 1.0)
    with pytest.raises(CurveError):
        compact(c, "upper", max_error=1.0, shape="linear")


# -- validation and short-circuits ----------------------------------------


def test_mode_validation():
    c = Curve.step_from_times(np.arange(20.0), 1.0)
    with pytest.raises(CurveError):
        compact(c, "sideways", budget=16)
    with pytest.raises(CurveError):
        compact(c, "upper", budget=16, max_error=1.0)
    with pytest.raises(CurveError):
        compact(c, "upper")
    with pytest.raises(CurveError):
        compact(c, "upper", budget=MIN_BUDGET - 1)
    with pytest.raises(CurveError):
        compact(c, "upper", max_error=0.0)
    with pytest.raises(CurveError):
        compact(c, "upper", budget=16, shape="wavy")


def test_within_budget_returns_input():
    c = Curve.step_from_times(np.arange(5.0), 1.0)
    assert compact(c, "upper", budget=64) is c
    assert compact(c, "lower", budget=64, shape="linear") is c


def test_memoized_across_calls():
    c = Curve.step_from_times(np.arange(200.0), 0.5)
    with curve_cache() as cache:
        r1 = compact(c, "upper", budget=16, shape="linear")
        r2 = compact(c, "upper", budget=16, shape="linear")
        assert r1 is r2
        # different shape/mode are distinct cache entries
        r3 = compact(c, "upper", budget=16, shape="step")
        assert r3 is not r1
        assert cache.stats().hits >= 1


def test_shapes_disagree_on_merged_spans():
    c = Curve.step_from_times(np.arange(200.0), 0.5)
    step = compact(c, "upper", budget=16, shape="step")
    linear = compact(c, "upper", budget=16, shape="linear")
    assert step.is_step()
    assert not linear.is_step()
