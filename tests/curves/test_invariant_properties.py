"""Property tests for curve-op invariants backing the soundness audit.

Complements ``test_properties.py``: every operator result is additionally
run through :meth:`Curve.check_invariants` (the audit-mode guard), the
pseudo-inverse round trips are pinned down, and memoized results are
required to be *byte-identical* to unmemoized ones -- the batch engine's
determinism claim rests on that.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import (
    Curve,
    audit_checks,
    curve_cache,
    identity_minus,
    min_curves,
    service_transform,
    sum_curves,
)

times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=10,
)


@st.composite
def step_curves(draw):
    times = draw(times_strategy)
    height = draw(st.floats(min_value=0.05, max_value=5.0))
    return Curve.step_from_times(times, height)


@st.composite
def continuous_curves(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    dx = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=n, max_size=n))
    slopes = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(np.asarray(slopes) * np.asarray(dx))))
    return Curve.from_breakpoints(xs, ys, draw(st.floats(min_value=0.0, max_value=1.0)))


def _monotone(c):
    grid = np.unique(
        np.concatenate([c.breakpoints().x, np.linspace(0.0, c.x_end + 5.0, 80)])
    )
    vals = np.atleast_1d(c.value(grid))
    assert np.all(np.diff(vals) >= -1e-9)


# -- operator results satisfy the audit invariants ---------------------------


@given(st.lists(step_curves(), min_size=0, max_size=4))
@settings(max_examples=80)
def test_sum_preserves_invariants_and_monotonicity(curves):
    with audit_checks():
        s = sum_curves(curves)  # constructor re-checks under the flag
    s.check_invariants()
    _monotone(s)


@given(continuous_curves(), step_curves(), st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=80)
def test_service_transform_preserves_invariants(b, c, lag):
    with audit_checks():
        s = service_transform(b, c, lag=lag, t_end=100.0)
    s.check_invariants()
    _monotone(s)


@given(
    continuous_curves(),
    st.floats(min_value=0.0, max_value=5.0),
    st.sampled_from(["lower", "upper"]),
)
@settings(max_examples=80)
def test_identity_minus_preserves_invariants(total, lateness, mode):
    with audit_checks():
        b = identity_minus(total, lateness=lateness, mode=mode)
    b.check_invariants()
    _monotone(b)


@given(step_curves(), step_curves())
@settings(max_examples=80)
def test_min_curves_preserves_invariants(a, b):
    with audit_checks():
        m = min_curves(a, b)
    m.check_invariants()
    _monotone(m)


# -- pseudo-inverse round trips ----------------------------------------------


@given(step_curves(), st.floats(min_value=0.0, max_value=60.0))
@settings(max_examples=100)
def test_first_crossing_of_value_round_trip(c, t):
    """g^{-1}(g(t)) <= t: the earliest time reaching g(t) is at most t."""
    s = c.first_crossing(float(c.value(t)))
    assert s <= t + 1e-6


@given(step_curves(), st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=100)
def test_value_of_first_crossing_round_trip(c, v):
    """g(g^{-1}(v)) >= v whenever the crossing exists."""
    s = c.first_crossing(v)
    if math.isfinite(s):
        assert float(c.value(s)) >= v - 1e-6


@given(step_curves(), st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=100)
def test_last_below_brackets_first_crossing(c, v):
    lb = c.last_below(v)
    fc = c.first_crossing(v)
    if math.isfinite(lb) and math.isfinite(fc):
        # Strictly-below time never exceeds the reaching time by more
        # than the jump structure allows: last_below(v) <= first time
        # the curve is >= v, up to the EPS slack both operators share.
        assert lb <= fc + 1e-6 or float(c.value_left(lb)) < v + 1e-6


# -- memoized vs unmemoized byte identity ------------------------------------


def _byte_identical(a, b):
    assert np.asarray(a.breakpoints().x).tobytes() == np.asarray(b.breakpoints().x).tobytes()
    assert np.asarray(a.breakpoints().y).tobytes() == np.asarray(b.breakpoints().y).tobytes()
    assert a.final_slope == b.final_slope


@given(continuous_curves(), step_curves(), st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=60)
def test_service_transform_memoized_byte_identity(b, c, lag):
    plain = service_transform(b, c, lag=lag, t_end=100.0)
    with curve_cache():
        cold = service_transform(b, c, lag=lag, t_end=100.0)  # miss: computed
        warm = service_transform(b, c, lag=lag, t_end=100.0)  # hit: cached
    _byte_identical(plain, cold)
    _byte_identical(plain, warm)


@given(continuous_curves(), st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=60)
def test_identity_minus_memoized_byte_identity(total, lateness):
    plain = identity_minus(total, lateness=lateness, mode="lower")
    with curve_cache():
        cold = identity_minus(total, lateness=lateness, mode="lower")
        warm = identity_minus(total, lateness=lateness, mode="lower")
    _byte_identical(plain, cold)
    _byte_identical(plain, warm)
