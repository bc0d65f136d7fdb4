"""Byte-identity of the vectorized curve kernels against a scalar oracle.

Every kernel must produce *byte-identical* output to the scalar
reference implementation in ``reference.py`` -- not merely approximately
equal output.  The property tests here drive each kernel on
hypothesis-generated curves and compare raw breakpoint storage; one
deterministic case pins the scalar fallback inside ``service_transform``,
which the generated curves never reach.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from repro.curves import (
    EPS,
    Curve,
    identity_minus,
    service_transform,
    sum_curves,
)
from repro.curves.kernels import _running_min_branch_fast
from repro.curves.ops import fcfs_service_bounds, min_curves

# -- strategies ------------------------------------------------------------

times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=25,
)


@st.composite
def step_curves(draw):
    times = draw(times_strategy)
    height = draw(st.floats(min_value=0.05, max_value=3.0))
    return Curve.step_from_times(times, height)


@st.composite
def raw_breakpoint_data(draw):
    """Raw (xs, ys, final_slope) of a non-decreasing PLF.

    Kept un-normalized so construction tests feed the *same* input to the
    kernel and the oracle; canonicalization is not idempotent in general
    (an all-flat ramp collapses differently on a second pass), so
    comparing a once-normalized curve against a rebuilt one would test
    idempotency, not the kernel.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    dx = draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                       min_size=n, max_size=n))
    dy = draw(st.lists(st.floats(min_value=0.0, max_value=3.0),
                       min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(dy)))
    fs = draw(st.floats(min_value=0.0, max_value=2.0))
    return xs, ys, fs


@st.composite
def general_curves(draw):
    """Non-decreasing PLF mixing sloped segments, plateaus, and jumps."""
    xs, ys, fs = draw(raw_breakpoint_data())
    return Curve.from_breakpoints(xs, ys, fs)


any_curves = st.one_of(step_curves(), general_curves())

query_lists = st.lists(
    st.floats(min_value=0.0, max_value=80.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


def _bytes(xs, ys, fs):
    return (
        np.asarray(xs, dtype=float).tobytes(),
        np.asarray(ys, dtype=float).tobytes(),
        fs,
    )


def assert_matches(curve: Curve, want: ref.Table):
    """``curve`` has exactly the oracle's breakpoints and final slope."""
    bp = curve.breakpoints()
    assert _bytes(bp.x, bp.y, curve.final_slope) == _bytes(*want)


def assert_same_floats(got, want):
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(
        want, dtype=float
    ).tobytes()


# -- construction and normalization ----------------------------------------


@settings(max_examples=80)
@given(raw_breakpoint_data())
def test_normalize_bit_identical(data):
    xs, ys, fs = data
    assert_matches(Curve.from_breakpoints(xs, ys, fs), ref.normalize(xs, ys, fs))


@settings(max_examples=80)
@given(times_strategy, st.floats(min_value=0.05, max_value=3.0))
def test_step_from_times_bit_identical(times, height):
    assert_matches(
        Curve.step_from_times(times, height), ref.step_from_times(times, height)
    )


# -- point kernels ---------------------------------------------------------


@settings(max_examples=80)
@given(any_curves, query_lists)
def test_eval_kernels_bit_identical(c, ts):
    q = np.asarray(ts, dtype=float)
    assert_same_floats(c.value(q), ref.eval_right(ref.table(c), ts))
    assert_same_floats(c.value_left(q), ref.eval_left(ref.table(c), ts))


@settings(max_examples=80)
@given(any_curves, query_lists)
def test_inverse_kernels_bit_identical(c, vs):
    q = np.asarray(vs, dtype=float)
    assert_same_floats(c.first_crossing(q), ref.first_crossing(ref.table(c), vs))
    assert_same_floats(c.last_below(q), ref.last_below(ref.table(c), vs))


# -- curve-valued operators ------------------------------------------------


@settings(max_examples=60)
@given(st.lists(any_curves, min_size=2, max_size=4))
def test_sum_curves_bit_identical(curves):
    assert_matches(
        sum_curves(curves), ref.sum_curves([ref.table(c) for c in curves])
    )


@settings(max_examples=60)
@given(any_curves, any_curves)
def test_min_curves_bit_identical(c1, c2):
    assert_matches(min_curves(c1, c2), ref.min_curves(ref.table(c1), ref.table(c2)))


@st.composite
def bounded_rate_curves(draw):
    """Curves with slope <= 1 everywhere (valid identity_minus input)."""
    n = draw(st.integers(min_value=1, max_value=8))
    dx = draw(st.lists(st.floats(min_value=0.01, max_value=5.0),
                       min_size=n, max_size=n))
    rho = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                        min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(np.asarray(rho) * np.asarray(dx))))
    fs = draw(st.floats(min_value=0.0, max_value=1.0))
    return Curve.from_breakpoints(xs, ys, fs)


@settings(max_examples=60)
@given(
    bounded_rate_curves(),
    st.floats(min_value=0.0, max_value=3.0),
    st.sampled_from(["exact", "lower", "upper"]),
)
def test_identity_minus_bit_identical(total, lateness, mode):
    assert_matches(
        identity_minus(total, lateness=lateness, mode=mode),
        ref.identity_minus(ref.table(total), lateness, mode),
    )


@settings(max_examples=60)
@given(
    bounded_rate_curves(),
    step_curves(),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_service_transform_bit_identical(B, c, lag):
    assert_matches(
        service_transform(B, c, lag=lag, t_end=120.0),
        ref.service_transform(ref.table(B), ref.table(c), lag, 120.0),
    )


def test_service_transform_fallback_bit_identical():
    """The scalar fallback of ``service_transform`` matches the oracle.

    ``B`` carries two breakpoints 1e-12 apart, so consecutive emissions of
    the running-min recursion fall within EPS and the vectorized assembly
    hands over to the scalar loop -- a path the generated curves above
    never take.
    """
    B = Curve.from_breakpoints(
        [0, 1, 1 + 1e-12, 5], [0, 1, 1 + 5e-13, 2], 0.5, canonicalize=False
    )
    c = Curve.step_from_times([0, 0.5, 3], 0.2)
    t_end = 20.0
    assert _running_min_branch_fast(B, c, t_end + EPS) is None
    assert_matches(
        service_transform(B, c, 0.0, t_end),
        ref.service_transform(ref.table(B), ref.table(c), 0.0, t_end),
    )


@settings(max_examples=40)
@given(step_curves(), st.floats(min_value=0.1, max_value=2.0))
def test_fcfs_service_bounds_bit_identical(c, tau):
    lower, upper = fcfs_service_bounds(c, c, tau, t_end=120.0)
    want_lower, want_upper = ref.fcfs_service_bounds(
        ref.table(c), ref.table(c), tau, 120.0
    )
    assert_matches(lower, want_lower)
    assert_matches(upper, want_upper)
