"""Byte-identity of the vectorized curve kernels against a scalar oracle.

Every kernel must produce *byte-identical* output to the scalar
reference implementation in ``reference.py`` -- not merely approximately
equal output.  The property tests here drive each kernel on
hypothesis-generated curves and compare raw breakpoint storage.  The
strategies reach the corners where a cheaper vectorization would differ
from the oracle: a signed zero in ``y[0]``, queries at ``-0.0`` and
``+inf``, sum operands that share breakpoints, and clustered release
times and breakpoints within EPS of each other, which drive the EPS guard
of ``service_transform``.  Two deterministic cases pin that guard: one
dropped breakpoint, and a chain in which it keeps a later point.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from repro.curves import (
    EPS,
    Curve,
    identity_minus,
    service_transform,
    sum_curves,
)
from repro.curves.kernels import _running_min_branch
from repro.curves.ops import fcfs_service_bounds, min_curves

# -- strategies ------------------------------------------------------------

times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=25,
)

#: Gaps within EPS, down to the 2.8e-14 of real near-coincident releases.
#: Two of 6e-10 (or three of 4e-10) add up past EPS, so a chain can hold a
#: member the guard keeps after dropping the ones before it.
near_gaps = st.sampled_from([0.0, 2.8e-14, 1e-12, 4e-10, 6e-10])


@st.composite
def time_chains(draw):
    """Chains of times, each member within EPS of the previous one."""
    chains = []
    for t in draw(st.lists(st.floats(min_value=0.0, max_value=50.0),
                           min_size=1, max_size=8)):
        gaps = draw(st.lists(near_gaps, min_size=1, max_size=4))
        chains.append((t + np.cumsum([0.0] + gaps)).tolist())
    return chains


clustered_times = time_chains().map(lambda chains: sum(chains, []))


heights = st.floats(min_value=0.05, max_value=3.0)


@st.composite
def step_curves(draw):
    times = draw(st.one_of(times_strategy, clustered_times))
    return Curve.step_from_times(times, draw(heights))


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
    dy = draw(st.lists(st.one_of(st.just(0.0),
                                 st.floats(min_value=0.0, max_value=3.0)),
                       min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([draw(st.sampled_from([0.0, -0.0]))], np.cumsum(dy)))
    fs = draw(st.floats(min_value=0.0, max_value=2.0))
    return xs, ys, fs


@st.composite
def general_curves(draw):
    """Non-decreasing PLF mixing sloped segments, plateaus, and jumps."""
    xs, ys, fs = draw(raw_breakpoint_data())
    return Curve.from_breakpoints(xs, ys, fs)


any_curves = st.one_of(step_curves(), general_curves())

query_lists = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=80.0, allow_nan=False,
                  allow_infinity=False),
        st.sampled_from([-0.0, math.inf]),
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def sharing_operand_lists(draw):
    """Sum operands sharing breakpoints: step curves over suffixes of one
    release sequence, plus one curve given twice."""
    times = draw(st.one_of(times_strategy, clustered_times))
    n = draw(st.integers(min_value=1, max_value=3))
    curves = [Curve.step_from_times(times[i:], draw(heights)) for i in range(n)]
    repeated = draw(any_curves)
    return curves + [repeated, repeated]


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
@example(
    Curve.from_breakpoints([0, 1, 2], [-0.0, -0.0, 1.0], 0.0, canonicalize=False),
    [0.5, -0.0, math.inf],
)
def test_eval_kernels_bit_identical(c, ts):
    # Every segment is queried inside too: a flat one starting at -0.0
    # reads 0.0 there.
    xs = ref.table(c)[0]
    ts = ts + xs + [(a + b) / 2.0 for a, b in zip(xs, xs[1:])]
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
@given(st.one_of(st.lists(any_curves, min_size=2, max_size=4),
                 sharing_operand_lists()))
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


@st.composite
def clustered_service_inputs(draw):
    """An availability curve with chains of near-duplicate breakpoints.

    As in availability curves built from near-coincident releases, each
    chain of ``B`` lies inside a piece of the workload ``c`` or starts at
    one of its release times, so the running-min recursion meets interior
    breakpoints of ``B`` within EPS of the last emitted point.  ``B`` stays
    uncanonicalized: canonicalization would fold most of them away.
    """
    chains = draw(time_chains())
    times = [chain[0] for chain in chains if draw(st.booleans())]
    xs = np.unique(np.concatenate([[0.0]] + chains))
    rho = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                        min_size=xs.size - 1, max_size=xs.size - 1))
    ys = np.concatenate(([0.0], np.cumsum(np.asarray(rho) * np.diff(xs))))
    fs = draw(st.floats(min_value=0.0, max_value=1.0))
    B = Curve.from_breakpoints(xs, ys, fs, canonicalize=False)
    return B, Curve.step_from_times(times, draw(heights))


@settings(max_examples=60)
@given(
    st.one_of(st.tuples(bounded_rate_curves(), step_curves()),
              clustered_service_inputs()),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_service_transform_bit_identical(inputs, lag):
    B, c = inputs
    assert_matches(
        service_transform(B, c, lag=lag, t_end=120.0),
        ref.service_transform(ref.table(B), ref.table(c), lag, 120.0),
    )


def test_service_transform_fallback_bit_identical():
    """The EPS guard of ``service_transform`` matches the oracle.

    ``B`` carries two breakpoints 1e-12 apart on the active branch, so
    consecutive candidate emissions of the running-min recursion fall
    within EPS and the guard drops the second one.
    """
    B = Curve.from_breakpoints(
        [0, 1, 1 + 1e-12, 5], [0, 1, 1 + 5e-13, 2], 0.5, canonicalize=False
    )
    c = Curve.step_from_times([0, 0.5, 3], 0.2)
    t_end = 20.0
    u, _, _ = _running_min_branch(B, c, t_end + EPS)
    assert 1.0 in u and 1 + 1e-12 not in u
    assert_matches(
        service_transform(B, c, 0.0, t_end),
        ref.service_transform(ref.table(B), ref.table(c), 0.0, t_end),
    )


def test_service_transform_guard_chain_bit_identical():
    """A chain of candidates, each within EPS of the previous one.

    The guard measures each candidate from the last *kept* point: of the
    breakpoints at 1 + 4e-10 and 1 + 8e-10 (within EPS of 1) both are
    dropped, and 1 + 1.2e-9, within EPS of its predecessor but not of 1,
    is kept.
    """
    chain = [1.0, 1 + 4e-10, 1 + 8e-10, 1 + 1.2e-9]
    B = Curve.from_breakpoints(
        [0.0] + chain + [5.0],
        [0.0, 1.0, 1 + 2e-10, 1 + 4e-10, 1 + 6e-10, 2.0],
        0.5,
        canonicalize=False,
    )
    c = Curve.step_from_times([0, 0.5, 3], 0.2)
    t_end = 20.0
    u, _, _ = _running_min_branch(B, c, t_end + EPS)
    assert [t in u for t in chain] == [True, False, False, True]
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
