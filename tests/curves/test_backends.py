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
Exactly flat operands, alone and mixed with sloped ones, drive the
gather paths of the grid kernels.  Long exact plateaus, at ``+0.0``,
``-0.0`` and positive levels and joined by rises of one ulp up to EPS,
drive the flat-run pass of canonicalization; two property tests check
that points inside an exact plateau change neither the canonical form
nor any evaluation, and a third that canonicalizing any table changes
no evaluation but the tail that the final slope reaches within EPS.
``identity_minus``
reads its total's own breakpoints, so it is driven with a lateness at,
between and past them, totals with three or more points at one abscissa,
step sums with releases less than EPS apart, totals compacted to chords
with jumps, and totals that the ``exact`` mode refuses with the oracle's
message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from repro.curves import (
    EPS,
    Curve,
    identity_minus,
    kernels,
    service_transform,
    sum_curves,
)
from repro.curves.compact import MIN_BUDGET, compact
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
    (a ramp that the final slope continues loses one more point on each
    pass), so comparing a once-normalized curve against a rebuilt one
    would test idempotency, not the kernel.
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


@st.composite
def flat_curves(draw):
    """Piecewise-constant curves, as the grid kernels' gather takes them.

    Plateaus and jumps alternate from ``y[0] = 0.0`` or ``-0.0``; some of
    either are narrower than EPS, and some jumps have zero height.  Half
    the curves stay uncanonicalized, so zero-height jumps and plateaus
    split in two reach the kernels.
    """
    xs = [0.0]
    ys = [draw(st.sampled_from([0.0, -0.0]))]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        width = draw(st.one_of(st.sampled_from([1e-12, 6e-10]),
                               st.floats(min_value=0.01, max_value=5.0)))
        xs.append(xs[-1] + width)
        ys.append(ys[-1])
        if draw(st.booleans()):
            xs.append(xs[-1])
            ys.append(ys[-1] + draw(st.one_of(
                st.sampled_from([0.0, 1e-12, 6e-10]),
                st.floats(min_value=0.05, max_value=3.0),
            )))
    return Curve.from_breakpoints(xs, ys, 0.0, canonicalize=draw(st.booleans()))


#: Plateau widths: sub-EPS ones and ordinary ones.
plateau_widths = st.one_of(st.sampled_from([1e-12, 6e-10]),
                           st.floats(min_value=0.01, max_value=2.0))

#: Rises between plateaus: one ulp, at most EPS, or an ordinary step.
rise_heights = st.one_of(st.sampled_from(["ulp", 1e-12, 6e-10, EPS]),
                         st.floats(min_value=0.05, max_value=3.0))


@st.composite
def plateau_data(draw, rises=("jump", "ramp"), heights=rise_heights):
    """Raw (xs, ys, final_slope) of long exact plateaus.

    Each plateau repeats its level exactly over 2-14 more points: a
    positive level, or zero, where every point draws ``+0.0`` or ``-0.0``.
    Plateaus are joined by ``rises``: a jump, or a ramp of slope at most 1
    (so a ramp-only curve is a valid availability or total curve).  A
    rise of one ulp or up to EPS next to a plateau leaves its end points
    collinear within EPS but not flat, so the flat-run pass keeps them.
    With jumps only, the final slope is 0 and the curve a step.
    """
    level = draw(st.sampled_from([0.0, -0.0, 0.7]))
    xs, ys = [0.0], [level]
    for k in range(draw(st.integers(min_value=1, max_value=4))):
        if k:
            h = draw(heights)
            top = float(np.nextafter(level, math.inf)) if h == "ulp" else level + h
            if draw(st.sampled_from(rises)) == "jump":
                xs.append(xs[-1])
            else:
                xs.append(xs[-1] + max(top - level, draw(plateau_widths)))
            ys.append(top)
            level = top
        for _ in range(draw(st.integers(min_value=2, max_value=14))):
            xs.append(xs[-1] + draw(plateau_widths))
            ys.append(draw(st.sampled_from([0.0, -0.0])) if level == 0 else level)
    fs = 0.0 if "ramp" not in rises else draw(st.sampled_from([0.0, 0.5, 1.0]))
    return np.asarray(xs), np.asarray(ys), fs


@st.composite
def plateau_curves(draw, rises=("jump", "ramp")):
    """Curves of :func:`plateau_data`, canonicalized or not."""
    xs, ys, fs = draw(plateau_data(rises))
    return Curve.from_breakpoints(xs, ys, fs, canonicalize=draw(st.booleans()))


any_curves = st.one_of(step_curves(), general_curves())

#: Sum operands that all take the flat path, or only some of them.
flat_operand_lists = st.lists(st.one_of(flat_curves(), step_curves()),
                              min_size=2, max_size=8)
mixed_operand_lists = st.lists(st.one_of(flat_curves(), general_curves()),
                               min_size=2, max_size=5)

#: A flat curve on ``[0, 1)`` at ``-0.0``: its right values there read
#: ``+0.0`` in the oracle, ``-0.0 + frac * 0.0``.
NEGATIVE_ZERO_FLAT = Curve.from_breakpoints(
    [0.0, 1.0, 1.0, 2.5], [-0.0, -0.0, 1.0, 1.0], 0.0, canonicalize=False
)

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


@settings(max_examples=150)
@given(st.one_of(raw_breakpoint_data(), plateau_data(),
                 plateau_data(rises=("ramp",))))
def test_normalize_bit_identical(data):
    xs, ys, fs = data
    assert_matches(Curve.from_breakpoints(xs, ys, fs), ref.normalize(xs, ys, fs))


@st.composite
def plateau_insertions(draw, rises=("jump", "ramp"), heights=rise_heights):
    """Plateau data, and the same with 1-8 more points inside one plateau.

    The new points lie strictly inside a segment of positive width whose
    two ends hold exactly equal values, and repeat that value (at zero,
    each with a drawn sign).
    """
    xs, ys, fs = draw(plateau_data(rises, heights))
    flat = np.flatnonzero((xs[1:] > xs[:-1]) & (ys[1:] == ys[:-1]))
    i = int(draw(st.sampled_from(flat.tolist())))
    fracs = draw(st.lists(st.floats(min_value=0.01, max_value=0.99),
                          min_size=1, max_size=8))
    new = np.unique(xs[i] + np.asarray(fracs) * (xs[i + 1] - xs[i]))
    new = new[(new > xs[i]) & (new < xs[i + 1])]
    level = ys[i]
    new_y = [draw(st.sampled_from([0.0, -0.0])) if level == 0 else level
             for _ in new]
    more_x = np.concatenate((xs[: i + 1], new, xs[i + 1:]))
    more_y = np.concatenate((ys[: i + 1], new_y, ys[i + 1:]))
    return (xs, ys, fs), (more_x, more_y, fs)


#: Values to invert at: arbitrary ones, signed zeros and infinity.
value_lists = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=20.0),
              st.sampled_from([0.0, -0.0, math.inf])),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100)
@given(plateau_insertions())
def test_plateau_points_keep_canonical_form(data):
    # Next to any rise, sub-EPS ones included: the flat-run pass drops
    # every point inside an exact plateau.
    (xs, ys, fs), (more_x, more_y, _) = data
    want = Curve.from_breakpoints(xs, ys, fs).breakpoints()
    got = Curve.from_breakpoints(more_x, more_y, fs).breakpoints()
    assert_same_floats(got.x, want.x)
    assert_same_floats(got.y, want.y)


@settings(max_examples=150)
@given(plateau_data(rises=("jump",)))
def test_canonical_form_keeps_a_step_a_step(data):
    xs, ys, fs = data
    assert Curve.from_breakpoints(xs, ys, fs).is_step()


#: Step breakpoints whose rises of at most EPS add up to more than EPS:
#: an ulp jump and an EPS jump a few ulps of time apart; an EPS jump whose
#: plateau then climbs by less than EPS.
SUB_EPS_RISES = [
    ([0.0, 1e-12, 2e-12, 2e-12, 3e-12, 4e-12, 4e-12, 1.000000000004,
      1.000000000005],
     [0.7, 0.7, 0.7, 0.7000000000000001, 0.7000000000000001,
      0.7000000000000001, 0.700000001, 0.700000001, 0.700000001]),
    ([0.0, 1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 6e-10, 1.2e-9, 1.0]),
]


@pytest.mark.parametrize("xs, ys", SUB_EPS_RISES)
def test_sub_eps_rises_keep_a_step_a_step(xs, ys):
    """Canonicalization leaves no ramp that ``service_transform`` refuses."""
    c = Curve.from_breakpoints(xs, ys, 0.0)
    assert c.is_step()
    assert_matches(c, ref.normalize(xs, ys, 0.0))
    B = Curve.identity()
    assert_matches(
        service_transform(B, c, lag=0.0, t_end=120.0),
        ref.service_transform(ref.table(B), ref.table(c), 0.0, 120.0),
    )


@settings(max_examples=150)
@given(plateau_insertions(), query_lists, value_lists)
def test_plateau_points_change_no_evaluation(data, ts, vs):
    """Points inside an exact plateau are invisible to every evaluation.

    This is why the flat-run pass of canonicalization is exact.  The
    curves are left uncanonicalized, so no other rule plays a part.
    Queries are the breakpoints and segment midpoints of the longer curve,
    drawn times, ``-0.0`` and ``+inf``; values are its breakpoint values,
    drawn values and signed zeros.
    """
    (xs, ys, fs), (more_x, more_y, _) = data
    base = Curve.from_breakpoints(xs, ys, fs, canonicalize=False)
    more = Curve.from_breakpoints(more_x, more_y, fs, canonicalize=False)
    mid = ((more_x[1:] + more_x[:-1]) / 2.0).tolist()
    q = np.asarray(ts + more_x.tolist() + mid + [-0.0, math.inf])
    v = np.asarray(vs + more_y.tolist() + [0.0, -0.0])
    assert_same_floats(more.value(q), base.value(q))
    assert_same_floats(more.value_left(q), base.value_left(q))
    assert_same_floats(more.first_crossing(v), base.first_crossing(v))
    assert_same_floats(more.last_below(v), base.last_below(v))


#: Segment widths: one ulp of the abscissa, sub-EPS ones, ordinary ones.
boundary_widths = st.one_of(st.sampled_from(["ulp", 1e-12, 6e-10]),
                            st.floats(min_value=0.01, max_value=3.0))

#: Rises of jumps and ramps: zero, one ulp, up to EPS, ordinary.
boundary_rises = st.one_of(st.sampled_from([0.0, "ulp", 1e-12, 6e-10, EPS]),
                           st.floats(min_value=0.05, max_value=3.0))

#: Misses of a ramp that continues the one before: exact, within EPS,
#: just past it.
boundary_misses = st.sampled_from([0.0, 4e-10, -4e-10, EPS, 2e-9])


def _up(v: float) -> float:
    return float(np.nextafter(v, math.inf))


@st.composite
def eps_boundary_data(draw):
    """Raw (xs, ys, final_slope) at the EPS boundary of canonicalization.

    Segments are jumps, exact plateaus, ramps, and ramps that continue
    the slope before them to within EPS; rises include zero, one ulp and
    sub-EPS ones, abscissae may lie one ulp apart, and values at zero
    carry either sign.  The final slope is drawn, or reaches the last
    point from the one before to within EPS or just past it.
    """
    x, y = 0.0, draw(st.sampled_from([0.0, -0.0, 0.7]))
    xs, ys, slope = [x], [y], 0.5
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(["jump", "plateau", "ramp", "straight"]))
        nx = x
        if kind != "jump":
            w = draw(boundary_widths)
            nx = _up(x) if w == "ulp" else x + w
        if kind == "plateau":
            ny = draw(st.sampled_from([0.0, -0.0])) if y == 0 else y
        elif kind == "straight":
            ny = max(y, y + slope * (nx - x) + draw(boundary_misses))
        else:
            h = draw(boundary_rises)
            ny = _up(y) if h == "ulp" else y + h
        if nx > x and ny > y:
            slope = min(2.0, (ny - y) / (nx - x))
        x, y = nx, ny
        xs.append(x)
        ys.append(y)
    fs = draw(st.sampled_from([0.0, 0.5, 1.0, "reach"]))
    if fs == "reach":
        width = xs[-1] - xs[-2]
        miss = draw(boundary_misses)
        fs = min(2.0, max(0.0, (ys[-1] - ys[-2] + miss) / width)) if width else 0.0
    return np.asarray(xs), np.asarray(ys), fs


def _within_eps(got, want) -> bool:
    """Equal, or apart by EPS and the rounding of two evaluations."""
    return all(
        a == b or abs(a - b) <= EPS + 8 * math.ulp(max(abs(a), abs(b)))
        for a, b in zip(got.tolist(), want.tolist())
    )


@settings(max_examples=300)
@given(eps_boundary_data(), query_lists, value_lists)
@example(([0.0, 1.0, 2.0, 3.0], [0.0, 0.5 + 4e-10, 1.0, 1.2], 0.0),
         [1.0], [0.5])
@example(([0.0, 1.0, 32001.0], [0.0, 1.0, 1.0000288], 0.0), [32001.0], [1.0])
def test_canonical_form_changes_no_evaluation(data, ts, vs):
    """Canonicalizing a table changes no evaluation but a tail within EPS.

    ``value``, ``value_left``, ``first_crossing`` and ``last_below`` read
    the same bits before and after, at the table's breakpoints, their
    midpoints, drawn times, ``-0.0`` and ``+inf``, and at its values,
    drawn values and signed zeros.  The one exception is a final point
    dropped because the final slope reaches it within EPS: past the last
    kept point values may then differ by EPS, and so may an inverse whose
    search reaches past that point.
    """
    xs, ys, fs = data
    raw = Curve.from_breakpoints(xs, ys, fs, canonicalize=False)
    canon = Curve.from_breakpoints(xs, ys, fs)
    bx, by = raw.breakpoints()
    q = np.asarray(ts + bx.tolist() + ((bx[1:] + bx[:-1]) / 2.0).tolist()
                   + [-0.0, math.inf])
    v = np.asarray(vs + by.tolist() + [0.0, -0.0])
    x_end, y_end = canon.x_end, canon.y_end
    head = q <= x_end if x_end < raw.x_end else np.ones(q.size, dtype=bool)
    for evaluate in (Curve.value, Curve.value_left):
        assert_same_floats(evaluate(canon, q[head]), evaluate(raw, q[head]))
        assert _within_eps(evaluate(canon, q[~head]), evaluate(raw, q[~head]))
    fc, lb = v, v
    if x_end < raw.x_end:
        fc, lb = v[v - EPS <= y_end], v[v + EPS < y_end]
    assert_same_floats(canon.first_crossing(fc), raw.first_crossing(fc))
    assert_same_floats(canon.last_below(lb), raw.last_below(lb))


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


@settings(max_examples=100)
@given(st.one_of(st.lists(any_curves, min_size=2, max_size=4),
                 sharing_operand_lists(), flat_operand_lists,
                 mixed_operand_lists,
                 st.lists(st.one_of(plateau_curves(), any_curves),
                          min_size=2, max_size=4)))
@example([NEGATIVE_ZERO_FLAT, Curve.step_from_times([0.5, 1.0, 1.0 + 1e-12], 0.3)])
@example([NEGATIVE_ZERO_FLAT, Curve.from_breakpoints([0, 2], [0, 1], 0.5)])
def test_sum_curves_bit_identical(curves):
    assert_matches(
        sum_curves(curves), ref.sum_curves([ref.table(c) for c in curves])
    )


@settings(max_examples=100)
@given(st.one_of(any_curves, flat_curves(), plateau_curves()),
       st.one_of(any_curves, flat_curves(), plateau_curves()))
@example(NEGATIVE_ZERO_FLAT, Curve.step_from_times([0.5, 3.0], 0.3))
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


#: Flat totals, like the higher-priority workload sums of the approximate
#: methods, scaled by 0.1-0.9, in the modes that accept jumps.
flat_totals = st.tuples(
    st.builds(lambda curves, k: sum_curves(curves).scale(k),
              flat_operand_lists, st.floats(min_value=0.1, max_value=0.9)),
    st.sampled_from(["lower", "upper"]),
)

#: Step sums whose releases come in chains less than EPS apart, at
#: heights down to sub-EPS ones.
near_release_totals = st.tuples(
    st.builds(sum_curves,
              st.lists(st.builds(Curve.step_from_times, clustered_times,
                                 st.one_of(st.sampled_from([1e-12, 6e-10]),
                                           st.floats(0.05, 0.6))),
                       min_size=2, max_size=6)),
    st.sampled_from(["lower", "upper"]),
)


@st.composite
def compacted_totals(draw):
    """Step sums compacted to chords: non-flat totals with jumps.

    As the analyses cap them, the max-count total is compacted upward and
    feeds the lower closure, the min-count one downward and feeds the
    upper closure.
    """
    curves = draw(st.lists(step_curves(), min_size=2, max_size=5))
    total = sum_curves(curves).scale(draw(st.floats(0.1, 0.9)))
    direction, mode = draw(st.sampled_from([("upper", "lower"),
                                            ("lower", "upper")]))
    budget = draw(st.integers(min_value=MIN_BUDGET, max_value=16))
    return compact(total, direction, budget=budget, shape="linear"), mode


@st.composite
def stacked_totals(draw):
    """Uncanonicalized totals with three or more points on one abscissa.

    Ramps of slope at most 1 alternate with stacks of 3-5 points at one
    abscissa, rising by zero (a zero-height jump) or by a step.  With
    zero-height stacks only, the total is continuous and valid in
    ``exact`` mode.
    """
    xs, ys = [0.0], [0.0]
    jumpy = False
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        width = draw(st.floats(min_value=0.01, max_value=3.0))
        xs.append(xs[-1] + width)
        ys.append(ys[-1] + width * draw(st.floats(min_value=0.0, max_value=1.0)))
        for _ in range(draw(st.integers(min_value=2, max_value=4))):
            rise = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
            jumpy = jumpy or rise > 0.0
            xs.append(xs[-1])
            ys.append(ys[-1] + rise)
    fs = draw(st.sampled_from([0.0, 0.5, 1.0]))
    total = Curve.from_breakpoints(xs, ys, fs, canonicalize=False)
    modes = ["lower", "upper"] if jumpy else ["exact", "lower", "upper"]
    return total, draw(st.sampled_from(modes))


@st.composite
def refused_totals(draw):
    """Totals the ``exact`` mode must refuse, or accept as float noise.

    A jump, a final slope above 1, or a ramp steep enough for ``h`` to
    dip; the dip may be as small as 1e-7, where refusal starts.
    """
    kind = draw(st.sampled_from(["jump", "final_slope", "steep"]))
    if kind == "jump":
        total = Curve.step_from_times(draw(times_strategy), draw(heights))
    elif kind == "final_slope":
        total = Curve.from_breakpoints(
            [0.0], [0.0], draw(st.floats(min_value=1.0, max_value=3.0)))
    else:
        x0 = draw(st.floats(min_value=0.01, max_value=3.0))
        width = draw(st.floats(min_value=1e-3, max_value=2.0))
        dip = draw(st.sampled_from([5e-8, 1e-7, 2e-7, 0.5]))
        total = Curve.from_breakpoints(
            [0.0, x0, x0 + width], [0.0, 0.5 * x0, 0.5 * x0 + width + dip],
            draw(st.floats(min_value=0.0, max_value=1.0)))
    return total, "exact"


@st.composite
def identity_minus_inputs(draw):
    """A total, a mode, and a lateness.

    The lateness is drawn freely, or is one of the total's abscissae,
    strictly between two of them, or past the last one: the grid of
    ``identity_minus`` is the total's own abscissae plus the lateness.
    """
    total, mode = draw(st.one_of(
        st.tuples(st.one_of(bounded_rate_curves(),
                            plateau_curves(rises=("ramp",))),
                  st.sampled_from(["exact", "lower", "upper"])),
        flat_totals,
        st.tuples(plateau_curves(), st.sampled_from(["lower", "upper"])),
        st.tuples(general_curves(), st.sampled_from(["lower", "upper"])),
        near_release_totals,
        compacted_totals(),
        stacked_totals(),
        refused_totals(),
    ))
    xs = np.unique(total.breakpoints().x)
    where = draw(st.sampled_from(["free", "at", "between", "past"]))
    if where == "at":
        lateness = float(draw(st.sampled_from(xs.tolist())))
    elif where == "between" and xs.size > 1:
        i = draw(st.integers(min_value=0, max_value=xs.size - 2))
        frac = draw(st.floats(min_value=0.01, max_value=0.99))
        lateness = float(xs[i] + frac * (xs[i + 1] - xs[i]))
    elif where == "past":
        lateness = float(xs[-1] + draw(st.floats(min_value=1e-3, max_value=3.0)))
    else:
        lateness = draw(st.floats(min_value=0.0, max_value=3.0))
    return total, mode, lateness


#: A ramp of ``h`` that starts below zero and ends above its earlier
#: peak: after a jump of 3 at 1.3 the total rises by 0.4 up to 9.7, so
#: ``h`` crosses zero on the ramp, at 3.19, and then catches up with the
#: peak 1.2, at 4.45.  The upper closure measures the catch-up from the
#: crossing, not from the foot of the jump (2.93).
CATCH_UP_TOTAL = Curve.from_breakpoints(
    [0.0, 1.3, 1.3, 9.7, 9.7], [0.0, 0.1, 3.1, 3.5, 4.2], 0.3
)


@settings(max_examples=200)
@given(identity_minus_inputs())
@example((NEGATIVE_ZERO_FLAT.scale(0.5), "upper", 0.0))
@example((CATCH_UP_TOTAL, "upper", 0.0))
# The left limit at the jump is 0.3 + (0.9 - 0.3), one ulp above 0.9.
@example((Curve.from_breakpoints([0, 2, 3, 3], [0, 0.3, 0.9, 1.9], 0.0),
          "upper", 0.0))
@example((Curve.from_breakpoints([0, 1, 1, 1, 2], [0, 0.5, 0.5, 0.5, 1.0], 0.5,
                                 canonicalize=False), "exact", 1.0))
def test_identity_minus_bit_identical(inputs):
    """Byte-identical to the oracle, or refused with the oracle's message.

    Both refuse with a ``ValueError`` (the kernel's ``CurveError`` is one).
    """
    total, mode, lateness = inputs
    try:
        want = ref.identity_minus(ref.table(total), lateness, mode)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            identity_minus(total, lateness=lateness, mode=mode)
        assert str(got.value) == str(exc)
        return
    assert_matches(identity_minus(total, lateness=lateness, mode=mode), want)


def test_identity_minus_emits_one_point_per_abscissa():
    """On a 16-operand step total the kernel emits no jump pairs.

    Its raw output holds one point at each distinct abscissa of the total
    plus the points it inserts (zero crossings, catch-up points), all
    strictly increasing: canonicalization would drop the second point of
    every jump pair again.
    """
    total = sum_curves([
        Curve.step_from_times(0.013 * j + np.arange(40.0), 0.05)
        for j in range(16)
    ])
    grid = np.unique(total.breakpoints().x)
    for mode in ("lower", "upper"):
        xs = kernels.identity_minus(total, 0.0, mode)[0]
        assert np.all(np.diff(xs) > 0.0)
        assert np.isin(grid, xs).all()
        assert xs.size > grid.size  # h crosses zero in the first burst
        assert_matches(
            identity_minus(total, mode=mode),
            ref.identity_minus(ref.table(total), 0.0, mode),
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
              clustered_service_inputs(),
              st.tuples(plateau_curves(rises=("ramp",)),
                        st.one_of(step_curves(), plateau_curves(rises=("jump",))))),
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
@given(st.one_of(step_curves(), plateau_curves(rises=("jump",))),
       st.floats(min_value=0.1, max_value=2.0))
def test_fcfs_service_bounds_bit_identical(c, tau):
    lower, upper = fcfs_service_bounds(c, c, tau, t_end=120.0)
    want_lower, want_upper = ref.fcfs_service_bounds(
        ref.table(c), ref.table(c), tau, 120.0
    )
    assert_matches(lower, want_lower)
    assert_matches(upper, want_upper)
