"""Vectorized curve kernels over NumPy breakpoint arrays.

The numerical core of the curve algebra: canonical-form construction,
point evaluation, the pseudo-inverse, structure queries, and the four
curve-valued operators -- sums, minima, the ``identity_minus``
availability closures and the paper's min-plus ``service_transform``
(Theorems 3/5/6/7).  :class:`~repro.curves.curve.Curve` and
:mod:`repro.curves.ops` call these functions directly.

Kernels take the parallel ``x``/``y`` float64 arrays a curve stores (or,
for the curve-valued operators, whole curve operands) and return arrays;
the curve-valued operators return the raw ``(x, y, final_slope)`` of
their result, which :mod:`repro.curves.ops` freezes into a curve.  Every
array expression here is pinned by the golden analysis results and by a
scalar reference implementation in the test suite, so keep the operation
order intact when editing a kernel, or regenerate the goldens
deliberately.

Construction (:func:`normalize`) validates and noise-clamps breakpoints,
then canonicalizes them (:func:`_canonicalize`).  Canonicalization is
exact: it drops only the breakpoints that no evaluation can see -- a
third point at one abscissa, the top of a jump of height exactly zero
and the interior of an exactly flat run -- plus a final point that the
final slope reaches within :data:`EPS`, the one tolerance, stated in
value units.  Jumps are exactly equal abscissae and never move, and a
ramp keeps every point its values need.  Under bursty arrivals most of
a service or availability curve is flat runs.  The curve-valued
operators hand their fresh outputs over (``owned``), so a result is
clamped in place and copied only when canonicalization drops a point or
the array is not contiguous.

The operators that evaluate their operands on a union grid of the
operands' own breakpoints (:func:`sum_curves`, :func:`min_curves`)
locate each operand's breakpoints in the grid and count them, instead
of searching the operand for every grid point (:func:`_eval_on_grid`).
An operand that is exactly piecewise constant (:func:`_is_flat`), such
as a workload step envelope, is read off the grid instead of
interpolated, and :func:`sum_curves` over such operands adds right
values only, taking each left limit from the grid point before.  The
input picks the path: continuous operands, such as service curves, are
interpolated.

:func:`identity_minus` has a single operand, so its grid is that
operand's distinct abscissae (plus ``lateness``), its values are read
off the operand's own breakpoints, bit for bit what
:func:`_eval_on_grid` computes there, and it emits one point per
abscissa, not a pair where the operand jumps; its docstring says why
that is exact.

:func:`service_transform` assembles the emissions of its running-min
recursion positionally with ``cumsum``/``repeat``
(:func:`_running_min_branch`), then applies the EPS guard of the scalar
emission loop in the test oracle: an interior breakpoint of ``B`` is
emitted only when it lies more than :data:`EPS` past the last emitted
point, so curves with breakpoints a few ulps apart lose the near
duplicates.  Only candidates within EPS of their predecessor need a look
back at the last kept point; every other candidate is kept outright.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "EPS",
    "CurveError",
    "normalize",
    "check_invariants",
    "step_from_times",
    "eval_right",
    "eval_left",
    "first_crossing",
    "last_below",
    "is_step",
    "is_continuous",
    "jump_times",
    "lipschitz",
    "sum_curves",
    "min_curves",
    "identity_minus",
    "service_transform",
]

#: Absolute tolerance used when canonicalizing and comparing breakpoints.
EPS = 1e-9


class CurveError(ValueError):
    """Raised when curve data violates the class invariants."""


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def _union_grid(arrays: Sequence[np.ndarray], t_end: float = math.inf) -> np.ndarray:
    parts = [np.asarray(a, dtype=float) for a in arrays if np.size(a)]
    if not parts:
        return np.array([0.0])
    grid = np.unique(np.concatenate(parts))
    grid = grid[(grid >= 0.0) & (grid <= t_end)]
    if grid.size == 0 or grid[0] > 0.0:
        grid = np.concatenate(([0.0], grid))
    # NOTE: exact duplicates are already collapsed by np.unique; points
    # closer than EPS must NOT be merged here -- a jump sitting just after
    # a merged abscissa would be evaluated pre-jump and silently dropped.
    return grid


def _interleave(
    xs: np.ndarray, left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Build breakpoint arrays emitting a jump wherever right > left."""
    jump = right > left + EPS
    n = xs.size + int(np.count_nonzero(jump))
    out_x = np.empty(n)
    out_y = np.empty(n)
    pos = np.arange(xs.size) + np.concatenate(([0], np.cumsum(jump[:-1])))
    out_x[pos] = xs
    out_y[pos] = np.where(jump, left, right)
    jpos = pos[jump] + 1
    out_x[jpos] = xs[jump]
    out_y[jpos] = right[jump]
    return out_x, out_y


def _eval_piecewise(
    xq: np.ndarray, xs: np.ndarray, ys: np.ndarray, final_slope: float
) -> np.ndarray:
    """Evaluate a continuous piecewise-linear table at query points."""
    out = np.interp(xq, xs, ys)
    beyond = xq > xs[-1]
    if np.any(beyond):
        out[beyond] = ys[-1] + final_slope * (xq[beyond] - xs[-1])
    return out


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def normalize(x, y, final_slope: float, canonicalize: bool, owned: bool = False):
    """Validate, noise-clamp and (optionally) canonicalize breakpoints.

    Raises :class:`CurveError` on invalid input, non-finite numbers
    included; returns contiguous ``(x, y, final_slope)`` the curve will
    freeze.  The input arrays are copied unless ``owned`` hands them
    over: a kernel's fresh outputs are clamped in place and kept when
    canonicalization drops nothing.
    """
    xs = _as_float_array(x)
    ys = _as_float_array(y)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
        raise CurveError(
            f"x and y must be equal-length non-empty 1-D arrays, got "
            f"shapes {xs.shape} and {ys.shape}"
        )
    if not math.isfinite(final_slope) or final_slope < -EPS:
        raise CurveError(
            f"final_slope must be finite and >= 0, got {final_slope}"
        )
    if not abs(xs[0]) <= EPS:
        raise CurveError(f"curve domain must start at 0, got x[0]={xs[0]}")
    # The ends are checked before the diffs below, which would read
    # ``inf - inf`` at an infinite end.  Between finite ends an infinity
    # leaves a diff of -inf (not non-decreasing) or NaN, as a NaN does.
    if not (
        math.isfinite(xs[-1]) and math.isfinite(ys[0]) and math.isfinite(ys[-1])
    ):
        raise CurveError("breakpoints must be finite")
    if not owned:
        xs = xs.copy()
        ys = ys.copy()
    xs[0] = 0.0
    if xs.size > 1:
        # Clamp tiny negative diffs introduced by floating point noise.  A
        # running maximum leaves an array without negative diffs (NaN
        # aside) bit for bit as it is: on a tie NumPy keeps the new value.
        for arr, name in ((xs, "x"), (ys, "y")):
            low = (arr[1:] - arr[:-1]).min()
            if low < -EPS:
                raise CurveError(f"{name} must be non-decreasing")
            if not low >= 0.0:
                if math.isnan(low):
                    raise CurveError("breakpoints must be finite")
                np.maximum.accumulate(arr, out=arr)
    final_slope = max(0.0, float(final_slope))
    if canonicalize:
        xs, ys = _canonicalize(xs, ys, final_slope)
    return np.ascontiguousarray(xs), np.ascontiguousarray(ys), final_slope


def _drop(x: np.ndarray, y: np.ndarray, inner: np.ndarray):
    """``x`` and ``y`` without the interior points flagged in ``inner``."""
    keep = np.ones(x.size, dtype=bool)
    keep[1:-1] = ~inner
    return x[keep], y[keep]


def _canonicalize(
    x: np.ndarray, y: np.ndarray, final_slope: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop the breakpoints that no evaluation can see.

    1. Of a run of more than two points at one abscissa keep the first
       and the last.  Jumps are encoded by *exactly* equal abscissae, and
       abscissae closer than :data:`EPS` are never merged, so
       canonicalization never moves a jump in time.
    2. Drop the upper point of a jump of height exactly zero (the same
       value, zeros of one sign).
    3. Drop every interior point of an exactly flat run (equal values,
       increasing abscissae).  On such a run every ramp term is
       ``frac * 0.0``, and a search of ``y`` lands on a run's first or
       past its last point, never inside it.
    4. Drop the final point, when it ends a ramp, if the final slope
       reaches its value within :data:`EPS`:
       ``abs(y[-1] - y[-2] - final_slope * (x[-1] - x[-2])) <= EPS``.

    Rules 1-3 are exact: :func:`eval_right`, :func:`eval_left`,
    :func:`first_crossing` and :func:`last_below` read the same bits with
    or without the points they drop.  Rule 4 is the one tolerance:
    past the last kept point the curve may read up to :data:`EPS` off its
    data, so that float noise at the end of a kernel output does not
    make two otherwise equal curves differ.

    The arrays are indexed only when a rule drops something.
    """
    if x.size == 1:
        return x, y
    # 1. For runs of exactly-equal abscissae keep only the first and
    #    last point (y is non-decreasing, so these are the extremes).
    same = x[1:] == x[:-1]
    inner = same[:-1] & same[1:]
    if inner.any():
        x, y = _drop(x, y, inner)
        same = x[1:] == x[:-1]
    # 2. Drop the upper point of zero-height jumps: equal bits, since a
    #    query at -0.0 reads the sign of a zero at abscissa 0.
    bits = y.view(np.int64)
    dup = same & (bits[1:] == bits[:-1])
    if dup.any():
        keep = np.ones(x.size, dtype=bool)
        keep[1:] = ~dup
        x = x[keep]
        y = y[keep]
    # 3. Drop every point between two of the same value at smaller and
    #    larger abscissae.
    if x.size >= 3:
        run = (x[1:] > x[:-1]) & (y[1:] == y[:-1])
        flat = run[:-1] & run[1:]
        if flat.any():
            x, y = _drop(x, y, flat)
    # 4. Final point redundant if the final slope reaches it within EPS.
    if (
        x.size >= 2
        and x[-1] > x[-2]
        and abs(y[-1] - y[-2] - final_slope * (x[-1] - x[-2])) <= EPS
    ):
        x = x[:-1]
        y = y[:-1]
    return x, y


def check_invariants(x, y, final_slope: float) -> None:
    """Raise :class:`CurveError` when the canonical-form invariants break."""
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise CurveError(
            f"invariant: x/y must be equal-length non-empty 1-D arrays, "
            f"got shapes {x.shape} and {y.shape}"
        )
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise CurveError("invariant: breakpoints must be finite")
    if x[0] != 0.0:
        raise CurveError(f"invariant: x[0] must be 0, got {x[0]}")
    if x.size > 1:
        if np.any(np.diff(x) < 0.0):
            raise CurveError("invariant: x must be non-decreasing")
        if np.any(np.diff(y) < 0.0):
            raise CurveError("invariant: y must be non-decreasing")
        if x.size > 2 and np.any((x[2:] == x[:-2])):
            i = int(np.argmax(x[2:] == x[:-2]))
            raise CurveError(
                f"invariant: abscissa {x[i]} appears more than twice"
            )
    if not math.isfinite(final_slope) or final_slope < 0.0:
        raise CurveError(
            f"invariant: final_slope must be finite and >= 0, "
            f"got {final_slope}"
        )


def step_from_times(times, height: float):
    """Breakpoints of the cumulative step curve; ``None`` without times.

    Returns fresh ``(x, y, canonical)``: ``(0, 0)``, then the foot and
    the top of one jump per distinct time, where a jump at 0 starts from
    ``(0, 0)`` itself.  ``canonical`` reports whether every cumulative
    height is strictly above the one before, which makes the breakpoints
    canonical: no jump is of height zero and no run is flat.
    """
    ts = np.sort(_as_float_array(times)) if np.size(times) else np.empty(0)
    if ts.size == 0:
        return None
    if ts[0] < -EPS:
        raise CurveError("release times must be non-negative")
    if height <= 0:
        raise CurveError("step height must be positive")
    ts = np.maximum(ts, 0.0)
    uniq, counts = np.unique(ts, return_counts=True)
    n = uniq.size
    xs = np.empty(2 * n + 1)
    ys = np.empty(2 * n + 1)
    xs[0] = 0.0
    ys[0] = 0.0
    xs[1::2] = uniq
    xs[2::2] = uniq
    cum = np.cumsum(counts) * float(height)
    ys[1::2] = np.concatenate(([0.0], cum[:-1]))
    ys[2::2] = cum
    canonical = cum[0] > 0.0 and bool((cum[1:] > cum[:-1]).all())
    if uniq[0] == 0.0:  # the foot of the jump at 0 is (0, 0)
        return xs[1:], ys[1:], canonical
    return xs, ys, canonical


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def eval_right(x, y, final_slope: float, ts):
    """Right-continuous values at query points ``ts`` (array in/out)."""
    ts = np.asarray(ts, dtype=float)
    idx = np.searchsorted(x, ts, side="right") - 1
    return _eval_at(x, y, final_slope, ts, idx)


def eval_left(x, y, final_slope: float, ts):
    """Left limits at query points ``ts`` (array in/out)."""
    ts = np.asarray(ts, dtype=float)
    idx = np.searchsorted(x, ts, side="left") - 1
    return _eval_at(x, y, final_slope, ts, idx)


def _eval_at(x, y, final_slope, ts, idx):
    """Values at ``ts``, where ``idx`` is the segment each query falls in.

    Every lane interpolates on its segment, clamped into the table; lanes
    before the first breakpoint (``idx < 0``) or past the last one are then
    replaced.
    """
    last = x.size - 1
    x0 = x.take(idx, mode="clip")
    y0 = y.take(idx, mode="clip")
    nxt = idx + 1
    d = ts - x0
    # Inside the table x0 <= t < x1, so dx > 0; the clamped lanes before
    # and past it get dx = 0 here (0/0, inf * 0) and are replaced below.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = y0 + d / (x.take(nxt, mode="clip") - x0) * (
            y.take(nxt, mode="clip") - y0
        )
        # Past the table x0 = x[-1] and y0 = y[-1].  On a flat tail
        # ``0 * min(d, 1)`` is ``0 * d`` to the sign, but 0 at t = inf.
        tail = y0 + final_slope * (d if final_slope else np.minimum(d, 1.0))
    out = np.where(idx >= last, tail, out)
    return np.where(idx < 0, y[0], out)


def _is_flat(curve) -> bool:
    """True when ``curve`` is exactly piecewise constant.

    The test tolerates nothing, unlike :func:`is_step`: the final slope is
    ``0.0`` and ``y`` repeats exactly across every segment of positive
    width.  On such a curve the ramp interpolation of :func:`_eval_at`,
    ``y0 + frac * (y1 - y0)``, is ``y0 + frac * 0.0`` on every segment.
    """
    if curve._final_slope != 0.0:
        return False
    x, y = curve._x, curve._y
    return not ((x[1:] != x[:-1]) & (y[1:] != y[:-1])).any()


def _flat_on_grid(curve, grid):
    """Right values of a flat curve at every point of ``grid``.

    ``grid`` is sorted and holds every breakpoint of the curve, starting
    with ``x[0] = 0``, so breakpoint ``i`` holds from its grid position up
    to the next breakpoint's: a repeat instead of a gather of segment
    indices.  Of a jump's two breakpoints, the second holds.
    """
    pos = np.searchsorted(grid, curve._x)
    return np.repeat(curve._y, np.diff(pos, append=grid.size))


def _eval_on_grid(curve, grid):
    """Left limits and right values of ``curve`` at every point of ``grid``.

    ``grid`` is sorted and holds every breakpoint of ``curve``, so counting
    the breakpoints at each grid point yields the segment indices that
    :func:`eval_right` and :func:`eval_left` search for, at ``n log N``
    instead of ``2 N log n``.  The left limit differs from the right value
    only at the curve's own breakpoints, so it is evaluated only there.

    A flat curve (:func:`_is_flat`) is read off instead of interpolated:
    ``y0 + 0.0`` is ``y0 + frac * 0.0`` byte for byte, signed zeros
    included.  Its left limit at a grid point is its right value at the
    point before, since it is constant between the two; at ``grid[0] = 0``
    it is ``y[0]``, as in :func:`_eval_at`.
    """
    if _is_flat(curve):
        right = _flat_on_grid(curve, grid) + 0.0
        left = np.empty_like(right)
        left[0] = curve._y[0]
        left[1:] = right[:-1]
        return left, right
    x, y, fs = curve._x, curve._y, curve._final_slope
    counts = np.bincount(np.searchsorted(grid, x), minlength=grid.size)
    idx = np.cumsum(counts) - 1
    right = _eval_at(x, y, fs, grid, idx)
    left = right.copy()
    at = np.flatnonzero(counts)
    left[at] = _eval_at(x, y, fs, grid[at], idx[at] - counts[at])
    return left, right


def first_crossing(x, y, final_slope: float, vs):
    """Pseudo-inverse ``min{s : f(s) >= v}`` (array in/out)."""
    vs = np.asarray(vs, dtype=float).copy()
    out = np.empty_like(vs)

    # Allow for floating-point noise: a value within EPS of being
    # reached counts as reached.
    vq = vs - EPS

    easy = vq <= y[0]
    out[easy] = 0.0

    # First breakpoint with y >= v.
    idx = np.searchsorted(y, vq, side="left")
    beyond = idx >= y.size
    hard = beyond & ~easy
    if np.any(hard):
        if final_slope > EPS:
            out[hard] = x[-1] + (vs[hard] - y[-1]) / final_slope
        else:
            out[hard] = np.inf

    mid = ~easy & ~beyond
    if np.any(mid):
        j = idx[mid]
        x0 = x[j - 1]
        x1 = x[j]
        y0 = y[j - 1]
        y1 = y[j]
        dy = y1 - y0
        # Jump segment (x0 == x1): crossing happens exactly at the jump.
        # Ramp segment: linear interpolation.
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(
                dy > 0.0, (vs[mid] - y0) / np.where(dy > 0.0, dy, 1.0), 1.0
            )
        frac = np.clip(frac, 0.0, 1.0)
        out[mid] = x0 + frac * (x1 - x0)
    return np.maximum(out, 0.0)


def last_below(x, y, final_slope: float, vs):
    """Supremum of ``{t : f(t) <= v}`` (array in/out)."""
    vs = np.asarray(vs, dtype=float).copy()
    out = np.empty_like(vs)
    vq = vs + EPS

    # First breakpoint with y > v (strictly): the bound lives just
    # before it.
    idx = np.searchsorted(y, vq, side="right")
    beyond = idx >= y.size
    if np.any(beyond):
        sel = beyond
        if final_slope > EPS:
            out[sel] = x[-1] + np.maximum(vs[sel] - y[-1], 0.0) / final_slope
        else:
            out[sel] = np.inf

    mid = ~beyond
    if np.any(mid):
        j = idx[mid]
        first = j == 0
        x0 = x[np.maximum(j - 1, 0)]
        x1 = x[j]
        y0 = y[np.maximum(j - 1, 0)]
        y1 = y[j]
        dy = y1 - y0
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(
                dy > EPS, (vs[mid] - y0) / np.where(dy > EPS, dy, 1.0), 1.0
            )
        frac = np.clip(frac, 0.0, 1.0)
        res = x0 + frac * (x1 - x0)
        res = np.where(first, 0.0, res)
        out[mid] = res
    return np.maximum(out, 0.0)


# ----------------------------------------------------------------------
# structure queries
# ----------------------------------------------------------------------


def is_step(x, y, final_slope: float, tol: float) -> bool:
    """True when the curve is piecewise constant."""
    if final_slope > tol:
        return False
    dx = np.diff(x)
    dy = np.diff(y)
    ramp = (dx > tol) & (dy > tol)
    return not bool(np.any(ramp))


def is_continuous(x, y, tol: float) -> bool:
    """True when the curve has no jumps."""
    dx = np.diff(x)
    dy = np.diff(y)
    jump = (dx <= tol) & (dy > tol)
    return not bool(np.any(jump))


def jump_times(x, y, tol: float):
    """Abscissae of upward jumps, increasing."""
    dx = np.diff(x)
    dy = np.diff(y)
    mask = (dx <= tol) & (dy > tol)
    return x[1:][mask]


def lipschitz(x, y, final_slope: float) -> float:
    """Maximum ramp slope, the final slope included."""
    slopes = [final_slope]
    dx = np.diff(x)
    dy = np.diff(y)
    mask = dx > EPS
    if np.any(mask):
        slopes.append(float(np.max(dy[mask] / dx[mask])))
    return max(slopes)


# ----------------------------------------------------------------------
# curve-valued operators (operands are curves, results raw breakpoints)
# ----------------------------------------------------------------------


def sum_curves(curves):
    """Exact pointwise sum of non-decreasing curves."""
    grid = _union_grid([c._x for c in curves])
    left = np.zeros_like(grid)
    right = np.zeros_like(grid)
    if all(_is_flat(c) for c in curves):
        # Every operand is constant between grid points, so the sum's left
        # limit at a point is its right value at the point before, and at
        # 0 the same fold of the operands' y[0].  The ``+ 0.0`` of
        # _eval_on_grid is dropped: a sum started from +0.0 never reads
        # -0.0, and adding -0.0 or +0.0 to anything else gives the same bits.
        for c in curves:
            right += _flat_on_grid(c, grid)
            left[0] += c._y[0]
        left[1:] = right[:-1]
    else:
        for c in curves:
            c_left, c_right = _eval_on_grid(c, grid)
            left += c_left
            right += c_right
    xs, ys = _interleave(grid, left, right)
    fs = sum(c.final_slope for c in curves)
    return xs, ys, fs


def min_curves(a, b):
    """Exact pointwise minimum of two non-decreasing curves."""
    grid = _union_grid([a._x, b._x])
    a_left, a_right = _eval_on_grid(a, grid)
    b_left, b_right = _eval_on_grid(b, grid)
    # Insert crossing points inside segments where a - b changes sign.
    d0 = a_right[:-1] - b_right[:-1]
    d1 = a_left[1:] - b_left[1:]
    cross = ((d0 > EPS) & (d1 < -EPS)) | ((d0 < -EPS) & (d1 > EPS))
    x0 = grid[:-1][cross]
    x1 = grid[1:][cross]
    d0 = d0[cross]
    # Linear difference on the open segment: interpolate the root.
    t = x0 + (0.0 - d0) * (x1 - x0) / (d1[cross] - d0)
    extra = t[(x0 + EPS < t) & (t < x1 - EPS)]
    # Tail crossing beyond the last breakpoint.
    x_last = grid[-1]
    da = a_right[-1] - b_right[-1]
    dslope = a.final_slope - b.final_slope
    if abs(dslope) > EPS:
        t = x_last - da / dslope
        if t > x_last + EPS and math.isfinite(t):
            extra = np.append(extra, t)
    if extra.size:
        grid = _union_grid([grid, extra])
        a_left, a_right = _eval_on_grid(a, grid)
        b_left, b_right = _eval_on_grid(b, grid)
    left = np.minimum(a_left, b_left)
    right = np.minimum(a_right, b_right)
    xs, ys = _interleave(grid, left, right)
    # Final slope: whichever curve is smaller at infinity.
    if abs(dslope) <= EPS:
        fs = min(a.final_slope, b.final_slope)
    else:
        fs = a.final_slope if dslope < 0 else b.final_slope
    # Monotone guard (min of non-decreasing curves is non-decreasing;
    # noise from crossings is clamped by the curve constructor).
    return xs, ys, fs


def identity_minus(total, lateness: float, mode: str):
    """Availability ``max(0, t - lateness - total(t))`` plus its closure.

    ``h(t) = t - lateness - total(t)`` is read at the total's own distinct
    abscissae plus ``lateness``; between them ``h`` is linear.  At an
    abscissa where the total jumps by more than :data:`EPS`, ``h`` jumps
    down: ``top`` holds its left limit there and ``foot`` its right value,
    elsewhere both hold the right value.  One point is emitted per
    abscissa, at ``top``, and the ramp after it starts from ``foot``.

    Emitting ``foot`` as a second point at the abscissa would change
    nothing.  Under either closure the pair comes out equal, since the
    foot is never above the top; without one it differs by at most EPS (a
    larger dip is closed), and the noise clamp of :func:`normalize` lifts
    the foot to the top, with the same running maximum everywhere else.
    Canonicalization then drops exactly the pair's second point.
    """
    if mode == "exact" and not total.is_continuous(tol=1e-7):
        raise CurveError(
            "exact availability transform requires a continuous total"
        )
    if mode == "exact" and total.final_slope > 1.0 + 1e-9:
        raise CurveError("exact availability transform received a slope > 1")
    x, y = total._x, total._y
    # The values of :func:`_eval_on_grid` at the total's own breakpoints,
    # without a search.  The right value at an abscissa is its last point's
    # ``y`` plus a zero (the segment starts there, d = 0), whose sign
    # ``grid - lateness - total`` cannot see: ``grid - lateness`` is never
    # -0.0.  The left limit is the end of the segment that runs to the
    # abscissa's first point from the last point before it (d / dx is
    # exactly 1.0); on a flat total that is the right value at the abscissa
    # before, as the gather path reads it.
    last = np.flatnonzero(np.append(x[1:] != x[:-1], True))
    grid = x[last]
    t_right = y[last]
    before = t_right[:-1]
    t_left = np.concatenate(([y[0]], before + (y[last[:-1] + 1] - before)))
    k = int(np.searchsorted(grid, lateness))
    if k == grid.size or grid[k] != lateness:
        # Between breakpoints the total is continuous: left = right.
        at_lateness = eval_right(x, y, total._final_slope, [lateness])
        grid = np.insert(grid, k, lateness)
        t_left = np.insert(t_left, k, at_lateness)
        t_right = np.insert(t_right, k, at_lateness)
    shifted = grid - lateness
    h_left = shifted - t_left
    foot = shifted - t_right
    top = np.where(h_left > foot + EPS, h_left, foot)
    # Insert *every* zero-upcrossing of h so max(0, h) is exact.  h can
    # dip below zero repeatedly (each workload jump pushes it down); a
    # clamped segment without its crossing breakpoint would interpolate
    # as a chord from the clamp point straight to the next breakpoint,
    # overestimating the availability there -- which, through
    # ``last_below``, unsoundly *shrinks* the busy-window departure
    # bounds built on this curve.
    up = np.flatnonzero(
        (foot[:-1] < -EPS) & (top[1:] > EPS) & (np.diff(grid) > EPS)
    )
    x0, x1, h0, h1 = grid[up], grid[up + 1], foot[up], top[up + 1]
    t = x0 - h0 * (x1 - x0) / (h1 - h0)
    keep = (t > x0 + EPS) & (t < x1 - EPS)
    at = up[keep] + 1
    zeros = t[keep]
    if foot[-1] < -EPS:
        # h ends below zero (the last workload jump pushed it under) and
        # recovers only in the tail, at slope 1 - final_slope.  Without
        # that crossing the clamped curve would start rising straight
        # from the last breakpoint instead of from the true zero.
        fs_h = 1.0 - total.final_slope
        if fs_h > EPS:
            x_last = grid[-1]
            t = x_last - foot[-1] / fs_h
            if t > x_last + EPS and math.isfinite(t):
                at = np.append(at, grid.size)
                zeros = np.append(zeros, t)
    top = np.maximum(top, 0.0)
    foot = np.maximum(foot, 0.0)
    # The clamped h dips at a jump (foot below top) and along a ramp (the
    # next top below this foot).  A zero crossing splits a ramp that rises
    # from 0, and the tail crossing follows a foot at 0: neither dips.
    dip = min((foot - top).min(), (top[1:] - foot[:-1]).min(initial=0.0))
    if mode == "exact" and dip < -1e-7:
        raise CurveError("exact availability transform received a slope > 1")
    xs = grid
    if at.size:
        xs = np.insert(grid, at, zeros)
        top = np.insert(top, at, 0.0)
        foot = np.insert(foot, at, 0.0)
    # Close *any* dip beyond the constructor tolerance, not just the
    # >1e-7 ones: dips in (EPS, 1e-7] used to slip through the closure
    # and then crash Curve's monotonicity check.  In exact mode such a
    # residual dip is float noise (real violations raised above), and
    # the running maximum matches the constructor's own noise clamp.
    fs = max(0.0, 1.0 - total.final_slope)
    if dip < -EPS:
        if mode == "lower":  # suffix min: non-decreasing, never above h
            top = np.minimum.accumulate(foot[::-1])[::-1]
        else:  # upper (or exact-mode noise): exact running maximum
            xs, top = _running_max_closure(xs, top, foot, fs)
    return xs, top, fs


def service_transform(B, c, lag: float, t_end: float):
    """The paper's min-plus service kernel (Theorems 3/5/6/7)."""
    u_arr, r_arr, r_fs = _running_min_branch(B, c, max(t_end - lag, 0.0) + EPS)

    grid = _union_grid(
        [B._x, u_arr + lag, np.asarray([0.0, lag, t_end])], t_end=t_end
    )
    shifted = np.maximum(grid - lag, 0.0)
    r_vals = _eval_piecewise(shifted, u_arr, r_arr, r_fs)
    r_vals[shifted <= 0.0] = 0.0
    s_vals = np.atleast_1d(B.value(grid)) + r_vals
    s_vals = np.maximum(s_vals, 0.0)
    np.maximum.accumulate(s_vals, out=s_vals)
    if lag == 0.0:
        fs = max(0.0, B.final_slope + r_fs)
    else:
        # Beyond the horizon a lagged lower bound is continued flat,
        # which is sound for a lower bound (callers stay within t_end
        # anyway).
        fs = 0.0
    return grid, s_vals, fs


def _running_max_closure(
    xs: np.ndarray, top: np.ndarray, foot: np.ndarray, fs: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact running maximum of the availability :func:`identity_minus` emits.

    Point ``i`` is ``(xs[i], top[i])`` and the ramp after it starts from
    ``foot[i] <= top[i]``, so the running maximum reads ``top`` and each
    ramp rises from ``foot[i]`` to ``top[i + 1]``.

    Taking the cumulative maximum at breakpoints alone is not enough:
    after a drop, interpolating straight to the next kept point draws a
    rising chord that lies *above* ``max(previous peak, h)`` between the
    two points.  As a leftover *service* curve that overshoot is unsound
    (it grants service the processor never guaranteed).  The true closure
    is flat at the previous peak until ``h`` catches up, so insert that
    catch-up point on every recovering ramp, then take the cumulative
    maximum.
    """
    m = np.maximum.accumulate(top)
    prev_m = m[:-1]
    dx = xs[1:] - xs[:-1]
    cross = (foot[:-1] < prev_m - EPS) & (top[1:] > prev_m + EPS) & (dx > EPS)
    if bool(np.any(cross)):
        idx = np.nonzero(cross)[0]
        rise = top[idx + 1] - foot[idx]
        t = xs[idx] + (prev_m[idx] - foot[idx]) * dx[idx] / rise
        xs = np.insert(xs, idx + 1, t)
        m = np.insert(m, idx + 1, prev_m[idx])
    # Same reasoning in the tail: when the raw h ends below the running
    # maximum, the closure is flat until h catches up at slope ``fs``.
    gap = float(m[-1] - foot[-1])
    if gap > EPS and fs > 0:
        t_catch = float(xs[-1]) + gap / fs
        if math.isfinite(t_catch):
            xs = np.append(xs, t_catch)
            m = np.append(m, m[-1])
    return xs, m


def _running_min_branch(
    B, c, t_end: float
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Compute ``R(u) = min(0, min_{j: p_j < u}(v_j - B(min(u, p_{j+1}))))``.

    Returns breakpoint arrays ``(u, R(u))`` on ``[0, t_end]`` plus the final
    slope of ``R`` beyond ``t_end``.  ``R`` is continuous, non-increasing
    and piecewise linear; its kinks occur at the piece boundaries of ``c``,
    at breakpoints of ``B`` while ``R`` tracks the branch ``v_j - B(u)``,
    and at the crossover points where a branch first dips below the running
    minimum.

    Every candidate point -- crossover ``u*``, interior breakpoints of ``B``
    along the active branch, piece endpoints -- is placed positionally via
    ``cumsum``-of-counts and ``repeat``; the EPS guard then drops the
    interior breakpoints within :data:`EPS` of the last kept point.
    """
    if not c.is_step():
        raise CurveError("service transform requires a step workload curve")
    p, v = c.steps()
    # Clip pieces that start at or beyond the horizon.
    mask = p < t_end - EPS
    p = p[mask]
    v = v[mask]
    if p.size == 0:
        p = np.array([0.0])
        v = np.array([float(c.value(0.0))])
    bounds = np.append(p, t_end)

    # Vectorized pre-computation of the per-piece state:
    #   m_i = min(0, min_{j < i} (v_j - B(bounds_{j+1})))
    #   u*_i = first u with B(u) >= v_i - m_i  (branch crossover)
    b_at_bounds = np.atleast_1d(B.value(bounds))
    w = v - b_at_bounds[1:]
    m_arr = np.empty(p.size)
    m_arr[0] = 0.0
    if p.size > 1:
        m_arr[1:] = np.minimum(0.0, np.minimum.accumulate(w)[:-1])
    lvl = v - m_arr
    u_star_arr = np.atleast_1d(B.first_crossing(np.maximum(lvl, 0.0)))
    u_star_arr[lvl <= EPS] = 0.0
    # B values at B's own breakpoints (continuous => y at breakpoints).
    bx, by = B._x, B._y
    lo_idx = np.searchsorted(bx, np.maximum(u_star_arr, bounds[:-1]), side="right")
    hi_idx = np.searchsorted(bx, bounds[1:], side="left")

    a = bounds[:-1]
    b_hi = bounds[1:]
    active = b_hi - a > EPS
    u_star = np.minimum(np.maximum(u_star_arr, a), b_hi)
    emit_star = active & (u_star > a + EPS)
    emit_branch = active & (u_star < b_hi - EPS)
    span = np.where(emit_branch, np.maximum(hi_idx - lo_idx, 0), 0)
    counts = emit_star.astype(np.intp) + np.where(emit_branch, span + 1, 0)
    total = 1 + int(counts.sum())

    us = np.empty(total)
    rs = np.empty(total)
    us[0] = 0.0
    rs[0] = 0.0
    starts = 1 + np.concatenate(([0], np.cumsum(counts)[:-1]))
    pos_star = starts[emit_star]
    us[pos_star] = u_star[emit_star]
    rs[pos_star] = m_arr[emit_star]
    branch_base = starts + emit_star.astype(np.intp)
    interior = emit_branch & (span > 0)
    tgt = np.empty(0, dtype=np.intp)
    if np.any(interior):
        piece_idx = np.nonzero(interior)[0]
        reps = span[piece_idx]
        flat_piece = np.repeat(piece_idx, reps)
        cum = np.concatenate(([0], np.cumsum(reps)[:-1]))
        within = np.arange(int(reps.sum())) - np.repeat(cum, reps)
        k = lo_idx[flat_piece] + within
        tgt = branch_base[flat_piece] + within
        us[tgt] = bx[k]
        rs[tgt] = v[flat_piece] - by[k]
    pos_end = branch_base[emit_branch] + span[emit_branch]
    us[pos_end] = b_hi[emit_branch]
    rs[pos_end] = (v - b_at_bounds[1:])[emit_branch]

    # EPS guard: an interior breakpoint is kept only when it lies more than
    # EPS past the last kept point.  Candidates never decrease and rounding
    # of ``u + EPS`` is monotone, so one more than EPS past its predecessor
    # is kept whatever came before.  Only the ``near`` ones need the last
    # kept point, which a dropped predecessor leaves unchanged.
    near = tgt[us[tgt] <= us[tgt - 1] + EPS]
    if near.size:
        kept = np.ones(total, dtype=bool)
        last = 0
        for j in near.tolist():
            if kept[j - 1]:
                last = j - 1
            kept[j] = us[j] > us[last] + EPS
        us = us[kept]
        rs = rs[kept]

    flagged = np.nonzero(emit_star | emit_branch)[0]
    on_branch_at_end = bool(emit_branch[flagged[-1]]) if flagged.size else False
    # R is non-increasing by construction; clamp floating noise.
    np.minimum.accumulate(rs, out=rs)
    # Deduplicate abscissae (keep the last = smallest value).
    keep = np.concatenate((np.diff(us) > EPS, [True]))
    r_fs = -B.final_slope if on_branch_at_end else 0.0
    return us[keep], rs[keep], r_fs
