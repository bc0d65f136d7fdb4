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

The operators that evaluate their operands on a union grid of the
operands' own breakpoints (:func:`sum_curves`, :func:`min_curves`,
:func:`identity_minus`) locate each operand's breakpoints in the grid
and count them, instead of searching the operand for every grid point
(:func:`_eval_on_grid`).

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


def normalize(x, y, final_slope: float, canonicalize: bool):
    """Validate, noise-clamp and (optionally) canonicalize breakpoints.

    Raises :class:`CurveError` on invalid input; returns fresh contiguous
    ``(x, y, final_slope)`` the curve will freeze.
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
    if abs(xs[0]) > EPS:
        raise CurveError(f"curve domain must start at 0, got x[0]={xs[0]}")
    xs = xs.copy()
    ys = ys.copy()
    xs[0] = 0.0
    if np.any(np.diff(xs) < -EPS):
        raise CurveError("x must be non-decreasing")
    if np.any(np.diff(ys) < -EPS):
        raise CurveError("y must be non-decreasing")
    # Clamp tiny negative diffs introduced by floating point noise.
    np.maximum.accumulate(xs, out=xs)
    np.maximum.accumulate(ys, out=ys)
    final_slope = max(0.0, float(final_slope))
    if canonicalize:
        xs, ys = _canonicalize(xs, ys, final_slope)
    return np.ascontiguousarray(xs), np.ascontiguousarray(ys), final_slope


def _canonicalize(
    x: np.ndarray, y: np.ndarray, final_slope: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize the breakpoint representation.

    * collapses runs of >2 points at the same (exactly equal) abscissa
      to (first, last) -- jumps are encoded by *exact* duplicates only,
      so canonicalization never moves a jump in time;
    * removes zero-height duplicate points and collinear interior
      points (within :data:`EPS` on values).
    """
    if x.size == 1:
        return x, y
    # 1. For runs of exactly-equal abscissae keep only the first and
    #    last point (y is non-decreasing, so these are the extremes).
    first = np.empty(x.size, dtype=bool)
    last = np.empty(x.size, dtype=bool)
    first[0] = True
    first[1:] = x[1:] != x[:-1]
    last[-1] = True
    last[:-1] = x[:-1] != x[1:]
    keep = first | last
    x = x[keep]
    y = y[keep]
    # 2. Drop the upper point of zero-height jumps.
    if x.size > 1:
        dup = np.empty(x.size, dtype=bool)
        dup[0] = False
        dup[1:] = (x[1:] == x[:-1]) & (y[1:] - y[:-1] <= EPS)
        x = x[~dup]
        y = y[~dup]
    # 3. Remove collinear interior points (a few passes suffice: each
    #    pass removes every point collinear with its immediate
    #    neighbours, which covers straight runs in one go).
    for _ in range(4):
        if x.size < 3:
            break
        x0, y0 = x[:-2], y[:-2]
        x1, y1 = x[1:-1], y[1:-1]
        x2, y2 = x[2:], y[2:]
        span = x2 - x0
        # Only interior ramp points are candidates: a point sharing an
        # abscissa with a neighbour is part of a jump and must stay
        # (the cross-product test can underflow to a false positive on
        # denormal segment widths).
        collinear = (
            (x1 > x0)
            & (x2 > x1)
            & (np.abs((y2 - y0) * (x1 - x0) - (y1 - y0) * span) <= EPS * span)
        )
        # Never drop both endpoints of adjacent triples in one pass;
        # thin out alternating indices to stay safe.
        collinear[1:] &= ~collinear[:-1]
        if not np.any(collinear):
            break
        keep = np.ones(x.size, dtype=bool)
        keep[1:-1] = ~collinear
        x = x[keep]
        y = y[keep]
    # 4. Final point redundant if it continues the final slope.
    if x.size >= 2 and x[-1] - x[-2] > EPS:
        seg_slope = (y[-1] - y[-2]) / (x[-1] - x[-2])
        if abs(seg_slope - final_slope) <= EPS:
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
    """Raw breakpoints of the cumulative step curve; ``None`` without times."""
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
    return xs, ys


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


def _eval_on_grid(curve, grid):
    """Left limits and right values of ``curve`` at every point of ``grid``.

    ``grid`` is sorted and holds every breakpoint of ``curve``, so counting
    the breakpoints at each grid point yields the segment indices that
    :func:`eval_right` and :func:`eval_left` search for, at ``n log N``
    instead of ``2 N log n``.  The left limit differs from the right value
    only at the curve's own breakpoints, so it is evaluated only there.
    """
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
    """Availability ``max(0, t - lateness - total(t))`` plus its closure."""
    if mode == "exact" and not total.is_continuous(tol=1e-7):
        raise CurveError(
            "exact availability transform requires a continuous total"
        )
    if mode == "exact" and total.final_slope > 1.0 + 1e-9:
        raise CurveError(
            "exact availability transform received a total with slope > 1"
        )
    grid = _union_grid([total._x, np.asarray([lateness])])
    # Interleave left/right values so downward jumps of h (= upward
    # jumps of `total`) are represented exactly before the monotone
    # closure.
    t_left, t_right = _eval_on_grid(total, grid)
    h_left = grid - lateness - t_left
    h_right = grid - lateness - t_right
    jump = h_left > h_right + EPS
    n = grid.size + int(np.count_nonzero(jump))
    xs = np.empty(n)
    hs = np.empty(n)
    pos = np.arange(grid.size) + np.concatenate(([0], np.cumsum(jump[:-1])))
    xs[pos] = grid
    hs[pos] = np.where(jump, h_left, h_right)
    jpos = pos[jump] + 1
    xs[jpos] = grid[jump]
    hs[jpos] = h_right[jump]
    # Insert *every* zero-upcrossing of h so max(0, h) is exact.  h can
    # dip below zero repeatedly (each workload jump pushes it down); a
    # clamped segment without its crossing breakpoint would interpolate
    # as a chord from the clamp point straight to the next breakpoint,
    # overestimating the availability there -- which, through
    # ``last_below``, unsoundly *shrinks* the busy-window departure
    # bounds built on this curve.
    up = np.nonzero((hs[:-1] < -EPS) & (hs[1:] > EPS) & (np.diff(xs) > EPS))[0]
    if up.size:
        x0, x1 = xs[up], xs[up + 1]
        h0, h1 = hs[up], hs[up + 1]
        t = x0 - h0 * (x1 - x0) / (h1 - h0)
        keep = (t > x0 + EPS) & (t < x1 - EPS)
        xs = np.insert(xs, up[keep] + 1, t[keep])
        hs = np.insert(hs, up[keep] + 1, 0.0)
    if hs[-1] < -EPS:
        # h ends below zero (the last workload jump pushed it under) and
        # recovers only in the tail, at slope 1 - final_slope.  Without
        # that crossing the clamped curve would start rising straight
        # from the last breakpoint instead of from the true zero.
        fs_h = 1.0 - total.final_slope
        if fs_h > EPS:
            x_last = xs[-1]
            t = x_last - hs[-1] / fs_h
            if t > x_last + EPS and math.isfinite(t):
                xs = np.append(xs, t)
                hs = np.append(hs, 0.0)
    y = np.maximum(hs, 0.0)
    dips = np.diff(y)
    if mode == "exact" and bool(np.any(dips < -1e-7)):
        raise CurveError(
            "exact availability transform received a total with slope > 1"
        )
    # Close *any* dip beyond the constructor tolerance, not just the
    # >1e-7 ones: dips in (EPS, 1e-7] used to slip through the closure
    # and then crash Curve's monotonicity check.  In exact mode such a
    # residual dip is float noise (real violations raised above), and
    # the running maximum matches the constructor's own noise clamp.
    fs = max(0.0, 1.0 - total.final_slope)
    if bool(np.any(dips < -EPS)):
        if mode == "lower":  # suffix min: non-decreasing, never above y
            y = np.minimum.accumulate(y[::-1])[::-1]
        else:  # upper (or exact-mode noise): exact running maximum
            xs, y = _running_max_closure(xs, y, fs)
    return xs, y, fs


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
    xs: np.ndarray, y: np.ndarray, fs: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact running maximum of the piecewise-linear function ``(xs, y)``.

    Taking the cumulative maximum at breakpoints alone is not enough:
    after a drop, interpolating straight to the next kept point draws a
    rising chord that lies *above* ``max(previous peak, h)`` between the
    two points.  As a leftover *service* curve that overshoot is unsound
    (it grants service the processor never guaranteed).  The true closure
    is flat at the previous peak until ``h`` catches up, so insert that
    catch-up point on every recovering segment, then take the cumulative
    maximum.
    """
    m = np.maximum.accumulate(y)
    prev_m = m[:-1]
    rise = y[1:] - y[:-1]
    dx = xs[1:] - xs[:-1]
    cross = (y[:-1] < prev_m - EPS) & (y[1:] > prev_m + EPS) & (dx > EPS)
    if bool(np.any(cross)):
        idx = np.nonzero(cross)[0]
        t = xs[idx] + (prev_m[idx] - y[idx]) * dx[idx] / rise[idx]
        xs = np.insert(xs, idx + 1, t)
        m = np.insert(m, idx + 1, prev_m[idx])
    # Same reasoning in the tail: when the raw h ends below the running
    # maximum, the closure is flat until h catches up at slope ``fs``.
    gap = float(m[-1] - y[-1])
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
