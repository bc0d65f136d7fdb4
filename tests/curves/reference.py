"""Scalar reference implementation of the curve kernels (test oracle).

Every function here is a scalar port of the corresponding vectorized
kernel in :mod:`repro.curves.kernels` (and of the compositions in
:mod:`repro.curves.ops` / :class:`~repro.curves.curve.Curve` that the
tests check), written to mirror its floating-point arithmetic *operation
for operation* -- same formulas, same evaluation order, same
tie-breaking -- so the property suite in ``test_backends.py`` can demand
byte-identical results.

The oracle never routes through the code it checks: a curve is read only
through ``breakpoints()`` and ``final_slope`` (:func:`table`), every
intermediate and result is a plain ``(x, y, final_slope)`` table of
Python floats, and results are normalized by this module's own
:func:`normalize`.

Porting rules observed throughout (do not "simplify" them away):

* ``np.searchsorted(..., side="left"/"right")`` is ``bisect_left`` /
  ``bisect_right``;
* ``np.maximum(v, 0.0)`` is ``v if v > 0.0 else 0.0`` and
  ``np.minimum(a, b)`` is ``a if a < b else b`` (NumPy returns the
  *second* operand on ties);
* ``np.clip(f, 0.0, 1.0)`` is the max-then-min composition of the above;
* ``np.maximum.accumulate`` / ``np.minimum.accumulate`` are sequential
  left-to-right folds of the same two-argument forms;
* ``np.interp`` uses a different interpolation formula
  (``slope * (x - x0) + y0`` with an exact-match short-circuit) than the
  curve evaluators (``y0 + frac * (y1 - y0)``); :func:`_interp_scalar`
  mirrors the former, :func:`_eval_scalar` the latter.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

from repro.curves.kernels import EPS

#: A curve as plain data: breakpoint abscissae, values, final slope.
Table = Tuple[List[float], List[float], float]


def table(curve) -> Table:
    """The curve's breakpoints as a table of Python floats."""
    bp = curve.breakpoints()
    return [float(v) for v in bp.x], [float(v) for v in bp.y], float(curve.final_slope)


def _union_grid(
    lists: Sequence[Sequence[float]], t_end: float = math.inf
) -> List[float]:
    merged: set = set()
    for a in lists:
        merged.update(a)
    grid = [v for v in sorted(merged) if 0.0 <= v <= t_end]
    if not grid or grid[0] > 0.0:
        grid.insert(0, 0.0)
    return grid


def _interleave(
    xs: Sequence[float], left: Sequence[float], right: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Build breakpoint lists emitting a jump wherever right > left."""
    out_x: List[float] = []
    out_y: List[float] = []
    for i in range(len(xs)):
        if right[i] > left[i] + EPS:
            out_x.append(xs[i])
            out_y.append(left[i])
            out_x.append(xs[i])
            out_y.append(right[i])
        else:
            out_x.append(xs[i])
            out_y.append(right[i])
    return out_x, out_y


def _eval_scalar(
    xs: Sequence[float], ys: Sequence[float], fs: float, t: float, left: bool
) -> float:
    if left:
        j = bisect_left(xs, t) - 1
    else:
        j = bisect_right(xs, t) - 1
    if j < 0:
        return ys[0]
    if j >= len(xs) - 1:
        # On a flat tail ``0 * min(d, 1)`` is ``0 * d`` to the sign, but 0
        # at t = inf.
        d = t - xs[-1]
        return ys[-1] + fs * (d if fs else min(d, 1.0))
    x0 = xs[j]
    x1 = xs[j + 1]
    y0 = ys[j]
    y1 = ys[j + 1]
    dx = x1 - x0
    frac = (t - x0) / dx if dx > 0.0 else 1.0
    return y0 + frac * (y1 - y0)


def _first_crossing_scalar(
    xs: Sequence[float], ys: Sequence[float], fs: float, v: float
) -> float:
    vq = v - EPS
    if vq <= ys[0]:
        out = 0.0
    else:
        j = bisect_left(ys, vq)
        if j >= len(ys):
            out = xs[-1] + (v - ys[-1]) / fs if fs > EPS else math.inf
        else:
            x0 = xs[j - 1]
            x1 = xs[j]
            y0 = ys[j - 1]
            y1 = ys[j]
            dy = y1 - y0
            frac = (v - y0) / dy if dy > 0.0 else 1.0
            frac = frac if frac > 0.0 else 0.0
            frac = frac if frac < 1.0 else 1.0
            out = x0 + frac * (x1 - x0)
    return out if out > 0.0 else 0.0


def _last_below_scalar(
    xs: Sequence[float], ys: Sequence[float], fs: float, v: float
) -> float:
    vq = v + EPS
    j = bisect_right(ys, vq)
    if j >= len(ys):
        if fs > EPS:
            d = v - ys[-1]
            d = d if d > 0.0 else 0.0
            out = xs[-1] + d / fs
        else:
            out = math.inf
    elif j == 0:
        out = 0.0
    else:
        x0 = xs[j - 1]
        x1 = xs[j]
        y0 = ys[j - 1]
        y1 = ys[j]
        dy = y1 - y0
        frac = (v - y0) / dy if dy > EPS else 1.0
        frac = frac if frac > 0.0 else 0.0
        frac = frac if frac < 1.0 else 1.0
        out = x0 + frac * (x1 - x0)
    return out if out > 0.0 else 0.0


def _interp_scalar(
    q: float, xs: Sequence[float], ys: Sequence[float], fs: float
) -> float:
    """``np.interp`` mirror plus the beyond-last-breakpoint slope override."""
    n = len(xs)
    j = bisect_right(xs, q) - 1
    if j < 0:
        val = ys[0]
    elif j >= n - 1:
        val = ys[-1]
    elif xs[j] == q:
        val = ys[j]
    else:
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        val = slope * (q - xs[j]) + ys[j]
    if q > xs[-1]:
        val = ys[-1] + fs * (q - xs[-1])
    return val


def _maximum_accumulate(vals: List[float]) -> None:
    acc = vals[0]
    for i in range(1, len(vals)):
        v = vals[i]
        acc = acc if acc > v else v
        vals[i] = acc


def _minimum_accumulate(vals: List[float]) -> None:
    acc = vals[0]
    for i in range(1, len(vals)):
        v = vals[i]
        acc = acc if acc < v else v
        vals[i] = acc


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def normalize(x, y, final_slope: float, canonicalize: bool = True) -> Table:
    """Noise-clamped (and optionally canonical) table of valid breakpoints."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or not xs or abs(xs[0]) > EPS:
        raise ValueError("invalid breakpoints")
    if not math.isfinite(final_slope) or final_slope < -EPS:
        raise ValueError("invalid final slope")
    xs[0] = 0.0
    if any(xs[i + 1] - xs[i] < -EPS for i in range(len(xs) - 1)):
        raise ValueError("x must be non-decreasing")
    if any(ys[i + 1] - ys[i] < -EPS for i in range(len(ys) - 1)):
        raise ValueError("y must be non-decreasing")
    # Clamp tiny negative diffs introduced by floating point noise.
    _maximum_accumulate(xs)
    _maximum_accumulate(ys)
    final_slope = max(0.0, float(final_slope))
    if canonicalize:
        xs, ys = _canonicalize(xs, ys, final_slope)
    return xs, ys, final_slope


def _canonicalize(
    x: List[float], y: List[float], final_slope: float
) -> Tuple[List[float], List[float]]:
    n = len(x)
    if n == 1:
        return x, y
    # 1. For runs of exactly-equal abscissae keep only the first and
    #    last point.
    kept_x: List[float] = []
    kept_y: List[float] = []
    for i in range(n):
        first = i == 0 or x[i] != x[i - 1]
        last = i == n - 1 or x[i] != x[i + 1]
        if first or last:
            kept_x.append(x[i])
            kept_y.append(y[i])
    x, y = kept_x, kept_y
    # 2. Drop the upper point of zero-height jumps (zeros of one sign).
    kept_x = [x[0]]
    kept_y = [y[0]]
    for i in range(1, len(x)):
        if not (
            x[i] == x[i - 1]
            and y[i] == y[i - 1]
            and math.copysign(1.0, y[i]) == math.copysign(1.0, y[i - 1])
        ):
            kept_x.append(x[i])
            kept_y.append(y[i])
    x, y = kept_x, kept_y
    # 3. Exactly flat runs: drop every interior point between two of the
    #    same value at smaller and larger abscissae.  The flags are all
    #    taken before any point goes.
    if len(x) >= 3:
        kept_x = [x[0]]
        kept_y = [y[0]]
        for i in range(1, len(x) - 1):
            if not (x[i - 1] < x[i] < x[i + 1] and y[i - 1] == y[i] == y[i + 1]):
                kept_x.append(x[i])
                kept_y.append(y[i])
        kept_x.append(x[-1])
        kept_y.append(y[-1])
        x, y = kept_x, kept_y
    # 4. Final point redundant if the final slope reaches it within EPS.
    if (
        len(x) >= 2
        and x[-1] > x[-2]
        and abs(y[-1] - y[-2] - final_slope * (x[-1] - x[-2])) <= EPS
    ):
        x = x[:-1]
        y = y[:-1]
    return x, y


ZERO: Table = ([0.0], [0.0], 0.0)
IDENTITY: Table = ([0.0], [0.0], 1.0)


def step_from_times(times, height: float) -> Table:
    """``Curve.step_from_times``: the cumulative step curve over ``times``."""
    ts = sorted(float(t) for t in times)
    if not ts:
        return ZERO
    ts = [t if t > 0.0 else 0.0 for t in ts]
    uniq: List[float] = []
    counts: List[int] = []
    for t in ts:
        if uniq and t == uniq[-1]:
            counts[-1] += 1
        else:
            uniq.append(t)
            counts.append(1)
    xs = [0.0]
    ys = [0.0]
    csum = 0
    prev_cum = 0.0
    for u, cnt in zip(uniq, counts):
        csum += cnt
        cum = csum * float(height)
        xs.extend((u, u))
        ys.extend((prev_cum, cum))
        prev_cum = cum
    return normalize(xs, ys, 0.0)


def shift_y(t: Table, delta: float) -> Table:
    """``Curve.shift_y``."""
    xs, ys, fs = t
    return normalize(xs, [v + delta for v in ys], fs, canonicalize=False)


# ----------------------------------------------------------------------
# evaluation and structure
# ----------------------------------------------------------------------


def eval_right(t: Table, ts: Sequence[float]) -> List[float]:
    xs, ys, fs = t
    return [_eval_scalar(xs, ys, fs, q, False) for q in ts]


def eval_left(t: Table, ts: Sequence[float]) -> List[float]:
    xs, ys, fs = t
    return [_eval_scalar(xs, ys, fs, q, True) for q in ts]


def first_crossing(t: Table, vs: Sequence[float]) -> List[float]:
    xs, ys, fs = t
    return [_first_crossing_scalar(xs, ys, fs, v) for v in vs]


def last_below(t: Table, vs: Sequence[float]) -> List[float]:
    xs, ys, fs = t
    return [_last_below_scalar(xs, ys, fs, v) for v in vs]


def is_step(t: Table, tol: float = EPS) -> bool:
    xs, ys, fs = t
    if fs > tol:
        return False
    return not any(
        xs[i + 1] - xs[i] > tol and ys[i + 1] - ys[i] > tol
        for i in range(len(xs) - 1)
    )


def is_continuous(t: Table, tol: float = EPS) -> bool:
    xs, ys, _ = t
    return not any(
        xs[i + 1] - xs[i] <= tol and ys[i + 1] - ys[i] > tol
        for i in range(len(xs) - 1)
    )


def jump_times(t: Table, tol: float = EPS) -> List[float]:
    xs, ys, _ = t
    return [
        xs[i + 1]
        for i in range(len(xs) - 1)
        if xs[i + 1] - xs[i] <= tol and ys[i + 1] - ys[i] > tol
    ]


def steps(t: Table) -> Tuple[List[float], List[float]]:
    """``Curve.steps``: piece boundaries and piece values of a step curve."""
    if not is_step(t):
        raise ValueError("steps() requires a piecewise-constant curve")
    jumps = jump_times(t)
    if jumps and jumps[0] <= EPS:
        boundaries = jumps
    else:
        boundaries = [0.0] + jumps if jumps else [0.0]
    if not boundaries or boundaries[0] > EPS:
        boundaries = [0.0] + boundaries
    boundaries = sorted(set(b if b > 0.0 else 0.0 for b in boundaries))
    return boundaries, eval_right(t, boundaries)


# ----------------------------------------------------------------------
# curve-valued operators
# ----------------------------------------------------------------------


def sum_curves(tables: Sequence[Table]) -> Table:
    grid = _union_grid([t[0] for t in tables])
    left = [0.0] * len(grid)
    right = [0.0] * len(grid)
    for xs, ys, fs in tables:
        for i, g in enumerate(grid):
            left[i] += _eval_scalar(xs, ys, fs, g, True)
            right[i] += _eval_scalar(xs, ys, fs, g, False)
    out_x, out_y = _interleave(grid, left, right)
    return normalize(out_x, out_y, sum(t[2] for t in tables))


def min_curves(a: Table, b: Table) -> Table:
    ax, ay, afs = a
    bx, by, bfs = b
    grid = _union_grid([ax, bx])
    extra: List[float] = []
    ar = [_eval_scalar(ax, ay, afs, g, False) for g in grid]
    br = [_eval_scalar(bx, by, bfs, g, False) for g in grid]
    for i in range(len(grid) - 1):
        x0, x1 = grid[i], grid[i + 1]
        d0 = ar[i] - br[i]
        d1 = _eval_scalar(ax, ay, afs, x1, True) - _eval_scalar(
            bx, by, bfs, x1, True
        )
        if (d0 > EPS and d1 < -EPS) or (d0 < -EPS and d1 > EPS):
            t = x0 + (0.0 - d0) * (x1 - x0) / (d1 - d0)
            if x0 + EPS < t < x1 - EPS:
                extra.append(t)
    x_last = grid[-1]
    da = _eval_scalar(ax, ay, afs, x_last, False) - _eval_scalar(
        bx, by, bfs, x_last, False
    )
    dslope = afs - bfs
    if abs(dslope) > EPS:
        t = x_last - da / dslope
        if t > x_last + EPS and math.isfinite(t):
            extra.append(t)
    if extra:
        grid = _union_grid([grid, extra])
    left = []
    right = []
    for g in grid:
        al = _eval_scalar(ax, ay, afs, g, True)
        bl = _eval_scalar(bx, by, bfs, g, True)
        left.append(al if al < bl else bl)
        arr = _eval_scalar(ax, ay, afs, g, False)
        brr = _eval_scalar(bx, by, bfs, g, False)
        right.append(arr if arr < brr else brr)
    out_x, out_y = _interleave(grid, left, right)
    if abs(dslope) <= EPS:
        fs = min(afs, bfs)
    else:
        fs = afs if dslope < 0 else bfs
    return normalize(out_x, out_y, fs)


def _running_max_closure(
    xs: List[float], y: List[float], fs: float
) -> Tuple[List[float], List[float]]:
    """Exact running maximum, catch-up points included."""
    m = list(y)
    _maximum_accumulate(m)
    out_x: List[float] = []
    out_m: List[float] = []
    for i in range(len(xs)):
        out_x.append(xs[i])
        out_m.append(m[i])
        if i < len(xs) - 1:
            prev_m = m[i]
            rise = y[i + 1] - y[i]
            dx = xs[i + 1] - xs[i]
            if y[i] < prev_m - EPS and y[i + 1] > prev_m + EPS and dx > EPS:
                t = xs[i] + (prev_m - y[i]) * dx / rise
                out_x.append(t)
                out_m.append(prev_m)
    gap = out_m[-1] - y[-1]
    if gap > EPS and fs > 0:
        t_catch = out_x[-1] + gap / fs
        if math.isfinite(t_catch):
            out_x.append(t_catch)
            out_m.append(out_m[-1])
    return out_x, out_m


def identity_minus(total: Table, lateness: float, mode: str) -> Table:
    tx, ty, tfs = total
    if mode == "exact" and not is_continuous(total, tol=1e-7):
        raise ValueError("exact availability transform requires a continuous total")
    if mode == "exact" and tfs > 1.0 + 1e-9:
        raise ValueError("exact availability transform received a slope > 1")
    grid = _union_grid([tx, [lateness]])
    xs: List[float] = []
    hs: List[float] = []
    for g in grid:
        h_left = g - lateness - _eval_scalar(tx, ty, tfs, g, True)
        h_right = g - lateness - _eval_scalar(tx, ty, tfs, g, False)
        if h_left > h_right + EPS:
            xs.append(g)
            hs.append(h_left)
            xs.append(g)
            hs.append(h_right)
        else:
            xs.append(g)
            hs.append(h_right)
    # Insert every zero-upcrossing of h so max(0, h) is exact.
    new_x: List[float] = []
    new_h: List[float] = []
    for i in range(len(xs)):
        new_x.append(xs[i])
        new_h.append(hs[i])
        if i < len(xs) - 1:
            x0, x1 = xs[i], xs[i + 1]
            h0, h1 = hs[i], hs[i + 1]
            if h0 < -EPS and h1 > EPS and x1 - x0 > EPS:
                t = x0 - h0 * (x1 - x0) / (h1 - h0)
                if x0 + EPS < t < x1 - EPS:
                    new_x.append(t)
                    new_h.append(0.0)
    xs, hs = new_x, new_h
    if hs[-1] < -EPS:
        # h recovers only in the tail, at slope 1 - final_slope.
        fs_h = 1.0 - tfs
        if fs_h > EPS:
            x_last = xs[-1]
            t = x_last - hs[-1] / fs_h
            if t > x_last + EPS and math.isfinite(t):
                xs.append(t)
                hs.append(0.0)
    y = [h if h > 0.0 else 0.0 for h in hs]
    dips = [y[i + 1] - y[i] for i in range(len(y) - 1)]
    if mode == "exact" and any(d < -1e-7 for d in dips):
        raise ValueError("exact availability transform received a slope > 1")
    fs = max(0.0, 1.0 - tfs)
    if any(d < -EPS for d in dips):
        if mode == "lower":  # suffix minimum
            acc = y[-1]
            for i in range(len(y) - 2, -1, -1):
                v = y[i]
                acc = acc if acc < v else v
                y[i] = acc
        else:  # exact running maximum
            xs, y = _running_max_closure(xs, y, fs)
    return normalize(xs, y, fs)


def _running_min_branch(
    B: Table, c: Table, t_end: float
) -> Tuple[List[float], List[float], float]:
    """The running-min recursion as one scalar emission loop."""
    p, v = steps(c)
    # Clip pieces that start at or beyond the horizon.
    pairs = [(pi, vi) for pi, vi in zip(p, v) if pi < t_end - EPS]
    if pairs:
        p = [pi for pi, _ in pairs]
        v = [vi for _, vi in pairs]
    else:
        p = [0.0]
        v = [_eval_scalar(c[0], c[1], c[2], 0.0, False)]
    bounds = p + [t_end]
    bx, by, bfs = B

    # Per-piece state:
    #   m_i = min(0, min_{j < i} (v_j - B(bounds_{j+1})))
    #   u*_i = first u with B(u) >= v_i - m_i  (branch crossover)
    b_at_bounds = [_eval_scalar(bx, by, bfs, b, False) for b in bounds]
    n = len(p)
    m_arr = [0.0] * n
    acc = math.inf
    for i in range(1, n):
        w = v[i - 1] - b_at_bounds[i]
        acc = acc if acc < w else w
        m_arr[i] = acc if acc < 0.0 else 0.0
    u_star_arr = []
    for i in range(n):
        lvl = v[i] - m_arr[i]
        if lvl <= EPS:
            u_star_arr.append(0.0)
        else:
            clamped = lvl if lvl > 0.0 else 0.0
            u_star_arr.append(_first_crossing_scalar(bx, by, bfs, clamped))
    lo_idx = [
        bisect_right(bx, u_star_arr[i] if u_star_arr[i] > bounds[i] else bounds[i])
        for i in range(n)
    ]
    hi_idx = [bisect_left(bx, bounds[i + 1]) for i in range(n)]

    us: List[float] = [0.0]
    rs: List[float] = [0.0]
    on_branch_at_end = False
    for i in range(n):
        a, b_hi = bounds[i], bounds[i + 1]
        vi = v[i]
        m = m_arr[i]
        if b_hi - a <= EPS:
            continue
        u_star = min(max(u_star_arr[i], a), b_hi)
        if u_star > a + EPS:
            us.append(u_star)
            rs.append(m)
            on_branch_at_end = False
        if u_star < b_hi - EPS:
            # Follow the branch vi - B(u) on (u_star, b_hi]; include B's
            # interior breakpoints so the branch is piecewise exact.
            for k in range(lo_idx[i], hi_idx[i]):
                xbp = bx[k]
                if xbp > us[-1] + EPS:
                    us.append(xbp)
                    rs.append(vi - by[k])
            us.append(b_hi)
            rs.append(vi - b_at_bounds[i + 1])
            on_branch_at_end = True

    # R is non-increasing by construction; clamp floating noise.
    _minimum_accumulate(rs)
    # Deduplicate abscissae (keep the last = smallest value).
    out_u: List[float] = []
    out_r: List[float] = []
    for i in range(len(us)):
        if i < len(us) - 1 and not (us[i + 1] - us[i] > EPS):
            continue
        out_u.append(us[i])
        out_r.append(rs[i])
    r_fs = -bfs if on_branch_at_end else 0.0
    return out_u, out_r, r_fs


def service_transform(B: Table, c: Table, lag: float, t_end: float) -> Table:
    """The min-plus service kernel at a finite horizon ``t_end``."""
    u_arr, r_arr, r_fs = _running_min_branch(B, c, max(t_end - lag, 0.0) + EPS)
    bx, by, bfs = B
    grid = _union_grid([bx, [u + lag for u in u_arr], [0.0, lag, t_end]], t_end=t_end)
    s_vals: List[float] = []
    for g in grid:
        sh = g - lag
        sh = sh if sh > 0.0 else 0.0
        r = _interp_scalar(sh, u_arr, r_arr, r_fs)
        if sh <= 0.0:
            r = 0.0
        s = _eval_scalar(bx, by, bfs, g, False) + r
        s_vals.append(s if s > 0.0 else 0.0)
    _maximum_accumulate(s_vals)
    fs = max(0.0, bfs + r_fs) if lag == 0.0 else 0.0
    return normalize(grid, s_vals, fs)


def fcfs_service_bounds(
    c: Table, G: Table, tau: float, t_end: float
) -> Tuple[Table, Table]:
    """``ops.fcfs_service_bounds`` (Theorems 8 and 9)."""
    U = service_transform(IDENTITY, G, 0.0, t_end)
    p, gv = steps(G)
    pairs = [(pi, gi) for pi, gi in zip(p, gv) if pi <= t_end + EPS]
    levels = [gi for _, gi in pairs if gi > EPS]
    times_of_batches = [pi for pi, gi in pairs if gi > EPS]
    if not levels:
        return ZERO, min_curves(shift_y(ZERO, tau), c)
    xs: List[float] = [0.0]
    ys: List[float] = [0.0]
    for tb, pj in zip(first_crossing(U, levels), times_of_batches):
        if not (math.isfinite(tb) and tb <= t_end + EPS):
            break
        level_c = _eval_scalar(c[0], c[1], c[2], pj, False)
        if level_c > ys[-1] + EPS:
            xs.append(tb)
            ys.append(ys[-1])
            xs.append(tb)
            ys.append(level_c)
    lower = normalize(xs, ys, 0.0)
    return lower, min_curves(shift_y(lower, tau), c)
