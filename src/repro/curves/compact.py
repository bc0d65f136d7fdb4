"""Direction-certified curve compaction.

Breakpoint counts are the whole cost model of the min-plus kernel: the
service transform, curve sums, and pseudo-inverses in
:mod:`repro.curves.ops` are all linear-to-loglinear in the number of
breakpoints of their inputs, and those counts grow multiplicatively as
envelopes are summed across interferers and re-derived across Kleene
sweeps.  Real-Time Calculus toolboxes stay fast at scale by *compacting*
curves between operators -- replacing a curve by a nearby one with far
fewer segments -- which is sound only when the replacement errs in a
known direction.

:func:`compact` implements that contract:

* ``compact(c, "upper", budget=k)`` returns a curve with at most ``k``
  breakpoints that **dominates** ``c`` pointwise (``>= c`` everywhere),
* ``compact(c, "lower", budget=k)`` returns one **dominated by** ``c``
  (``<= c`` everywhere),

so upper bounds stay upper bounds and lower bounds stay lower bounds no
matter where the result is substituted -- every operator in
:mod:`repro.curves.ops` is monotone in its curve arguments.  Exact
quantities must never be compacted; the analyses only apply this to
envelopes that are already one-sided bounds (see
``docs/performance.md``).

Construction
------------
The curve's knots are partitioned into spans by greedy rise-bounded
merging (error mode) or equal-rise placement along the value axis
(budget mode; L-infinity optimal for monotone staircases).  How a
merged span ``[a, b)`` is replaced depends on ``shape``:

* ``shape="step"`` substitutes a single flat level -- the span's left
  limit at ``b`` for upper mode (so the replacement sits just above
  every value in the span), the span's value at ``a`` for lower mode
  (just below) -- with the certified vertical error being exactly the
  span's rise.  Compacting a step curve then yields a step curve:
  workload staircases stay legal inputs to
  :func:`~repro.curves.ops.service_transform` and
  :func:`~repro.curves.ops.fcfs_utilization`, which reject non-step
  workloads.  The flat level's error grows with the span's rise, which
  for long-run curves scales with the analysis horizon.

* ``shape="linear"`` substitutes the span's *chord* -- the segment from
  ``(a, curve(a))`` to ``(b, curve(b^-))`` -- lifted (upper) or
  depressed (lower) by the smallest shift that certifies domination at
  every knot inside the span.  The error is the curve's deviation from
  linearity inside the span (for workload staircases: about one step
  height), which is *horizon-independent* -- the right choice whenever
  the consumer accepts general piecewise-linear curves, e.g. the
  ``identity_minus`` pseudo-inverses on the static-priority path.
  Only supported in budget mode.

Spans covering a single original segment are reproduced exactly in both
shapes, and the final breakpoint and ``final_slope`` tail are always
preserved, so the result agrees with the input at and beyond its last
knot (up to the one-sided monotonicity closure in linear shape, which
only shifts further in the certified direction).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..obs import metrics as _obs_metrics
from . import memo
from .curve import Curve, CurveError

__all__ = ["MIN_BUDGET", "compact", "max_deviation"]

#: Smallest accepted breakpoint budget: base and final points plus at
#: least one merged span (jump + plateau) at each end of the curve.
MIN_BUDGET = 8

_MODES = ("upper", "lower")
_SHAPES = ("step", "linear")


def compact(
    curve: Curve,
    mode: str,
    budget: Optional[int] = None,
    max_error: Optional[float] = None,
    shape: str = "step",
) -> Curve:
    """Reduce ``curve`` to few breakpoints, erring only in ``mode`` direction.

    Parameters
    ----------
    curve:
        Any curve.  Returned unchanged when already within budget.
    mode:
        ``"upper"`` -- the result dominates the input everywhere (sound
        replacement for arrival/workload *upper* bounds); ``"lower"`` --
        the result is dominated by the input (sound for departure floors
        and workload/utilization *lower* bounds).
    budget:
        Hard cap on the number of breakpoints of the result
        (``>= MIN_BUDGET``).  Exactly one of ``budget`` / ``max_error``
        must be given.
    max_error:
        Certified bound on the vertical deviation ``|result - curve|``;
        the breakpoint count then adapts to the curve's shape.
    shape:
        ``"step"`` (default) replaces merged spans by flat plateaus and
        preserves the step property; ``"linear"`` replaces them by
        shifted chords, whose error tracks the curve's burstiness
        instead of its rise.  ``"linear"`` requires ``budget`` mode.

    Returns
    -------
    Curve
        A curve with ``result >= curve`` (upper) or ``result <= curve``
        (lower) pointwise on all of ``[0, inf)``; in error mode
        additionally ``|result - curve| <= max_error`` everywhere.
    """
    if mode not in _MODES:
        raise CurveError(f"compact mode must be one of {_MODES}, got {mode!r}")
    if shape not in _SHAPES:
        raise CurveError(f"compact shape must be one of {_SHAPES}, got {shape!r}")
    if (budget is None) == (max_error is None):
        raise CurveError("exactly one of budget / max_error must be given")
    if budget is not None and budget < MIN_BUDGET:
        raise CurveError(f"budget must be >= {MIN_BUDGET}, got {budget}")
    if max_error is not None and max_error <= 0:
        raise CurveError(f"max_error must be positive, got {max_error}")
    if shape == "linear" and budget is None:
        raise CurveError("shape='linear' requires budget mode")

    if budget is not None and curve.n_breakpoints <= budget:
        return curve
    if np.unique(curve.breakpoints().x).size <= 2:
        return curve

    cache = memo.active_curve_cache()
    if cache is None:
        return _compact_impl(curve, mode, budget, max_error, shape)
    key = memo.transform_key(
        b"compact/" + mode.encode() + b"/" + shape.encode(),
        (curve,),
        (float(-1 if budget is None else budget),
         float(-1.0 if max_error is None else max_error)),
    )
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = _compact_impl(curve, mode, budget, max_error, shape)
    cache.put(key, result)
    return result


def _compact_impl(
    curve: Curve,
    mode: str,
    budget: Optional[int],
    max_error: Optional[float],
    shape: str,
) -> Curve:
    knots = np.unique(curve.breakpoints().x)
    V = np.atleast_1d(np.asarray(curve.value(knots), dtype=float))
    L = np.atleast_1d(np.asarray(curve.value_left(knots), dtype=float))

    if budget is not None:
        bounds = _equal_rise_bounds(knots, V, max(1, (budget - 2) // 2))
    else:
        bounds = _greedy_rise_bounds(V, L, max_error)

    xs: List[float] = [float(knots[0])]
    ys: List[float] = [float(L[0])]

    def emit(x: float, y: float) -> None:
        if xs[-1] == x and ys[-1] == y:
            return
        xs.append(x)
        ys.append(y)

    for s, e in zip(bounds[:-1], bounds[1:]):
        if e == s + 1:
            # Single original segment: reproduce it exactly.
            emit(float(knots[s]), float(V[s]))
            emit(float(knots[e]), float(L[e]))
        elif shape == "linear":
            _emit_chord(emit, knots, V, L, int(s), int(e), mode)
        elif mode == "upper":
            # Jump at the span start to the span's supremum, hold flat.
            emit(float(knots[s]), float(L[e]))
            emit(float(knots[e]), float(L[e]))
        else:
            # Hold the span's infimum flat; the jump lands at the span end.
            emit(float(knots[s]), float(V[s]))
            emit(float(knots[e]), float(V[s]))
    emit(float(knots[-1]), float(V[-1]))

    ys_arr = np.asarray(ys, dtype=float)
    if shape == "linear":
        # Independently shifted chords need not join monotonically.  The
        # closure below moves points *further* in the certified direction
        # only -- PL interpolation is monotone in its breakpoint values,
        # so raising values keeps an upper bound an upper bound and
        # lowering keeps a lower bound below the input.
        if mode == "upper":
            np.maximum.accumulate(ys_arr, out=ys_arr)
        else:
            ys_arr = np.minimum.accumulate(ys_arr[::-1])[::-1]
    result = Curve._build(
        np.asarray(xs, dtype=float),
        ys_arr,
        curve.final_slope,
    )
    _obs_metrics.inc("repro_curve_compactions_total", mode=mode, shape=shape)
    _obs_metrics.set_gauge(
        "repro_curve_breakpoints",
        float(curve.n_breakpoints),
        stage="in",
        mode=mode,
    )
    _obs_metrics.set_gauge(
        "repro_curve_breakpoints",
        float(result.n_breakpoints),
        stage="out",
        mode=mode,
    )
    return result


def _emit_chord(emit, knots, V, L, s: int, e: int, mode: str) -> None:
    """Emit the certified shifted chord for the multi-segment span ``s..e``.

    The chord runs from ``(knots[s], V[s])`` to ``(knots[e], L[e])``.
    Between consecutive knots both the input and the chord are linear,
    so domination over the whole span reduces to the knots: the chord
    must clear every right value ``V[j]`` at segment starts (upper) or
    stay below every left limit ``L[j]`` at segment ends (lower); the
    opposite one-sided values are implied because ``L <= V``.  The
    smallest sufficient vertical shift ``d`` is applied to both chord
    endpoints, so the certified error of the span is exactly ``d`` plus
    the chord's own deviation -- bounded by the span's deviation from
    linearity, not by its rise.
    """
    a, b = float(knots[s]), float(knots[e])
    # Python floats: an overflowing slope is inf here, where numpy scalars
    # would also raise a RuntimeWarning.
    rho = (float(L[e]) - float(V[s])) / (b - a)
    if not math.isfinite(rho):
        # The chord slope overflows when the span's knots are packed
        # within a denormal width.  Fall back to the certified flat step
        # for this span: direction is preserved and values stay finite.
        lvl = float(L[e]) if mode == "upper" else float(V[s])
        emit(a, lvl)
        emit(b, lvl)
        return
    if mode == "upper":
        inner = slice(s, e)
        chord = V[s] + rho * (knots[inner] - a)
        d = max(0.0, float(np.max(V[inner] - chord)))
        emit(a, float(V[s] + d))
        emit(b, float(L[e] + d))
    else:
        inner = slice(s + 1, e)
        chord = V[s] + rho * (knots[inner] - a)
        d = max(0.0, float(np.max(chord - L[inner])))
        emit(a, float(V[s] - d))
        emit(b, float(L[e] - d))


def _equal_rise_bounds(
    knots: np.ndarray, V: np.ndarray, n_spans: int
) -> np.ndarray:
    """Span boundaries placed uniformly along the value axis."""
    last = knots.size - 1
    total = V[-1] - V[0]
    if n_spans <= 1 or total <= 0:
        return np.array([0, last])
    targets = V[0] + total * np.arange(1, n_spans) / n_spans
    idx = np.clip(np.searchsorted(V, targets), 1, last - 1)
    return np.unique(np.concatenate(([0], idx, [last])))


def _greedy_rise_bounds(
    V: np.ndarray, L: np.ndarray, max_error: float
) -> np.ndarray:
    """Greedy merge: extend each span while its rise stays within budget.

    A merged span ``s..e`` replaces the input by a flat level, so its
    certified error is its rise ``L[e] - V[s]``; single-segment spans are
    emitted exactly and contribute no error at all.
    """
    last = V.size - 1
    bounds = [0]
    s = 0
    while s < last:
        e = s + 1
        while e < last and L[e + 1] - V[s] <= max_error:
            e += 1
        bounds.append(e)
        s = e
    return np.asarray(bounds, dtype=int)


def max_deviation(a: Curve, b: Curve, t_end: float, n: int = 2048) -> float:
    """Largest ``|a - b|`` sampled densely on ``[0, t_end]``.

    Evaluates both right values and left limits on a grid that includes
    every breakpoint of both curves, so staircase jumps are not missed.
    Diagnostic helper for benchmarks and tests -- not used on hot paths.
    """
    ax = np.asarray(a.breakpoints().x)
    bx = np.asarray(b.breakpoints().x)
    grid = np.unique(np.concatenate([
        np.linspace(0.0, t_end, n),
        ax[ax <= t_end],
        bx[bx <= t_end],
    ]))
    dev = np.abs(np.asarray(a.value(grid)) - np.asarray(b.value(grid)))
    dev_l = np.abs(np.asarray(a.value_left(grid)) - np.asarray(b.value_left(grid)))
    return float(max(dev.max(initial=0.0), dev_l.max(initial=0.0)))
