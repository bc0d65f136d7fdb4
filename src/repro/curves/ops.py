"""Operators on curves: sums, minima, and the service transform.

The central operator is :func:`service_transform`, the min-plus kernel

    ``S(t) = min_{0 <= s <= max(0, t - lag)} { B(t) - B(s) + c(s) }``

shared by Theorems 3 (exact SPP service, ``lag=0``), 5 (SPNP lower bound,
``lag = b_kj``), 6 (SPNP upper bound, ``lag=0``) and 7 (FCFS utilization,
``B(t)=t``, ``lag=0``) of Li, Bettati & Zhao (ICPP 1998).

The kernel evaluates the cumulative workload ``c`` *left-continuously*
inside the minimum (network-calculus convention); see DESIGN.md section 3.
Writing ``R(u) = min(0, min_{j : p_j < u} ( v_j - B(min(u, p_{j+1})) ))``
over the constant pieces ``(p_j, v_j)`` of ``c``, the kernel becomes
``S(t) = B(t) + R(max(0, t - lag))``.  ``R`` is continuous, non-increasing
and piecewise linear, so ``S`` is materialized exactly on the union of the
breakpoints of ``B`` and the (lag-shifted) kinks of ``R``.

This module wraps the numerical kernels of :mod:`repro.curves.kernels`
with validation, memoization and observability.
"""

from __future__ import annotations

import math
import time
from typing import List, Sequence, Tuple

from . import kernels, memo
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from .curve import EPS, Curve, CurveError

__all__ = [
    "sum_curves",
    "min_curves",
    "identity_minus",
    "service_transform",
    "fcfs_utilization",
    "fcfs_service_bounds",
]


def _run_op(op: str, kernel, *args) -> Curve:
    """Run a curve-valued kernel and build its result, under observability.

    With neither an active metrics registry nor detail-level tracing this
    is a plain call.  When enabled it times the computation (kernel plus
    curve construction) into the ``repro_curve_op_seconds`` histogram and
    (under ``detail`` tracing) records one retroactive span per computed
    operator, parented to whatever analysis span is open.  Cache *hits*
    deliberately get a counter but no span: the lookup is cheaper than
    the span it would produce.
    """
    registry = _obs_metrics.active_metrics()
    detail = _obs_trace.detail_enabled()
    if registry is None and not detail:
        return Curve._build(*kernel(*args), owned=True)
    t0 = time.perf_counter()
    result = Curve._build(*kernel(*args), owned=True)
    dt = time.perf_counter() - t0
    if registry is not None:
        registry.observe("repro_curve_op_seconds", dt, op=op)
    if detail:
        _obs_trace.active_collector().record("curve." + op, t0, dt, {"op": op})
    return result


def _count_cache(op: str, hit: bool) -> None:
    registry = _obs_metrics.active_metrics()
    if registry is not None:
        name = (
            "repro_curve_cache_hits_total"
            if hit
            else "repro_curve_cache_misses_total"
        )
        registry.inc(name, op=op)


def sum_curves(curves: Sequence[Curve]) -> Curve:
    """Pointwise sum of non-decreasing curves (exact).

    Used for the higher-priority service totals in Theorems 3/5/6 and the
    processor workload total ``G_j = sum c_{k,l}`` of Theorem 7 (Eq. 21).
    Memoized on the operands' hashed breakpoints when a curve cache is
    active (see :mod:`repro.curves.memo`).
    """
    curves = list(curves)
    if not curves:
        return Curve.zero()
    if len(curves) == 1:
        return curves[0]
    cache = memo.active_curve_cache()
    if cache is None:
        return _run_op("sum_curves", kernels.sum_curves, curves)
    key = memo.transform_key(b"sum_curves", curves, ())
    hit = cache.get(key)
    _count_cache("sum_curves", hit is not None)
    if hit is not None:
        return hit
    result = _run_op("sum_curves", kernels.sum_curves, curves)
    cache.put(key, result)
    return result


def min_curves(a: Curve, b: Curve) -> Curve:
    """Pointwise minimum of two non-decreasing curves (exact).

    Segment crossings are detected and inserted so the result is an exact
    piecewise-linear representation of ``min(a, b)``.
    """
    return Curve._build(*kernels.min_curves(a, b), owned=True)


def identity_minus(total: Curve, lateness: float = 0.0, mode: str = "exact") -> Curve:
    """The availability curve ``B(t) = max(0, t - lateness - total(t))``.

    This realizes ``A_{k,j}`` of Theorem 3 (``lateness=0``), ``B_{k,j}`` of
    Theorem 5 (``lateness = b_{k,j}``) and of Theorem 6 (``lateness=0``),
    where ``total`` is the sum of the (bounds on) higher-priority service
    functions on the processor.  The clamp at zero only tightens/preserves
    the theorems' bounds (DESIGN.md section 3).

    ``mode`` handles the monotonicity of the result:

    * ``"exact"`` -- ``total`` is a sum of *exact* service functions on one
      processor, so its slope never exceeds 1 and ``B`` is automatically
      non-decreasing (Theorem 3); violations raise.
    * ``"lower"`` / ``"upper"`` -- ``total`` is a sum of service *bounds*,
      which individually never exceed rate 1 but whose sum may locally
      (bounds need not be jointly feasible); the raw ``h`` can then dip.
      ``"lower"`` applies the suffix-minimum closure (never raises a
      value: sound for the availability inside a *lower* service bound),
      ``"upper"`` the running-maximum closure (never lowers a value: sound
      inside an *upper* service bound).

    Memoized on ``total``'s hashed breakpoints plus ``(lateness, mode)``
    when a curve cache is active (see :mod:`repro.curves.memo`).
    """
    if lateness < 0:
        raise CurveError("lateness must be non-negative")
    if mode not in ("exact", "lower", "upper"):
        raise CurveError(f"unknown mode {mode!r}")
    cache = memo.active_curve_cache()
    if cache is None:
        return _run_op(
            "identity_minus", kernels.identity_minus, total, lateness, mode
        )
    key = memo.transform_key(
        b"identity_minus:" + mode.encode(), (total,), (lateness,)
    )
    hit = cache.get(key)
    _count_cache("identity_minus", hit is not None)
    if hit is not None:
        return hit
    result = _run_op(
        "identity_minus", kernels.identity_minus, total, lateness, mode
    )
    cache.put(key, result)
    return result


def service_transform(
    B: Curve, c: Curve, lag: float = 0.0, t_end: float = math.inf
) -> Curve:
    """The paper's min-plus service kernel (Theorems 3, 5, 6, 7).

    When a curve cache is active (see :mod:`repro.curves.memo`), results
    are memoized on the hashed breakpoints of ``B`` and ``c`` plus
    ``(lag, t_end)``; the kernel is a pure function of those inputs, so a
    hit returns the identical curve that a fresh evaluation would.

    Parameters
    ----------
    B:
        Availability curve (continuous, non-decreasing, ``B(0) = 0``),
        typically produced by :func:`identity_minus`.
    c:
        Cumulative workload step curve of the analyzed subjob (Def. 3), or
        the processor total ``G`` for Theorem 7.
    lag:
        The blocking lag ``b_{k,j}`` of Theorem 5; zero for the exact and
        upper-bound transforms.
    t_end:
        Analysis horizon.  The returned curve is exact on ``[0, t_end]``
        (for ``lag=0``) and must not be trusted beyond it, because ``c``
        itself only describes arrivals up to the horizon.

    Returns
    -------
    Curve
        ``S`` with ``S(t) = B(t) + R(max(0, t - lag))`` made monotone (the
        lagged formula can dip; the running maximum is a valid tightening
        of a lower bound on a non-decreasing service function).
    """
    if lag < 0:
        raise CurveError("lag must be non-negative")
    if not math.isfinite(t_end):
        t_end = max(B.x_end, c.x_end) + 1.0
    cache = memo.active_curve_cache()
    if cache is None:
        return _run_op(
            "service_transform", kernels.service_transform, B, c, lag, t_end
        )
    key = memo.transform_key(b"service_transform", (B, c), (lag, t_end))
    hit = cache.get(key)
    _count_cache("service_transform", hit is not None)
    if hit is not None:
        return hit
    result = _run_op(
        "service_transform", kernels.service_transform, B, c, lag, t_end
    )
    cache.put(key, result)
    return result


def fcfs_utilization(G: Curve, t_end: float = math.inf) -> Curve:
    """Utilization function of an FCFS processor (Theorem 7, Eq. 20).

    ``U(t) = min_{0<=s<=t} { t - s + G(s) }`` -- the service transform with
    unit-rate availability ``B(t) = t`` applied to the processor's total
    workload ``G`` (Eq. 21).
    """
    return service_transform(Curve.identity(), G, lag=0.0, t_end=t_end)


def fcfs_service_bounds(
    c: Curve, G: Curve, tau: float, t_end: float, U: Curve = None
) -> Tuple[Curve, Curve]:
    """Lower/upper service bounds under FCFS (Theorems 8 and 9).

    ``S_lower(t) = c(G^{-1}(U(t)))`` and ``S_upper = S_lower + tau``.  The
    composition is materialized batch-by-batch: for each jump of ``G`` at
    time ``p_j`` to cumulative level ``G_j``, the analyzed subjob's service
    lower bound rises to ``c(p_j)`` at the instant ``U`` first reaches
    ``G_j`` (all work arrived up to and including the batch at ``p_j`` has
    then been served).  While a batch is only partially served the lower
    bound keeps the previous level and the upper bound adds ``tau`` --
    exactly the ambiguity Theorems 8/9 bracket.

    The upper bound is additionally capped at ``c(t)`` (a subjob can never
    have received more service than it has demanded), which also keeps the
    bound sound when the *bounding* arrival curve of a downstream hop
    carries simultaneous batched arrivals.
    """
    if U is None:
        U = fcfs_utilization(G, t_end=t_end)
    p_arr, gv_arr = G.steps()
    p = p_arr.tolist()
    gv = gv_arr.tolist()
    pairs = [(pi, gi) for pi, gi in zip(p, gv) if pi <= t_end + EPS]
    # Drop the implicit zero-level piece at t=0 when G has no jump there.
    levels = [gi for _, gi in pairs if gi > EPS]
    times_of_batches = [pi for pi, gi in pairs if gi > EPS]
    if not levels:
        lower = Curve.zero()
        return lower, min_curves(lower.shift_y(tau), c)
    t_done = U.first_crossing(levels).tolist()
    xs: List[float] = [0.0]
    ys: List[float] = [0.0]
    for tb, pj in zip(t_done, times_of_batches):
        if not (math.isfinite(tb) and tb <= t_end + EPS):
            break
        level_c = float(c.value(pj))
        if level_c > ys[-1] + EPS:
            xs.append(tb)
            ys.append(ys[-1])
            xs.append(tb)
            ys.append(level_c)
    lower = Curve._build(xs, ys, 0.0)
    upper = min_curves(lower.shift_y(tau), c)
    return lower, upper
