"""Curve algebra for cumulative arrival/workload/service functions.

See :mod:`repro.curves.curve` for the :class:`Curve` data type,
:mod:`repro.curves.ops` for the min-plus operators used by the response
time analysis (Theorems 3--9 of Li, Bettati & Zhao, ICPP 1998),
:mod:`repro.curves.kernels` for the vectorized numerical kernels behind
both, and :mod:`repro.curves.memo` for the opt-in memoization of the hot
:func:`service_transform` kernel.
"""

from .compact import MIN_BUDGET, compact, max_deviation
from .curve import (
    EPS,
    Breakpoints,
    Curve,
    CurveError,
    audit_checks,
    audit_checks_enabled,
    set_audit_checks,
)
from .memo import (
    CacheStats,
    CurveCache,
    active_curve_cache,
    curve_cache,
    disable_curve_cache,
    enable_curve_cache,
)
from .ops import (
    fcfs_service_bounds,
    fcfs_utilization,
    identity_minus,
    min_curves,
    service_transform,
    sum_curves,
)

__all__ = [
    "EPS",
    "Breakpoints",
    "Curve",
    "CurveError",
    "audit_checks",
    "audit_checks_enabled",
    "set_audit_checks",
    "sum_curves",
    "min_curves",
    "identity_minus",
    "service_transform",
    "fcfs_utilization",
    "fcfs_service_bounds",
    "MIN_BUDGET",
    "compact",
    "max_deviation",
    "CacheStats",
    "CurveCache",
    "active_curve_cache",
    "curve_cache",
    "disable_curve_cache",
    "enable_curve_cache",
]
