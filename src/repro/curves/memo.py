"""In-process memoization of curve-valued operators.

The min-plus kernel :func:`repro.curves.ops.service_transform` dominates
the cost of every horizon-based analysis, and its inputs are highly
redundant: identical availability/workload curve pairs recur both within
one analysis (horizon doubling re-derives unchanged low-priority prefixes)
and across the many randomly drawn task sets of an admission sweep, which
share arrival grids and execution-time quantizations.

This module provides a small bounded LRU table keyed on *hashed curve
breakpoints*.  Keys are BLAKE2b digests over the raw breakpoint arrays
(``x``, ``y``) and the final slope of each input curve, plus the scalar
operator arguments -- two curves hash equal exactly when they are the same
function in canonical form.  Cached values are :class:`~.curve.Curve`
objects, which the package treats as immutable, so hits hand back the
stored instance without copying.

The cache is *opt in*: nothing is memoized unless a cache has been
activated for the current process via :func:`enable_curve_cache` or the
:func:`curve_cache` context manager.  The batch engine
(:mod:`repro.batch`) activates one per worker process and reports hit
rates per work item.  The table lives in memory only; cross-run reuse is
the job of the whole-record result cache (:mod:`repro.cache`).
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

__all__ = [
    "CacheStats",
    "CurveCache",
    "enable_curve_cache",
    "disable_curve_cache",
    "active_curve_cache",
    "curve_cache",
    "transform_key",
]

#: Default number of memoized entries before LRU eviction kicks in.
DEFAULT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    size: int = 0
    maxsize: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since the ``earlier`` snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            size=self.size,
            maxsize=self.maxsize,
            evictions=self.evictions - earlier.evictions,
        )

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready record (surfaced in schema-v1 result payloads)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 6),
        }


class CurveCache:
    """Bounded LRU memo table mapping digest keys to curves."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_table")

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._table: "OrderedDict[bytes, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: bytes):
        """Look up ``key``, counting the hit/miss and refreshing recency."""
        entry = self._table.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._table.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: bytes, value) -> None:
        self._table[key] = value
        self._table.move_to_end(key)
        while len(self._table) > self.maxsize:
            self._table.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries; the counters are preserved."""
        self._table.clear()

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            size=len(self._table),
            maxsize=self.maxsize,
            evictions=self.evictions,
        )


#: The process-wide active cache; ``None`` disables memoization entirely.
_ACTIVE: Optional[CurveCache] = None


def active_curve_cache() -> Optional[CurveCache]:
    """The cache currently consulted by the curve operators, if any."""
    return _ACTIVE


def enable_curve_cache(
    maxsize: int = DEFAULT_CACHE_SIZE, cache: Optional[CurveCache] = None
) -> CurveCache:
    """Activate memoization for this process and return the active cache.

    Re-enabling with an already-active cache keeps it (and its contents);
    passing an explicit ``cache`` installs that instance instead.
    """
    global _ACTIVE
    if cache is not None:
        _ACTIVE = cache
    elif _ACTIVE is None:
        _ACTIVE = CurveCache(maxsize)
    return _ACTIVE


def disable_curve_cache() -> Optional[CurveCache]:
    """Deactivate memoization; returns the cache that was active."""
    global _ACTIVE
    cache, _ACTIVE = _ACTIVE, None
    return cache


@contextmanager
def curve_cache(
    maxsize: int = DEFAULT_CACHE_SIZE, cache: Optional[CurveCache] = None
) -> Iterator[CurveCache]:
    """Scope a curve cache to a ``with`` block, restoring the prior state."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache if cache is not None else CurveCache(maxsize)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def _curve_token(curve) -> bytes:
    """Digest of a curve's canonical breakpoint representation."""
    token = curve._memo_token
    if token is None:
        h = hashlib.blake2b(digest_size=16)
        h.update(np.ascontiguousarray(curve._x, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(curve._y, dtype="<f8").tobytes())
        h.update(struct.pack("<d", curve.final_slope))
        token = h.digest()
        curve._memo_token = token
    return token


def transform_key(op: bytes, curves, scalars) -> bytes:
    """Key for an operator application: op tag + curve digests + scalars."""
    h = hashlib.blake2b(digest_size=16)
    h.update(op)
    for curve in curves:
        h.update(_curve_token(curve))
    h.update(struct.pack(f"<{len(scalars)}d", *scalars))
    return h.digest()
