"""Tier 2: disk spill behind the in-process curve cache.

:class:`CurveSpill` implements the spill protocol of
:class:`repro.curves.memo.CurveCache` (``load(key)`` / ``save(key,
value)``) on top of a :class:`~repro.cache.store.DiskCacheStore`: every
memoized kernel result (``service_transform``, ``sum_curves``, ...) is
written through to disk, and an in-memory miss consults the disk before
recomputing.  The memo key (:func:`repro.curves.memo.transform_key`)
already digests the operator tag, every input curve's breakpoints and
the scalar arguments -- so the disk entry is content-addressed by exactly
the inputs that determine the output, and changed inputs simply miss.

Curves are serialized as their breakpoint arrays plus final slope.
Python floats round-trip exactly through JSON (``repr`` is the shortest
round-trip form), and stored curves are already canonical, so
deserialization rebuilds with ``canonicalize=False`` and the
reconstruction is bit-identical.  As a belt-and-braces check the entry
also records the curve's memo token (a digest of those same arrays); a
reconstructed curve whose token disagrees is treated as corrupt and
recomputed -- a wrong curve can never come back out.
"""

from __future__ import annotations

from typing import Optional

from ..curves import memo
from ..curves.curve import Curve, CurveError
from .store import DiskCacheStore

__all__ = ["CURVES_KIND", "CurveSpill"]

#: Store namespace for spilled curve-kernel results.
CURVES_KIND = "curves"


class CurveSpill:
    """Persist memoized curves in a :class:`DiskCacheStore`."""

    def __init__(self, store: DiskCacheStore) -> None:
        self.store = store

    def load(self, key: bytes) -> Optional[Curve]:
        """Reconstruct the curve stored under a memo ``key``, if intact."""
        body = self.store.get(CURVES_KIND, key.hex())
        if not isinstance(body, dict):
            return None
        try:
            curve = Curve.from_breakpoints(
                body["x"], body["y"], float(body["fs"]), canonicalize=False
            )
        except (KeyError, TypeError, ValueError, CurveError):
            return None
        if memo._curve_token(curve).hex() != body.get("t"):
            # Serialization drift (or an entry written by a future format):
            # the rebuilt curve is not the one that was stored.  Miss.
            return None
        return curve

    def save(self, key: bytes, value: object) -> None:
        """Write one memoized value through to disk (non-curves ignored)."""
        if not isinstance(value, Curve):
            return
        self.store.put(
            CURVES_KIND,
            key.hex(),
            {
                "x": value._x.tolist(),
                "y": value._y.tolist(),
                "fs": value.final_slope,
                "t": memo._curve_token(value).hex(),
            },
        )
