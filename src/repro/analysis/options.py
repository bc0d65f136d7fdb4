"""Cross-analyzer performance options.

:class:`AnalysisOptions` bundles the knobs of the performance layer --
sound curve compaction (:mod:`repro.curves.compact`) and convergence
telemetry -- so they can be threaded uniformly through
:func:`~repro.analysis.admission.make_analyzer`, the batch engine, and
the CLI without changing any analyzer's positional signature.

The default for every analyzer is ``options=None``: no compaction.
``AnalysisOptions()`` gives the same bounds bit for bit; setting
``compact_budget`` or ``compact_max_error`` trades bound tightness for
speed in a certified direction (bounds stay sound, they only get looser
than the exact ones).  Exact analyses ignore compaction entirely; see
``docs/performance.md`` for guidance on choosing budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..curves.compact import MIN_BUDGET, compact
from ..curves.curve import Curve

__all__ = ["AnalysisOptions"]


@dataclass(frozen=True)
class AnalysisOptions:
    """Performance knobs shared by all horizon-based analyzers."""

    #: Cap every compacted envelope at this many breakpoints.  Must be
    #: >= ``MIN_BUDGET``.
    compact_budget: Optional[int] = None
    #: Instead of a breakpoint cap, bound the certified vertical
    #: deviation of every compacted envelope and let the breakpoint
    #: count float.  At most one of the two may be set; with neither,
    #: compaction is off.
    compact_max_error: Optional[float] = None
    #: Record per-sweep fixpoint convergence telemetry (max residual,
    #: per-hop bound deltas, tightened envelopes) in the result's
    #: ``convergence`` block.  Telemetry-only: bounds and every other
    #: result field are unchanged, and the flag is excluded from journal
    #: item digests.
    convergence: bool = False

    def __post_init__(self) -> None:
        if self.compact_budget is not None and self.compact_max_error is not None:
            raise ValueError(
                "set at most one of compact_budget and compact_max_error"
            )
        if self.compact_budget is not None and self.compact_budget < MIN_BUDGET:
            raise ValueError(
                f"compact_budget must be >= {MIN_BUDGET}, "
                f"got {self.compact_budget}"
            )
        if self.compact_max_error is not None and not (
            math.isfinite(self.compact_max_error) and self.compact_max_error > 0
        ):
            raise ValueError(
                f"compact_max_error must be finite and positive, "
                f"got {self.compact_max_error}"
            )

    @property
    def compaction_enabled(self) -> bool:
        return self.compact_budget is not None or self.compact_max_error is not None

    def cap(self, curve: Curve, direction: str, require_step: bool = False) -> Curve:
        """Compact ``curve`` in the certified ``direction`` if enabled.

        ``require_step=True`` forces the step-preserving shape; callers
        must set it whenever the result feeds a step-only kernel
        (``service_transform`` / ``fcfs_utilization``).  Otherwise a
        ``compact_budget`` uses the chord (``"linear"``) shape, whose
        certified error tracks the curve's burstiness instead of scaling
        with the analysis horizon.  ``compact_max_error`` always compacts
        step-shaped: its per-span error certificate is the span rise,
        which has no linear counterpart with adaptive breakpoint counts.
        """
        if self.compact_max_error is not None:
            return compact(curve, direction, max_error=self.compact_max_error)
        if self.compact_budget is None:
            return curve
        shape = "step" if require_step else "linear"
        return compact(curve, direction, budget=self.compact_budget, shape=shape)

    def cap_upper(self, curve: Curve, require_step: bool = False) -> Curve:
        """Compact an upper-bound envelope upward (result dominates it)."""
        return self.cap(curve, "upper", require_step=require_step)

    def cap_lower(self, curve: Curve, require_step: bool = False) -> Curve:
        """Compact a lower-bound envelope downward (result stays below)."""
        return self.cap(curve, "lower", require_step=require_step)

