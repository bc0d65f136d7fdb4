"""Cross-analyzer performance options.

:class:`AnalysisOptions` bundles the knobs of the performance layer --
sound curve compaction (:mod:`repro.curves.compact`) and horizon
warm-starting -- so they can be threaded uniformly through
:func:`~repro.analysis.admission.make_analyzer`, the batch engine, and
the CLI without changing any analyzer's positional signature.

The default for every analyzer is ``options=None``: no compaction and
cold-started horizons.  ``AnalysisOptions()`` gives the same bounds bit
for bit; setting ``compact_budget``/``compact_max_error`` trades bound
tightness for speed in a certified direction (bounds stay sound, they
only get looser than the exact ones) and, for ``Fixpoint/App``, turns on
horizon warm-starting.  Exact analyses ignore compaction entirely; see
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

    #: Max breakpoints per compacted envelope (``None`` disables
    #: compaction in ``"budget"`` mode).  Must be >= ``MIN_BUDGET``.
    compact_budget: Optional[int] = None
    #: ``"budget"`` caps breakpoint counts at ``compact_budget``;
    #: ``"error"`` instead bounds the certified vertical deviation by
    #: ``compact_max_error`` and lets the breakpoint count float.
    compact_mode: str = "budget"
    #: Certified vertical error bound for ``compact_mode="error"``.
    compact_max_error: Optional[float] = None
    #: With compaction enabled, seed each doubled horizon of
    #: ``Fixpoint/App`` from the previous horizon's envelopes.  Sound
    #: (every seeded value is itself a bound; see ``FixpointAnalysis``)
    #: and usually tighter, but not lossless: compacted curves differ
    #: between horizons, so some bounds also come out looser.  Without
    #: compaction no horizon is seeded.
    warm_start: bool = True
    #: Record per-sweep fixpoint convergence telemetry (max residual,
    #: per-hop bound deltas, dirty-set sizes) in the result's
    #: ``convergence`` block.  Telemetry-only: bounds and every other
    #: result field are unchanged, and the flag is excluded from journal
    #: item digests.
    convergence: bool = False
    #: In-process curve-cache capacity (entries before LRU eviction).
    #: ``None`` keeps :data:`repro.curves.memo.DEFAULT_CACHE_SIZE`.
    #: Performance-only -- memoized values are exact, so capacity never
    #: changes a bound -- and therefore excluded from journal item
    #: digests, like ``convergence``.
    cache_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.compact_mode not in ("budget", "error"):
            raise ValueError(
                f"compact_mode must be 'budget' or 'error', "
                f"got {self.compact_mode!r}"
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
        if self.compact_mode == "error" and self.compact_max_error is None:
            raise ValueError(
                "compact_mode='error' requires compact_max_error"
            )
        if self.cache_size is not None and self.cache_size <= 0:
            raise ValueError(
                f"cache_size must be positive, got {self.cache_size}"
            )

    @property
    def compaction_enabled(self) -> bool:
        if self.compact_mode == "error":
            return self.compact_max_error is not None
        return self.compact_budget is not None

    def cap(self, curve: Curve, direction: str, require_step: bool = False) -> Curve:
        """Compact ``curve`` in the certified ``direction`` if enabled.

        ``require_step=True`` forces the step-preserving shape; callers
        must set it whenever the result feeds a step-only kernel
        (``service_transform`` / ``fcfs_utilization``).  Otherwise budget
        mode uses the chord (``"linear"``) shape, whose certified error
        tracks the curve's burstiness instead of scaling with the
        analysis horizon.  Error mode is always step-shaped: its
        per-span error certificate is the span rise, which has no linear
        counterpart with adaptive breakpoint counts.
        """
        if not self.compaction_enabled:
            return curve
        if self.compact_mode == "error":
            return compact(curve, direction, max_error=self.compact_max_error)
        shape = "step" if require_step else "linear"
        return compact(curve, direction, budget=self.compact_budget, shape=shape)

    def cap_upper(self, curve: Curve, require_step: bool = False) -> Curve:
        """Compact an upper-bound envelope upward (result dominates it)."""
        return self.cap(curve, "upper", require_step=require_step)

    def cap_lower(self, curve: Curve, require_step: bool = False) -> Curve:
        """Compact a lower-bound envelope downward (result stays below)."""
        return self.cap(curve, "lower", require_step=require_step)

