"""Adaptive analysis horizon.

All curves in this package are finite objects over ``[0, H]``.  The
analyses are *exact on the horizon*: arrivals after ``H`` cannot influence
service before ``H``, so every completion bound that lands inside the
horizon is final.  The driver below grows ``H`` geometrically until

1. every *analyzed* instance (released within the report window
   ``[0, H * ANALYZE_FRACTION]``) provably completes within ``H``, and
2. the per-job bounds are stable under one further doubling
   (``require_convergence``), guarding against a later instance being the
   worst one.

If the system looks overloaded (some processor's long-run utilization is
``>= 1``) or the cap is reached, the driver reports an unschedulable
result with infinite bounds instead of looping forever.

The report window exists because instances released just before ``H``
always complete just after it; instances released in ``(H_report, H)``
participate as interference but their own responses are not reported.
For the paper's workloads (synchronous start, front-loaded bursts that
relax toward periodicity) the worst response occurs early, and the
convergence check verifies this empirically per job set.  See DESIGN.md
section 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..model.job import JobSet
from ..obs.trace import trace_span
from .base import AnalysisResult

__all__ = ["HorizonConfig", "initial_horizon", "run_adaptive"]

#: Geometric growth factor of the horizon from one round to the next.
GROWTH = 2.0
#: Report window as a fraction of the horizon.
ANALYZE_FRACTION = 0.5
#: Relative tolerance under which two rounds' bounds count as stable.
REL_TOL = 1e-9
#: A processor loaded beyond this long-run utilization is overloaded.
UTILIZATION_GUARD = 1.0 - 1e-9


@dataclass(frozen=True)
class HorizonConfig:
    """Tuning of the adaptive horizon driver."""

    initial: Optional[float] = None  #: starting horizon; auto-derived if None
    max_rounds: int = 12  #: maximum number of growth steps
    require_convergence: bool = True  #: demand bound stability across rounds

    def __post_init__(self) -> None:
        if self.initial is not None and not (
            math.isfinite(self.initial) and self.initial > 0.0
        ):
            raise ValueError(
                f"initial must be finite and positive, got {self.initial}"
            )
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")


#: Consecutive bound-tracks-horizon rounds before the watchdog calls it
#: divergence.  Three doublings of steady geometric growth is well past any
#: transient a stable system exhibits while its busy window fills out.
_DIVERGENCE_ROUNDS = 3

#: Fraction of the horizon growth factor the bounds must keep up with for a
#: round to count toward the divergence streak.
_DIVERGENCE_TRACK = 0.8


def initial_horizon(job_set: JobSet) -> float:
    """Derive a starting horizon from deadlines, periods and trace spans."""
    spans = [1.0]
    for job in job_set:
        spans.append(job.deadline)
        rate = job.arrivals.rate
        if rate > 0:
            spans.append(1.0 / rate)
        times = job.arrivals.release_times(math.inf) if rate == 0 else None
        if times is not None and len(times):
            spans.append(float(times[-1]) + job.deadline)
    return 4.0 * max(spans)


def _stable(prev: Dict[str, float], cur: Dict[str, float]) -> bool:
    for job_id, v in cur.items():
        p = prev.get(job_id)
        if p is None:
            return False
        if math.isinf(v) and math.isinf(p):
            continue
        if math.isinf(v) or math.isinf(p):
            return False
        scale = max(abs(v), abs(p), 1.0)
        if abs(v - p) > REL_TOL * scale:
            return False
    return True


def _growth_tracks_horizon(prev: Dict[str, float], cur: Dict[str, float]) -> bool:
    """True if some job's bound grew almost as fast as the horizon did.

    A bound that keeps pace with geometric horizon growth is the signature
    of divergence: each doubling reveals a proportionally worse instance, so
    waiting for stability is hopeless.
    """
    threshold = _DIVERGENCE_TRACK * GROWTH
    for job_id, v in cur.items():
        p = prev.get(job_id)
        if p is None or not math.isfinite(p) or not math.isfinite(v) or p <= 0:
            continue
        if v >= threshold * p:
            return True
    return False


def run_adaptive(
    analyze_once: Callable[[float, float], Tuple[AnalysisResult, bool]],
    job_set: JobSet,
    config: HorizonConfig,
) -> AnalysisResult:
    """Drive ``analyze_once(horizon, report_window)`` to a stable result.

    ``analyze_once`` returns ``(result, ok)`` where ``ok`` means every
    analyzed instance completed within the horizon.  The driver returns as
    soon as a run is ``ok`` and either already unschedulable (larger
    horizons only confirm misses: per-hop maxima are taken over a superset
    of instances) or stable against the previous ``ok`` run.

    A watchdog also recognizes two non-converging shapes early instead of
    silently burning the full round budget:

    * **divergence** -- the per-job bounds keep growing in lockstep with the
      horizon for several consecutive drained rounds (the signature of a
      borderline-overloaded system whose busy window never closes);
    * **oscillation** -- the bounds alternate between two values on
      successive drained rounds (``round n`` matches ``round n-2`` but not
      ``round n-1``).

    Either way the result comes back ``converged=False`` (exactly as if the
    round budget had been exhausted) with a structured entry appended to
    ``result.diagnostics`` naming the pattern, the round, and the horizon.

    When per-round results carry a ``convergence`` telemetry block (the
    fixpoint analyzer under ``AnalysisOptions(convergence=True)``), the
    driver accumulates every round's block and attaches the combined
    per-round view to the final result -- so the opt-in telemetry covers
    the whole horizon-doubling trajectory, not just the last round.
    """
    rounds_telemetry: List[Dict[str, Any]] = []

    def observed_once(h: float, report: float) -> Tuple[AnalysisResult, bool]:
        result, ok = analyze_once(h, report)
        if result.convergence is not None:
            entry = dict(result.convergence)
            entry["round"] = len(rounds_telemetry) + 1
            entry["drained"] = bool(ok)
            rounds_telemetry.append(entry)
        return result, ok

    with trace_span("horizon.adaptive") as span:
        result = _run_adaptive(observed_once, job_set, config)
        if rounds_telemetry:
            result.convergence = {
                "n_rounds": len(rounds_telemetry),
                "total_sweeps": sum(
                    r.get("n_sweeps", 0) for r in rounds_telemetry
                ),
                "rounds": rounds_telemetry,
            }
        span.set_attrs(
            rounds=result.rounds,
            horizon=result.horizon,
            drained=result.drained,
            converged=result.converged,
        )
        return result


def _run_adaptive(
    analyze_once: Callable[[float, float], Tuple[AnalysisResult, bool]],
    job_set: JobSet,
    config: HorizonConfig,
) -> AnalysisResult:
    h = config.initial if config.initial is not None else initial_horizon(job_set)
    prev_bounds: Optional[Dict[str, float]] = None
    prev_prev_bounds: Optional[Dict[str, float]] = None
    diverging_rounds = 0
    last_result: Optional[AnalysisResult] = None
    for round_idx in range(config.max_rounds):
        report = h * ANALYZE_FRACTION
        with trace_span("horizon.round", round=round_idx + 1, horizon=h) as span:
            result, ok = analyze_once(h, report)
            span.set_attrs(drained=ok)
        result.rounds = round_idx + 1
        last_result = result
        if ok:
            result.drained = True
            if not result.schedulable and result.jobs:
                # Misses only accumulate with a larger horizon; stop early.
                result.converged = True
                return result
            bounds = {j: r.wcrt for j, r in result.jobs.items()}
            if not config.require_convergence:
                result.converged = True
                return result
            if prev_bounds is not None and _stable(prev_bounds, bounds):
                result.converged = True
                return result
            if bounds:
                if prev_bounds is not None and _growth_tracks_horizon(
                    prev_bounds, bounds
                ):
                    diverging_rounds += 1
                else:
                    diverging_rounds = 0
                if diverging_rounds >= _DIVERGENCE_ROUNDS:
                    result.converged = False
                    result.diagnostics.append(
                        {
                            "kind": "divergence",
                            "source": "run_adaptive",
                            "round": round_idx + 1,
                            "horizon": h,
                            "detail": (
                                f"bounds tracked horizon growth (x{GROWTH:g}) "
                                f"for {diverging_rounds} consecutive drained rounds"
                            ),
                        }
                    )
                    return result
                if (
                    prev_prev_bounds is not None
                    and _stable(prev_prev_bounds, bounds)
                    and prev_bounds is not None
                    and not _stable(prev_bounds, bounds)
                ):
                    result.converged = False
                    result.diagnostics.append(
                        {
                            "kind": "oscillation",
                            "source": "run_adaptive",
                            "round": round_idx + 1,
                            "horizon": h,
                            "detail": (
                                "bounds alternate between two values on "
                                "successive drained rounds"
                            ),
                        }
                    )
                    return result
            prev_prev_bounds = prev_bounds
            prev_bounds = bounds
        else:
            prev_bounds = None
            prev_prev_bounds = None
            diverging_rounds = 0
        h *= GROWTH
    assert last_result is not None
    last_result.converged = False
    last_result.diagnostics.append(
        {
            "kind": "round_budget_exhausted",
            "source": "run_adaptive",
            "round": config.max_rounds,
            "horizon": h / GROWTH,
            "detail": (
                f"no stable drained result within {config.max_rounds} rounds"
            ),
        }
    )
    return last_result
