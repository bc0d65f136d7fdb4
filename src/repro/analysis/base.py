"""Shared analysis infrastructure: results, errors, dependency ordering.

Every analyzer in this package consumes a :class:`~repro.model.system.System`
and produces an :class:`AnalysisResult` mapping each job to an
:class:`EndToEndResult` with its worst-case end-to-end response-time bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from ..model.job import JobSet, SubJob
from ..model.system import SchedulingPolicy, System

__all__ = [
    "AnalysisError",
    "Analyzer",
    "CyclicDependencyError",
    "SubjobResult",
    "EndToEndResult",
    "AnalysisResult",
    "RESULT_SCHEMA_VERSION",
    "dependency_order",
]

Key = Tuple[str, int]

#: Version tag embedded in every :meth:`AnalysisResult.to_dict` payload.
#: Bump it whenever a documented field changes meaning (see docs/api.md).
RESULT_SCHEMA_VERSION = 1


@runtime_checkable
class Analyzer(Protocol):
    """Uniform interface implemented by every analysis method.

    Every analyzer in :data:`repro.analysis.METHODS`

    * is constructed as ``cls(horizon)`` where ``horizon`` is an optional
      :class:`~repro.analysis.horizon.HorizonConfig` (horizon-free methods
      accept and may ignore it);
    * exposes ``name``, its registry name as used in the paper's figures;
    * exposes ``policy``, the :class:`~repro.model.system.SchedulingPolicy`
      the method forces on every processor, or ``None`` when it honors the
      system's own per-processor policies;
    * implements ``analyze(system) -> AnalysisResult``.

    The protocol is ``runtime_checkable`` so registries of third-party
    analyzers can be validated with ``isinstance(obj, Analyzer)``.
    """

    name: str
    policy: Optional[SchedulingPolicy]

    def analyze(self, system: System) -> "AnalysisResult":
        ...


class AnalysisError(RuntimeError):
    """Base class for analysis failures."""


class CyclicDependencyError(AnalysisError):
    """The subjob dependency graph has a cycle (the paper's "physical" or
    "logical loop"); use :class:`repro.analysis.fixpoint.FixpointAnalysis`."""

    def __init__(self, cycle: Sequence[Key]):
        self.cycle = list(cycle)
        super().__init__(
            "cyclic subjob dependencies "
            + " -> ".join(map(str, self.cycle))
            + "; use Fixpoint/App for systems with loops"
        )


@dataclass
class SubjobResult:
    """Per-hop analysis artifacts for one subjob.

    ``local_delay`` is the hop delay ``d_{k,j}`` of Eq. 12 for approximate
    analyses, or the worst per-instance hop response for the exact one.
    Curves are retained for inspection and plotting; they are valid on
    ``[0, horizon]`` only.
    """

    key: Key
    processor: Hashable
    wcet: float
    priority: Optional[int]
    local_delay: float = math.nan
    arrival_times: Optional[np.ndarray] = None
    completion_times: Optional[np.ndarray] = None
    service_lower: Optional[object] = None
    service_upper: Optional[object] = None


@dataclass
class EndToEndResult:
    """End-to-end response-time bound for one job."""

    job_id: str
    deadline: float
    wcrt: float  #: worst-case end-to-end response-time bound (inf if none)
    n_instances: int  #: number of instances covered by the bound
    per_instance: Optional[np.ndarray] = None  #: per-instance responses (exact analysis)
    hops: List[SubjobResult] = field(default_factory=list)

    @property
    def meets_deadline(self) -> bool:
        # bool() so numpy scalars never leak into strict-JSON payloads
        return bool(self.wcrt <= self.deadline + 1e-9)

    @property
    def slack(self) -> float:
        return self.deadline - self.wcrt


@dataclass
class AnalysisResult:
    """Outcome of one analysis run over a whole system."""

    method: str
    horizon: float
    drained: bool  #: all analyzed instances complete within the horizon
    converged: bool  #: bounds stable under horizon doubling
    jobs: Dict[str, EndToEndResult] = field(default_factory=dict)
    rounds: int = 0  #: adaptive-horizon rounds (doublings + 1); 0 if horizon-free
    #: Structured warnings emitted while analyzing (convergence watchdog
    #: bails, oscillation detection, ...).  Each entry is a JSON-safe dict
    #: with at least a ``"kind"`` key.  Empty on clean runs.
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    #: Curve-cache counters attributable to this analysis (a
    #: :meth:`repro.curves.memo.CacheStats.to_dict` delta), set by callers
    #: that run the analysis under an active cache (the batch engine, the
    #: ``trace`` CLI).  ``None`` when no cache was active.
    cache_stats: Optional[Dict[str, Any]] = None
    #: Optional embedded observability block (``{"trace": [...],
    #: "metrics": {...}}``), attached by callers that request it (e.g.
    #: ``repro trace --embed``).  ``None`` keeps payloads unchanged.
    observability: Optional[Dict[str, Any]] = None
    #: Opt-in fixpoint convergence telemetry (per-round sweep records:
    #: residuals, hop deltas, tightened envelopes; see ``AnalysisOptions
    #: (convergence=True)`` and ``docs/observability.md``).  ``None``
    #: -- the default -- keeps payloads byte-identical.
    convergence: Optional[Dict[str, Any]] = None

    @property
    def schedulable(self) -> bool:
        """True if every job's bound meets its end-to-end deadline.

        An undrained/unconverged analysis is conservatively unschedulable.
        """
        if not self.drained:
            return False
        return all(r.meets_deadline for r in self.jobs.values())

    def wcrt(self, job_id: str) -> float:
        return self.jobs[job_id].wcrt

    def summary(self) -> str:
        """Human-readable per-job table."""
        lines = [
            f"{self.method}: horizon={self.horizon:g} drained={self.drained} "
            f"converged={self.converged} schedulable={self.schedulable}"
        ]
        for job_id, r in sorted(self.jobs.items()):
            verdict = "OK " if r.meets_deadline else "MISS"
            lines.append(
                f"  {verdict} {job_id}: wcrt={r.wcrt:.6g} deadline={r.deadline:.6g} "
                f"({r.n_instances} instances)"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable result with a stable, documented schema.

        The layout is versioned by the top-level ``schema`` field (see
        ``docs/api.md``).  Non-finite floats (an unbounded response time,
        the infinite horizon of horizon-free methods) are mapped to
        ``None`` so the payload is strict JSON.  The optional
        ``diagnostics`` key is present only when the analysis emitted
        structured warnings, so clean payloads are unchanged.  Likewise
        the ``cache`` key (curve-cache counters) appears only when the
        analysis ran under an active curve cache, and ``observability``
        (embedded trace/metrics blocks) only when a caller attached one.
        """
        payload: Dict[str, Any] = {
            "schema": RESULT_SCHEMA_VERSION,
            "method": self.method,
            "horizon": _json_float(self.horizon),
            "drained": bool(self.drained),
            "converged": bool(self.converged),
            "rounds": int(self.rounds),
            "schedulable": self.schedulable,
            "jobs": {
                job_id: {
                    "deadline": _json_float(r.deadline),
                    "wcrt": _json_float(r.wcrt),
                    "slack": _json_float(r.slack),
                    "meets_deadline": r.meets_deadline,
                    "n_instances": int(r.n_instances),
                }
                for job_id, r in sorted(self.jobs.items())
            },
        }
        if self.diagnostics:
            payload["diagnostics"] = list(self.diagnostics)
        if self.cache_stats is not None:
            payload["cache"] = dict(self.cache_stats)
        if self.observability is not None:
            payload["observability"] = self.observability
        if self.convergence is not None:
            payload["convergence"] = self.convergence
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize :meth:`to_dict` as strict JSON (no NaN/Infinity)."""
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)


def _json_float(value: float) -> Optional[float]:
    """Map non-finite floats to ``None`` for strict-JSON payloads."""
    return float(value) if math.isfinite(value) else None


def dependency_order(system: System, for_envelopes: bool = False) -> List[SubJob]:
    """Topologically order subjobs for single-pass analysis.

    Dependencies (see DESIGN.md):

    * chain: ``(k, j-1) -> (k, j)`` -- a subjob's arrivals are its
      predecessor's departures;
    * with ``for_envelopes=False`` (the exact SPP analysis): every
      higher-priority subjob on the same processor must be analyzed first
      (its exact service function shapes the availability of lower
      priorities, Theorem 3);
    * with ``for_envelopes=True`` (the approximate pipeline): the
      *predecessors* of every subjob sharing a processor must be analyzed
      first -- the busy-window hop bounds only consume the interferers'
      arrival envelopes, regardless of policy.

    Raises :class:`CyclicDependencyError` when the graph has a cycle.
    """
    job_set: JobSet = system.job_set
    subs = {s.key: s for s in job_set.all_subjobs()}
    preds: Dict[Key, set] = {k: set() for k in subs}

    for key, sub in subs.items():
        job_id, idx = key
        if idx > 0:
            preds[key].add((job_id, idx - 1))

    for proc in job_set.processors:
        on_proc = job_set.subjobs_on(proc)
        if for_envelopes or system.policy(proc) == SchedulingPolicy.FCFS:
            for a in on_proc:
                for b in on_proc:
                    if a.key == b.key:
                        continue
                    # b's analysis needs a's arrival envelope, i.e. a's
                    # predecessor hop must be done.
                    if a.index > 0:
                        preds[b.key].add((a.job_id, a.index - 1))
        else:
            for a in on_proc:
                for b in on_proc:
                    if a.key == b.key:
                        continue
                    if a.priority is not None and b.priority is not None:
                        if a.priority < b.priority:
                            preds[b.key].add(a.key)

    # Kahn's algorithm with deterministic tie-breaking.
    order: List[SubJob] = []
    remaining = dict(preds)
    ready = sorted(k for k, p in remaining.items() if not p)
    in_ready = set(ready)
    while ready:
        key = ready.pop(0)
        in_ready.discard(key)
        order.append(subs[key])
        del remaining[key]
        newly = []
        for other, p in remaining.items():
            p.discard(key)
            if not p and other not in in_ready:
                newly.append(other)
        for other in sorted(newly):
            ready.append(other)
            in_ready.add(other)
        ready.sort()
    if remaining:
        raise CyclicDependencyError(_extract_cycle(remaining))
    return order


def _extract_cycle(remaining: Dict[Key, set]) -> List[Key]:
    """Recover one genuine directed cycle from the unresolved subgraph.

    After Kahn's algorithm stalls, every key left in ``remaining`` has at
    least one predecessor that is itself unresolved, so walking predecessor
    links must eventually revisit a node; the revisited suffix of the walk
    is a cycle.  The walk follows edges *backwards*, so the suffix is
    reversed before reporting, giving a list ``[n0, n1, ..., n0]`` (closed
    for readability) in which each ``n_i`` is a genuine predecessor of
    ``n_{i+1}`` -- i.e. the reported arrows point in dependency direction.
    """
    start = next(iter(sorted(remaining)))
    path: List[Key] = []
    index: Dict[Key, int] = {}
    cur = start
    while cur not in index:
        index[cur] = len(path)
        path.append(cur)
        # Deterministic choice among the unresolved predecessors.
        cur = min(p for p in remaining[cur] if p in remaining)
    cycle = path[index[cur] :]
    cycle.reverse()
    cycle.append(cycle[0])
    return cycle
