"""Approximate per-hop analysis pipeline (Section 4.2 of the paper).

**Theorem 4** bounds the end-to-end response time by a sum of per-hop
delays ``d_k <= sum_j d_{k,j}`` with
``d_{k,j} = max_m ( f_dep_lower^{-1}(m) - f_arr_upper^{-1}(m) )`` (Eq. 12).
Per hop, the analyzed subjob needs an *upper* bound on its arrival
function (earliest possible releases, Lemma 2) and a *lower* bound on its
departure function (latest possible completions, Lemma 1).

This engine realizes the pipeline with the busy-window hop bounds of
:mod:`repro.analysis.hopbounds`, which strengthen the paper's literal
Theorem 5/6 (SPNP) and 7/8/9 (FCFS) constructions: the literal
service-bound formulas evaluate interference at the earliest-arrival
envelope, which can under-approximate the delay of realizations where an
interferer arrives later (our test suite demonstrates this against the
simulator).  The busy-window bounds are sound for *every* realization
consistent with the propagated envelopes and coincide with the paper's
formulas in the envelope-aligned case.  See DESIGN.md section 3.

Per subjob and hop, the pipeline maintains

* ``early``: per-instance earliest release times (arrival-function upper
  bound, Lemma 2 via the full-availability transform), and
* ``late``: per-instance latest completion times of the previous hop
  (departure-function lower bound, Lemma 1 via busy-window analysis),

and reports ``d_{k,j} = max_m (late_next_m - early_m)``.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..curves import Curve, fcfs_utilization, sum_curves
from ..model.job import SubJob
from ..model.system import SchedulingPolicy, System
from ..obs.trace import trace_span
from .base import (
    AnalysisResult,
    EndToEndResult,
    SubjobResult,
    dependency_order,
)
from .hopbounds import (
    earliest_departures,
    fcfs_departure_bound,
    priority_departure_bound,
    visible_step,
)
from .horizon import HorizonConfig, run_adaptive
from .options import AnalysisOptions
from .spp_exact import _overloaded_result

__all__ = [
    "CompositionalAnalysis",
    "SpnpApproxAnalysis",
    "FcfsApproxAnalysis",
    "SppApproxAnalysis",
    "blocking_time",
]

Key = Tuple[str, int]


def blocking_time(
    system: System,
    sub: SubJob,
    policy: Optional[SchedulingPolicy] = None,
) -> float:
    """Maximum blocking time ``b_{k,j}`` (Eq. 15, generalized).

    On an SPNP processor a started lower-priority subjob runs to
    completion, so the bound is the largest lower-priority execution time
    (the paper's Eq. 15).  On an SPP processor a lower-priority subjob
    can still mask preemption for its ``nonpreemptive_section``, so the
    bound is the largest such masked region -- zero for fully preemptive
    workloads, recovering the original preemptive analysis.
    """
    if policy is None:
        policy = system.policy(sub.processor)
    others = [
        s.wcet if policy == SchedulingPolicy.SPNP else s.nonpreemptive_section
        for s in system.job_set.subjobs_on(sub.processor)
        if s.key != sub.key and s.priority > sub.priority
    ]
    return max(others, default=0.0)


class CompositionalAnalysis:
    """Theorem-4 pipeline honoring each processor's scheduling policy.

    The general engine behind the paper's ``SPNP/App`` and ``FCFS/App``
    methods; supports heterogeneous systems (different policies on
    different processors) out of the box.

    Parameters
    ----------
    horizon:
        Adaptive-horizon configuration.
    force_policy:
        When set, every processor is analyzed as if it ran this policy
        (used by the convenience subclasses to mirror the paper's uniform
        experiments).
    keep_curves:
        Retain per-hop envelopes in the result for inspection.
    options:
        Performance options (:class:`~repro.analysis.options.
        AnalysisOptions`).  With compaction enabled, every max-count
        envelope is compacted upward and every min-count envelope
        downward before entering the hop-bound formulas, which can only
        loosen (never undercut) the departure bounds; ``None`` keeps the
        exact envelopes.
    """

    def __init__(
        self,
        horizon: Optional[HorizonConfig] = None,
        force_policy: Optional[SchedulingPolicy] = None,
        keep_curves: bool = False,
        options: Optional[AnalysisOptions] = None,
    ) -> None:
        self.horizon = horizon or HorizonConfig()
        self.force_policy = force_policy
        self.keep_curves = keep_curves
        self.options = options

    @property
    def name(self) -> str:
        if self.force_policy is SchedulingPolicy.SPNP:
            return "SPNP/App"
        if self.force_policy is SchedulingPolicy.FCFS:
            return "FCFS/App"
        if self.force_policy is SchedulingPolicy.SPP:
            return "SPP/App"
        return "Mixed/App"

    #: Legacy alias for :attr:`name`.
    @property
    def method(self) -> str:
        return self.name

    @property
    def policy(self) -> Optional[SchedulingPolicy]:
        """Policy forced on every processor; None honors the system's own."""
        return self.force_policy

    def _policy(self, system: System, proc: Hashable) -> SchedulingPolicy:
        return self.force_policy or system.policy(proc)

    def _needs_priorities(self, system: System) -> bool:
        if self.force_policy is not None:
            return self.force_policy in (SchedulingPolicy.SPP, SchedulingPolicy.SPNP)
        return system.uses_priorities()

    def analyze(self, system: System) -> AnalysisResult:
        """Compute per-hop summed response-time bounds (Theorem 4)."""
        if self._needs_priorities(system):
            system.job_set.validate_priorities()
        if self.force_policy is None:
            system.validate()
        if system.max_utilization() > self.horizon.utilization_guard:
            return _overloaded_result(system, self.method)
        order = dependency_order(system, for_envelopes=True)

        def analyze_once(h: float, report: float) -> Tuple[AnalysisResult, bool]:
            return self._analyze_horizon(system, order, h, report)

        with trace_span(
            "analyze", method=self.method, n_jobs=len(list(system.jobs))
        ) as span:
            result = run_adaptive(analyze_once, system.job_set, self.horizon)
            span.set_attrs(
                rounds=result.rounds,
                horizon=result.horizon,
                schedulable=result.schedulable,
            )
            return result

    # ------------------------------------------------------------------

    def _analyze_horizon(
        self,
        system: System,
        order: List[SubJob],
        h: float,
        report: float,
    ) -> Tuple[AnalysisResult, bool]:
        job_set = system.job_set
        releases: Dict[str, np.ndarray] = {
            job.job_id: job.arrivals.release_times(h) for job in job_set
        }
        early: Dict[Key, np.ndarray] = {}
        late: Dict[Key, np.ndarray] = {}
        c_early: Dict[Key, Curve] = {}
        c_late: Dict[Key, Curve] = {}
        local_delay: Dict[Key, float] = {}
        hop_ok: Dict[Key, bool] = {}
        u_lo_cache: Dict[Hashable, Curve] = {}

        n_analyzed: Dict[str, int] = {
            job.job_id: int(np.count_nonzero(releases[job.job_id] <= report))
            for job in job_set
        }

        def envelopes_of(s: SubJob) -> Tuple[np.ndarray, np.ndarray]:
            if s.index == 0:
                rel = releases[s.job_id]
                jitter = job_set[s.job_id].release_jitter
                return rel, rel + jitter if jitter > 0 else rel
            return early[s.key], late[s.key]

        opts = self.options

        def curves_of(s: SubJob) -> Tuple[Curve, Curve]:
            if s.key not in c_early:
                e, l = envelopes_of(s)
                ce = visible_step(e, s.wcet, h)
                cl = visible_step(l, s.wcet, h)
                if opts is not None:
                    # max-count envelopes err upward, min-count downward:
                    # both directions only add interference pessimism.
                    # Min-count curves on FCFS processors feed the
                    # step-only fcfs_utilization kernel via total_late.
                    fcfs = (
                        self._policy(system, s.processor)
                        == SchedulingPolicy.FCFS
                    )
                    ce = opts.cap_upper(ce)
                    cl = opts.cap_lower(cl, require_step=fcfs)
                c_early[s.key] = ce
                c_late[s.key] = cl
            return c_early[s.key], c_late[s.key]

        for sub in order:
            key = sub.key
            job_id, idx = key
            policy = self._policy(system, sub.processor)
            with trace_span(
                "hop",
                job=job_id,
                hop=idx,
                processor=str(sub.processor),
                policy=policy.value,
            ) as span:
                env_early, env_late = envelopes_of(sub)
                ce, cl = curves_of(sub)
                peers = job_set.subjobs_on(sub.processor)

                if policy == SchedulingPolicy.FCFS:
                    if sub.processor not in u_lo_cache:
                        total_late = sum_curves(
                            [curves_of(s)[1] for s in peers]
                        )
                        if opts is not None:
                            # A smaller min-count total means less certified
                            # service, so U_lo only drops: sound direction.
                            total_late = opts.cap_lower(
                                total_late, require_step=True
                            )
                        u_lo_cache[sub.processor] = fcfs_utilization(
                            total_late, t_end=h
                        )
                    others = [curves_of(s)[0] for s in peers if s.key != key]
                    dep_ub = fcfs_departure_bound(
                        others, u_lo_cache[sub.processor], env_late, sub.wcet
                    )
                else:
                    higher = [
                        s
                        for s in peers
                        if s.key != key and s.priority < sub.priority
                    ]
                    lag = blocking_time(system, sub, policy)
                    dep_ub = priority_departure_bound(
                        [curves_of(s)[0] for s in higher],
                        [curves_of(s)[1] for s in higher],
                        cl,
                        env_late,
                        sub.wcet,
                        lag,
                        h,
                        options=opts,
                    )

                n = env_early.size
                m_report = min(n, n_analyzed[job_id])
                if n:
                    dep_ub = dep_ub.copy()
                    dep_ub[dep_ub > h] = math.inf
                    gaps = dep_ub[:m_report] - env_early[:m_report]
                    local_delay[key] = float(np.max(gaps)) if gaps.size else 0.0
                    hop_ok[key] = bool(np.all(np.isfinite(dep_ub[:m_report])))
                    arr_next = earliest_departures(ce, env_early, sub.wcet, h)
                else:
                    arr_next = np.empty(0)
                    local_delay[key] = 0.0
                    hop_ok[key] = True
                if idx + 1 < job_set[job_id].n_subjobs:
                    early[(job_id, idx + 1)] = arr_next
                    late[(job_id, idx + 1)] = dep_ub
                span.set_attrs(
                    n_instances=int(n),
                    analyzed_instances=int(m_report),
                    local_delay=local_delay[key],
                    bounded=hop_ok[key],
                )

        result = AnalysisResult(
            method=self.method, horizon=h, drained=False, converged=False
        )
        all_ok = True
        for job in job_set:
            keys = [s.key for s in job.subjobs]
            ok = all(hop_ok[k] for k in keys)
            wcrt = float(sum(local_delay[k] for k in keys)) if ok else math.inf
            if n_analyzed[job.job_id] == 0:
                wcrt, ok = 0.0, True
            all_ok = all_ok and ok
            res = EndToEndResult(
                job_id=job.job_id,
                deadline=job.deadline,
                wcrt=wcrt,
                n_instances=n_analyzed[job.job_id],
            )
            if self.keep_curves:
                for sub in job.subjobs:
                    e, l = (
                        (releases[job.job_id], releases[job.job_id])
                        if sub.index == 0
                        else (early[sub.key], late[sub.key])
                    )
                    res.hops.append(
                        SubjobResult(
                            key=sub.key,
                            processor=sub.processor,
                            wcet=sub.wcet,
                            priority=sub.priority,
                            local_delay=local_delay[sub.key],
                            arrival_times=e,
                            completion_times=l,
                            service_lower=c_late.get(sub.key),
                            service_upper=c_early.get(sub.key),
                        )
                    )
            result.jobs[job.job_id] = res
        return result, all_ok


class SpnpApproxAnalysis(CompositionalAnalysis):
    """The paper's ``SPNP/App`` method (Section 4.2.2, hardened)."""

    def __init__(self, horizon: Optional[HorizonConfig] = None, **kw) -> None:
        super().__init__(horizon, force_policy=SchedulingPolicy.SPNP, **kw)


class FcfsApproxAnalysis(CompositionalAnalysis):
    """The paper's ``FCFS/App`` method (Section 4.2.3, hardened)."""

    def __init__(self, horizon: Optional[HorizonConfig] = None, **kw) -> None:
        super().__init__(horizon, force_policy=SchedulingPolicy.FCFS, **kw)


class SppApproxAnalysis(CompositionalAnalysis):
    """Per-hop (Theorem 4) bounds for preemptive static priority.

    Not one of the paper's four headline methods, but the natural
    preemptive member of the approximate family (zero blocking); used by
    the ablation benchmark comparing Theorem 1's exact telescoping against
    Theorem 4's per-hop summation.
    """

    def __init__(self, horizon: Optional[HorizonConfig] = None, **kw) -> None:
        super().__init__(horizon, force_policy=SchedulingPolicy.SPP, **kw)
