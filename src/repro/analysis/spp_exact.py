"""Exact end-to-end response-time analysis for SPP systems.

Implements Section 4.1 of the paper:

* **Theorem 3** gives the exact service function of every subjob under
  preemptive static-priority scheduling,
  ``S(t) = min_{0<=s<=t}{A(t) - A(s) + c(s)}`` with availability
  ``A(t) = t - sum_{higher priority on same processor} S_{h,i}(t)``;
* **Theorem 2** turns service into departures,
  ``f_dep(t) = floor(S(t) / tau)`` -- equivalently the ``m``-th instance
  completes at ``S^{-1}(m * tau)``;
* departures feed the next hop as exact arrivals (Direct
  Synchronization), and **Theorem 1** reads off the worst-case end-to-end
  response time ``d_k = max_m ( f_dep,last^{-1}(m) - f_arr,first^{-1}(m) )``.

The computation walks subjobs in dependency order (chain edges plus
higher-priority-first edges per processor); the job-shop systems of the
paper's evaluation are always acyclic.  Arrivals beyond the horizon cannot
influence service within it, so all completions that land inside the
horizon are exact; the adaptive driver in :mod:`repro.analysis.horizon`
grows the horizon until every analyzed instance is covered.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..curves import Curve, identity_minus, service_transform, sum_curves
from ..model.system import SchedulingPolicy, System
from ..obs.trace import trace_span
from .base import (
    AnalysisError,
    AnalysisResult,
    EndToEndResult,
    SubjobResult,
    dependency_order,
)
from .horizon import UTILIZATION_GUARD, HorizonConfig, run_adaptive
from .options import AnalysisOptions

__all__ = ["SppExactAnalysis"]

Key = Tuple[str, int]


def _overloaded_result(system: System, method: str) -> AnalysisResult:
    result = AnalysisResult(method=method, horizon=0.0, drained=False, converged=True)
    for job in system.jobs:
        result.jobs[job.job_id] = EndToEndResult(
            job_id=job.job_id,
            deadline=job.deadline,
            wcrt=math.inf,
            n_instances=0,
        )
    return result


class SppExactAnalysis:
    """The paper's SPP/Exact method (Section 4.1).

    Parameters
    ----------
    horizon:
        Adaptive-horizon configuration; defaults are suitable for the
        paper's workloads.
    keep_curves:
        Retain per-subjob service curves and instance times in the result
        for inspection (costs memory on large systems).
    """

    name = "SPP/Exact"
    policy = SchedulingPolicy.SPP

    def __init__(
        self,
        horizon: Optional[HorizonConfig] = None,
        keep_curves: bool = False,
        options: Optional[AnalysisOptions] = None,
    ) -> None:
        self.horizon = horizon or HorizonConfig()
        self.keep_curves = keep_curves
        # Curve compaction is deliberately NOT applied here: the exact
        # cascade feeds each hop's completion times forward as exact
        # arrivals, so a perturbed intermediate is no longer certified in
        # either direction.  The option is accepted (so the registry can
        # thread one set of options through every method) but ignored; a
        # diagnostic records the fact when compaction was requested.
        self.options = options

    def analyze(self, system: System) -> AnalysisResult:
        """Compute exact worst-case end-to-end response times."""
        if not system.is_uniform(SchedulingPolicy.SPP):
            raise AnalysisError(
                "SppExactAnalysis requires every processor to use SPP; use "
                "Mixed/App for mixed or non-preemptive systems"
            )
        system.validate()
        masked = [
            s.key
            for s in system.job_set.all_subjobs()
            if s.nonpreemptive_section > 0
        ]
        if masked:
            raise AnalysisError(
                f"the exact analysis models fully preemptive SPP; subjobs "
                f"{masked} carry non-preemptable sections -- use SPP/App, "
                f"which accounts for them as blocking"
            )
        jittered = [j.job_id for j in system.jobs if j.release_jitter > 0]
        if jittered:
            raise AnalysisError(
                f"the exact analysis needs concrete release times; jobs "
                f"{jittered} carry release jitter -- use the approximate "
                f"pipeline (SPP/App) or the holistic baseline instead"
            )
        if system.max_utilization() > UTILIZATION_GUARD:
            return _overloaded_result(system, self.name)
        order = dependency_order(system)  # raises on cycles

        def analyze_once(h: float, report: float) -> Tuple[AnalysisResult, bool]:
            return self._analyze_horizon(system, order, h, report)

        with trace_span(
            "analyze", method=self.name, n_jobs=len(list(system.jobs))
        ) as span:
            result = run_adaptive(analyze_once, system.job_set, self.horizon)
            if self.options is not None and self.options.compaction_enabled:
                result.diagnostics.append(
                    {
                        "kind": "compaction_ignored",
                        "source": "SppExactAnalysis",
                        "detail": (
                            "curve compaction is not certified for exact "
                            "results; the analysis ran uncompacted"
                        ),
                    }
                )
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
        order,
        h: float,
        report: float,
    ) -> Tuple[AnalysisResult, bool]:
        job_set = system.job_set
        releases: Dict[str, np.ndarray] = {
            job.job_id: job.arrivals.release_times(h) for job in job_set
        }
        # Per-subjob exact arrival times and completion times.
        arrival_times: Dict[Key, np.ndarray] = {}
        completion_times: Dict[Key, np.ndarray] = {}
        # Per-processor accumulated service curves by priority.
        service: Dict[Key, Curve] = {}

        for sub in order:
            key = sub.key
            job_id, idx = key
            with trace_span(
                "hop", job=job_id, hop=idx, processor=str(sub.processor)
            ) as span:
                if idx == 0:
                    arr = releases[job_id]
                else:
                    arr = completion_times[(job_id, idx - 1)]
                arrival_times[key] = arr
                visible = arr[arr < h] if arr.size else arr
                c = Curve.step_from_times(visible, sub.wcet)
                higher = [
                    service[s.key]
                    for s in job_set.subjobs_on(sub.processor)
                    if s.key != key
                    and s.priority < sub.priority
                    and s.key in service
                ]
                avail = (
                    identity_minus(sum_curves(higher))
                    if higher
                    else Curve.identity()
                )
                s_curve = service_transform(avail, c, lag=0.0, t_end=h)
                service[key] = s_curve
                n = arr.size
                if n:
                    levels = sub.wcet * np.arange(1, n + 1)
                    comp = np.atleast_1d(s_curve.first_crossing(levels))
                    # Instances not visible within the horizon cannot
                    # complete within it; mark them explicitly.
                    comp[arr >= h] = math.inf
                    # A completion "found" beyond the horizon extrapolates
                    # the service curve into unknown territory; not exact.
                    comp[comp > h] = math.inf
                else:
                    comp = np.empty(0)
                completion_times[key] = comp
                span.set_attrs(n_instances=int(n), n_interferers=len(higher))

        result = AnalysisResult(
            method=self.name, horizon=h, drained=False, converged=False
        )
        all_ok = True
        for job in job_set:
            with trace_span("job", job=job.job_id):
                result.jobs[job.job_id], ok = self._job_result(
                    job, releases, completion_times, arrival_times, service, report
                )
            all_ok = all_ok and ok
        return result, all_ok

    def _job_result(
        self, job, releases, completion_times, arrival_times, service, report
    ) -> Tuple[EndToEndResult, bool]:
        """Fold one job's per-hop completions into its end-to-end bound."""
        rel = releases[job.job_id]
        last_key = (job.job_id, job.n_subjobs - 1)
        comp = completion_times[last_key]
        analyzed = rel <= report
        n_analyzed = int(np.count_nonzero(analyzed))
        if n_analyzed == 0:
            # Nothing released within the report window: vacuous bound.
            return (
                EndToEndResult(
                    job_id=job.job_id,
                    deadline=job.deadline,
                    wcrt=0.0,
                    n_instances=0,
                ),
                True,
            )
        comp_a = comp[:n_analyzed] if comp.size >= n_analyzed else comp
        responses = comp_a - rel[: comp_a.size]
        ok = bool(np.all(np.isfinite(comp_a))) and comp_a.size == n_analyzed
        wcrt = float(np.max(responses)) if responses.size else math.inf
        if not ok:
            wcrt = math.inf
        res = EndToEndResult(
            job_id=job.job_id,
            deadline=job.deadline,
            wcrt=wcrt,
            n_instances=n_analyzed,
            per_instance=responses if ok else None,
        )
        if self.keep_curves:
            for sub in job.subjobs:
                res.hops.append(
                    SubjobResult(
                        key=sub.key,
                        processor=sub.processor,
                        wcet=sub.wcet,
                        priority=sub.priority,
                        arrival_times=arrival_times[sub.key],
                        completion_times=completion_times[sub.key],
                        service_lower=service[sub.key],
                        service_upper=service[sub.key],
                    )
                )
        return res, ok
