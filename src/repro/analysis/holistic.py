"""SPP/S&L baseline: holistic response-time analysis for periodic jobs.

The paper compares its exact SPP analysis against the iterative bound of
Sun & Liu for distributed systems under the Direct Synchronization
protocol (refs [1, 2] of the paper), which itself builds on the holistic
schedulability analysis of Tindell & Clark: every subjob is modeled as a
periodic task with *release jitter* inherited from the response-time
window of its predecessor hop, and per-processor busy-period analysis with
jitter (Audsley et al. / Tindell) bounds each hop's response.

Recursion (all quantities measured from the job's *nominal* periodic
release):

* jitter of the first hop is zero; jitter of hop ``j+1`` is
  ``J_{j+1} = R_j`` -- the predecessor's worst-case completion offset from
  the nominal periodic release (Tindell & Clark's rule; it conservatively
  lets the successor be released anywhere in ``[nominal, nominal + R_j]``,
  one of the sources of pessimism the paper's Figure 3 exposes);
* the hop response ``R_j`` is the classic jitter-aware busy-period bound
  of :func:`repro.analysis.busy_period.response_time`: for
  ``q = 0, 1, ...`` outstanding instances,
  ``w_q = (q+1) tau_j + sum_{hp} ceil((w_q + J_hp) / rho_hp) tau_hp``
  iterated to a fixed point, and
  ``R_j = max_q ( w_q + J_j - q rho )``;
* the whole system is swept until every ``R`` stabilizes (the map is
  monotone, so the iteration converges or provably diverges past the
  deadline-based cutoff).

The end-to-end bound is ``R_{n_k}`` of the last hop.  This method requires
every job to be strictly periodic and every processor to use SPP -- the
reason the paper's Figure 4 (aperiodic arrivals) omits it.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from ..model.system import SchedulingPolicy, System
from ..obs.trace import trace_span
from .base import AnalysisError, AnalysisResult, EndToEndResult, SubjobResult
from .busy_period import PeriodicTask, response_time
from .horizon import UTILIZATION_GUARD
from .spp_exact import _overloaded_result

__all__ = ["HolisticSPPAnalysis"]

Key = Tuple[str, int]

#: Maximum number of global jitter-propagation sweeps.
MAX_SWEEPS = 200
#: A hop response exceeding ``DIVERGENCE_FACTOR`` times the largest
#: deadline is treated as divergent and reported as an infinite bound.
DIVERGENCE_FACTOR = 50.0


class HolisticSPPAnalysis:
    """The SPP/S&L comparator (periodic jobs, SPP processors only).

    Parameters
    ----------
    horizon:
        Accepted for :class:`~repro.analysis.base.Analyzer` uniformity and
        ignored -- the holistic iteration is horizon-free.
    """

    name = "SPP/S&L"
    policy = SchedulingPolicy.SPP

    def __init__(self, horizon=None, options=None) -> None:
        # Accepted for registry uniformity; the holistic iteration works
        # on scalar jitter/response values, there are no curves to compact.
        self.options = options

    def analyze(self, system: System) -> AnalysisResult:
        with trace_span(
            "analyze", method=self.name, n_jobs=len(list(system.jobs))
        ) as span:
            result = self._analyze(system)
            span.set_attrs(schedulable=result.schedulable)
            return result

    def _analyze(self, system: System) -> AnalysisResult:
        if not system.is_uniform(SchedulingPolicy.SPP):
            raise AnalysisError("HolisticSPPAnalysis requires SPP on every processor")
        system.validate()
        job_set = system.job_set
        for job in job_set:
            if not job.arrivals.is_periodic():
                raise AnalysisError(
                    f"HolisticSPPAnalysis requires periodic jobs; job "
                    f"{job.job_id} is not (the paper's Figure 4 omits SPP/S&L "
                    f"for this reason)"
                )
        if system.max_utilization() > UTILIZATION_GUARD:
            return _overloaded_result(system, self.name)

        period: Dict[str, float] = {
            job.job_id: 1.0 / job.arrivals.rate for job in job_set
        }
        cutoff = DIVERGENCE_FACTOR * max(job.deadline for job in job_set)

        # State: per-subjob jitter and response, all from nominal release.
        jitter: Dict[Key, float] = {s.key: 0.0 for s in job_set.all_subjobs()}
        for job in job_set:
            jitter[job.subjobs[0].key] = job.release_jitter
        response: Dict[Key, float] = {s.key: s.wcet for s in job_set.all_subjobs()}

        diverged = False
        for _sweep in range(MAX_SWEEPS):
            changed = False
            for job in job_set:
                for sub in job.subjobs:
                    r = self._hop_response(system, sub, jitter, period, cutoff)
                    if math.isinf(r):
                        diverged = True
                    if abs(r - response[sub.key]) > 1e-9:
                        response[sub.key] = r
                        changed = True
                    nxt = (job.job_id, sub.index + 1)
                    if nxt in jitter:
                        new_j = r if math.isfinite(r) else math.inf
                        if (
                            math.isinf(new_j) != math.isinf(jitter[nxt])
                            or (
                                math.isfinite(new_j)
                                and abs(new_j - jitter[nxt]) > 1e-9
                            )
                        ):
                            jitter[nxt] = new_j
                            changed = True
            if not changed:
                break
        else:
            diverged = True

        result = AnalysisResult(
            method=self.name,
            horizon=math.inf,
            drained=not diverged,
            converged=not diverged,
        )
        for job in job_set:
            last = job.subjobs[-1].key
            wcrt = response[last]
            res = EndToEndResult(
                job_id=job.job_id,
                deadline=job.deadline,
                wcrt=wcrt,
                n_instances=0,
                hops=[
                    SubjobResult(
                        key=s.key,
                        processor=s.processor,
                        wcet=s.wcet,
                        priority=s.priority,
                        local_delay=response[s.key]
                        - (jitter[s.key] if math.isfinite(jitter[s.key]) else 0.0),
                    )
                    for s in job.subjobs
                ],
            )
            result.jobs[job.job_id] = res
        result.drained = result.drained and all(
            math.isfinite(r.wcrt) for r in result.jobs.values()
        )
        return result

    # ------------------------------------------------------------------

    def _hop_response(
        self,
        system: System,
        sub,
        jitter: Dict[Key, float],
        period: Dict[str, float],
        cutoff: float,
    ) -> float:
        """Jitter-aware busy-period response bound for one subjob."""
        higher = [
            s
            for s in system.job_set.subjobs_on(sub.processor)
            if s.key != sub.key and s.priority < sub.priority
        ]
        if any(math.isinf(jitter[s.key]) for s in [sub, *higher]):
            return math.inf
        tasks = [
            PeriodicTask(
                name=f"{s.job_id}[{s.index}]",
                wcet=s.wcet,
                period=period[s.job_id],
                priority=s.priority,
                jitter=jitter[s.key],
            )
            for s in [sub, *higher]
        ]
        return response_time(tasks, tasks[0], cutoff=cutoff)
