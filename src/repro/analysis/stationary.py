"""Stationary (horizon-free) analysis via interval-domain envelopes.

The paper's machinery analyzes concrete arrival functions over a finite
horizon.  This module adds the complementary *stationary* analysis in the
tradition the paper builds on (Cruz's calculus, refs [20, 21]; the
authors' ATM work [17]): each job's arrivals are abstracted into an
interval-domain envelope (see :mod:`repro.curves.envelope`), each hop
grants a fixed-priority leftover service curve, the hop delay is the
classical horizontal deviation, and the output envelope
``alpha(delta + d)`` feeds the next hop.  The result is a bound valid for
**all time**, with no horizon, drain check, or convergence loop -- at the
price of extra conservatism (envelopes forget arrival phasing entirely).

Properties (enforced by tests):

* bounds dominate the horizon-based pipeline's on the same systems;
* bounds dominate simulation;
* stability is detected via long-run rates (utilization >= 1 => inf).

Supported processors: SPP and SPNP (leftover curves).  FCFS needs the
aggregate-FIFO service curve, for which we use the conservative
"serve everyone else first" leftover ``(delta - sum_others alpha)+`` --
sound, though blunter than the paper's Theorem 8/9 treatment.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..curves import Curve, sum_curves
from ..curves.envelope import (
    envelope_of,
    horizontal_deviation,
    leftover_service,
    shift_envelope,
)
from ..model.job import SubJob
from ..model.system import SchedulingPolicy, System
from ..obs.trace import trace_span
from .base import AnalysisResult, EndToEndResult, SubjobResult, dependency_order
from .hopbounds import blocking_time

__all__ = ["StationaryAnalysis"]

Key = Tuple[str, int]

#: Span of the trace prefix used to build envelopes for processes without
#: a closed-form envelope (e.g. the bursty Eq. 27 stream).
ENVELOPE_HORIZON = 200.0


class StationaryAnalysis:
    """Envelope-based per-hop bounds, valid without any horizon.

    Parameters
    ----------
    horizon:
        Accepted for :class:`~repro.analysis.base.Analyzer` uniformity and
        ignored -- the bounds are horizon-free.
    keep_curves:
        Retain the per-hop envelopes and leftover curves in the result.
    """

    name = "Stationary/NC"
    policy = None  #: honors each processor's own policy

    def __init__(self, horizon=None, keep_curves: bool = False, options=None) -> None:
        self.keep_curves = keep_curves
        # Accepted for registry uniformity; the stationary envelopes are
        # tiny closed-form curves, compacting them would gain nothing.
        self.options = options

    def analyze(self, system: System) -> AnalysisResult:
        with trace_span(
            "analyze", method=self.name, n_jobs=len(list(system.jobs))
        ) as span:
            result = self._analyze(system)
            span.set_attrs(schedulable=result.schedulable)
            return result

    def _analyze(self, system: System) -> AnalysisResult:
        system.validate()
        job_set = system.job_set
        order = dependency_order(system, for_envelopes=True)

        # Per-subjob workload envelopes (interval domain, in units of
        # execution time) and per-hop delays.
        envelopes: Dict[Key, Curve] = {}
        delays: Dict[Key, float] = {}
        leftovers: Dict[Key, Curve] = {}

        def get_alpha(s: SubJob) -> Optional[Curve]:
            """Input workload envelope of subjob ``s`` at its hop.

            Derivable as soon as ``s``'s predecessor hop has been
            processed -- which the envelope dependency order guarantees
            for every interferer queried below.  Returns None when an
            upstream hop is unstable (infinite delay).
            """
            if s.key in envelopes:
                return envelopes[s.key]
            if s.index == 0:
                job_s = job_set[s.job_id]
                alpha = envelope_of(
                    job_s.arrivals, height=s.wcet, horizon=ENVELOPE_HORIZON
                )
                if job_s.release_jitter > 0:
                    alpha = shift_envelope(alpha, job_s.release_jitter)
            else:
                prev = job_set[s.job_id].subjobs[s.index - 1]
                prev_alpha = get_alpha(prev)
                d_prev = delays[prev.key]
                if prev_alpha is None or math.isinf(d_prev):
                    envelopes[s.key] = None
                    return None
                alpha = shift_envelope(prev_alpha, d_prev).scale(s.wcet / prev.wcet)
            envelopes[s.key] = alpha
            return alpha

        for sub in order:
            key = sub.key
            alpha = get_alpha(sub)
            if alpha is None:
                delays[key] = math.inf
                continue

            policy = system.policy(sub.processor)
            peers = job_set.subjobs_on(sub.processor)
            interferer_alphas = []
            unstable = False
            if policy == SchedulingPolicy.FCFS:
                for s in peers:
                    if s.key == key:
                        continue
                    a = get_alpha(s)
                    if a is None:
                        unstable = True
                        break
                    interferer_alphas.append(a)
                if unstable:
                    delays[key] = math.inf
                    continue
                beta = leftover_service(sum_curves(interferer_alphas), blocking=0.0)
            else:
                for s in peers:
                    if s.key != key and s.priority < sub.priority:
                        a = get_alpha(s)
                        if a is None:
                            unstable = True
                            break
                        interferer_alphas.append(a)
                if unstable:
                    delays[key] = math.inf
                    continue
                b = blocking_time(system, sub, policy)
                beta = leftover_service(sum_curves(interferer_alphas), blocking=b)
            leftovers[key] = beta
            delays[key] = horizontal_deviation(alpha, beta)

        result = AnalysisResult(
            method=self.name, horizon=math.inf, drained=True, converged=True
        )
        for job in job_set:
            # Response times are measured from the *nominal* release; a
            # jittered instance may start its journey up to J late.
            total = job.release_jitter + sum(delays[s.key] for s in job.subjobs)
            res = EndToEndResult(
                job_id=job.job_id,
                deadline=job.deadline,
                wcrt=total,
                n_instances=0,
            )
            if self.keep_curves:
                for sub in job.subjobs:
                    res.hops.append(
                        SubjobResult(
                            key=sub.key,
                            processor=sub.processor,
                            wcet=sub.wcet,
                            priority=sub.priority,
                            local_delay=delays[sub.key],
                            service_lower=leftovers.get(sub.key),
                            service_upper=envelopes.get(sub.key),
                        )
                    )
            result.jobs[job.job_id] = res
        # A divergent hop leaves an infinite bound: not drained, as for
        # SPP/S&L, so the verdict and ``validate`` treat it as unbounded.
        result.drained = all(math.isfinite(r.wcrt) for r in result.jobs.values())
        return result
