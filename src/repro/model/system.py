"""Distributed system: a job set plus per-processor scheduling policies.

The paper analyzes systems whose processors run preemptive static priority
(SPP), non-preemptive static priority (SPNP), or first-come-first-served
(FCFS) schedulers -- possibly mixed within one system (Section 6,
"heterogeneous systems").  :class:`System` couples a
:class:`~repro.model.job.JobSet` with a policy per processor.
"""

from __future__ import annotations

import enum
from typing import Dict, Hashable, Iterable, Mapping, Optional, Union

from .job import Job, JobSet, SubJob

__all__ = ["PriorityError", "SchedulingPolicy", "System"]


class SchedulingPolicy(enum.Enum):
    """Scheduler type of a processor."""

    SPP = "spp"  #: static priority, preemptive
    SPNP = "spnp"  #: static priority, non-preemptive
    FCFS = "fcfs"  #: first-come-first-served (non-preemptive)

    @classmethod
    def coerce(cls, value: Union["SchedulingPolicy", str]) -> "SchedulingPolicy":
        if isinstance(value, cls):
            return value
        return cls(value.lower())


class PriorityError(ValueError):
    """Priorities are missing or tied on a processor scheduled by priority."""


class System:
    """A job set together with the scheduling policy of each processor.

    Parameters
    ----------
    job_set:
        The jobs to run.  A plain sequence of :class:`Job` is accepted.
    policies:
        Either a single policy applied to every processor, or a mapping
        ``processor -> policy``.  Unmapped processors default to
        ``default_policy``.
    default_policy:
        Policy used for processors absent from ``policies``.
    """

    def __init__(
        self,
        job_set: Union[JobSet, Iterable[Job]],
        policies: Union[
            SchedulingPolicy, str, Mapping[Hashable, Union[SchedulingPolicy, str]], None
        ] = None,
        default_policy: Union[SchedulingPolicy, str] = SchedulingPolicy.SPP,
    ) -> None:
        self.job_set = job_set if isinstance(job_set, JobSet) else JobSet(list(job_set))
        self._default = SchedulingPolicy.coerce(default_policy)
        self._policies: Dict[Hashable, SchedulingPolicy] = {}
        if policies is None:
            pass
        elif isinstance(policies, (SchedulingPolicy, str)):
            uniform = SchedulingPolicy.coerce(policies)
            self._default = uniform
        else:
            for proc, pol in policies.items():
                self._policies[proc] = SchedulingPolicy.coerce(pol)

    # -- policy lookup ------------------------------------------------------

    def policy(self, processor: Hashable) -> SchedulingPolicy:
        """Scheduling policy of the given processor."""
        return self._policies.get(processor, self._default)

    def policy_of(self, subjob: SubJob) -> SchedulingPolicy:
        return self.policy(subjob.processor)

    @property
    def processors(self):
        return self.job_set.processors

    @property
    def jobs(self):
        return self.job_set.jobs

    def is_uniform(self, policy: SchedulingPolicy) -> bool:
        """True if every used processor runs the given policy."""
        return all(self.policy(p) == policy for p in self.processors)

    def uses_priorities(self) -> bool:
        """True if any processor needs priorities (SPP or SPNP)."""
        return any(
            self.policy(p) in (SchedulingPolicy.SPP, SchedulingPolicy.SPNP)
            for p in self.processors
        )

    # -- validation ---------------------------------------------------------

    def validate(self, policy: Optional[SchedulingPolicy] = None) -> None:
        """Check model consistency before analysis or simulation.

        Priorities must be assigned on every SPP/SPNP processor and be
        unique per processor (ties would make the SPP service functions
        ill-defined; assignment policies in :mod:`repro.model.priorities`
        always break ties deterministically).  ``policy`` checks every
        processor as if it ran that policy, as an analysis that forces one
        policy on the whole system does; by default each processor's own
        policy applies.  Raises :class:`PriorityError`.
        """
        for proc in self.processors:
            pol = policy or self.policy(proc)
            if pol == SchedulingPolicy.FCFS:
                continue
            subs = self.job_set.subjobs_on(proc)
            prios = [s.priority for s in subs]
            if any(p is None for p in prios):
                raise PriorityError(
                    f"processor {proc!r} ({pol.value}) has subjobs without "
                    f"priorities; run a priority assignment first"
                )
            if len(set(prios)) != len(prios):
                raise PriorityError(
                    f"processor {proc!r} ({pol.value}) has duplicate priorities "
                    f"{sorted(prios)}"
                )

    def utilization(self, processor: Hashable) -> float:
        return self.job_set.utilization(processor)

    def max_utilization(self) -> float:
        return self.job_set.max_utilization()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pols = {p: self.policy(p).value for p in self.processors}
        return f"System({len(self.job_set)} jobs, policies={pols})"
