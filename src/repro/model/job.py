"""Jobs, subjobs and job sets (paper Section 3.1).

A :class:`Job` ``T_k`` is a chain of :class:`SubJob`\\ s ``T_{k,1} ...
T_{k,n_k}`` executed sequentially on (possibly different) processors under
Direct Synchronization: the completion of an instance of ``T_{k,j}``
releases the corresponding instance of ``T_{k,j+1}`` immediately.  Each job
carries an :class:`~repro.model.arrivals.ArrivalProcess` describing the
release times of its first subjob, and an end-to-end deadline ``D_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .arrivals import ArrivalProcess

__all__ = ["SubJob", "Job", "JobSet"]


@dataclass
class SubJob:
    """One stage ``T_{k,j}`` of a job chain.

    Attributes
    ----------
    job_id:
        Identifier of the owning job ``T_k``.
    index:
        Zero-based position ``j`` within the chain.
    processor:
        Identifier of the processor ``P(k, j)`` executing this subjob.
    wcet:
        Execution time ``tau_{k,j}`` of every instance.
    priority:
        Static priority ``phi_{k,j}`` on the processor -- smaller is
        higher priority (paper convention).  ``None`` until a priority
        assignment policy has run; FCFS processors ignore it.
    nonpreemptive_section:
        Length of the preemption-masked region at the *start* of each
        instance's execution (e.g. a critical section entered
        immediately, or interrupt masking).  ``0`` = fully preemptive;
        ``wcet`` = the whole subjob is non-preemptable.  On SPP
        processors this generalizes the paper's Eq. 15 blocking: a
        higher-priority subjob can be blocked for up to the longest
        masked region of any lower-priority subjob on the processor --
        SPNP is exactly the special case ``nonpreemptive_section == wcet``
        for every subjob.  A first step toward the shared-resource
        analysis the paper's conclusion calls future work.
    """

    job_id: str
    index: int
    processor: Hashable
    wcet: float
    priority: Optional[int] = None
    nonpreemptive_section: float = 0.0

    def __post_init__(self) -> None:
        if self.wcet <= 0 or not math.isfinite(self.wcet):
            raise ValueError(
                f"subjob ({self.job_id},{self.index}) needs a positive finite "
                f"wcet, got {self.wcet}"
            )
        if self.index < 0:
            raise ValueError("subjob index must be non-negative")
        if not (0.0 <= self.nonpreemptive_section <= self.wcet + 1e-12):
            raise ValueError(
                f"subjob ({self.job_id},{self.index}) needs "
                f"0 <= nonpreemptive_section <= wcet, got "
                f"{self.nonpreemptive_section}"
            )

    @property
    def key(self) -> Tuple[str, int]:
        """The ``(job_id, index)`` pair identifying this subjob."""
        return (self.job_id, self.index)


@dataclass
class Job:
    """A job ``T_k``: an arrival process, a chain of subjobs, a deadline.

    ``release_jitter`` models bounded release uncertainty (Tindell et
    al., cited in the paper's Section 2): the ``m``-th instance is
    released anywhere in ``[t_m, t_m + release_jitter]`` where ``t_m``
    comes from the arrival process.  The approximate analyses account for
    it through their early/late envelopes; the exact analysis requires
    concrete release times and rejects jittered jobs.  Response times and
    deadlines are measured from the *nominal* time ``t_m``.

    The jitter must stay below the minimum inter-arrival time of the
    process, so instances keep their release order (the per-instance
    FIFO assumption behind Theorem 2 and the hop bounds).
    """

    job_id: str
    subjobs: List[SubJob]
    arrivals: ArrivalProcess
    deadline: float
    release_jitter: float = 0.0

    def __post_init__(self) -> None:
        if not self.subjobs:
            raise ValueError(f"job {self.job_id} must have at least one subjob")
        if self.deadline <= 0 or not math.isfinite(self.deadline):
            raise ValueError(f"job {self.job_id} needs a positive finite deadline")
        if self.release_jitter < 0 or not math.isfinite(self.release_jitter):
            raise ValueError(
                f"job {self.job_id} needs a finite non-negative release jitter"
            )
        for j, sub in enumerate(self.subjobs):
            if sub.job_id != self.job_id:
                raise ValueError(
                    f"subjob {sub.key} does not belong to job {self.job_id}"
                )
            if sub.index != j:
                raise ValueError(
                    f"subjob chain of {self.job_id} must be indexed 0..n-1 in "
                    f"order, found index {sub.index} at position {j}"
                )

    @classmethod
    def build(
        cls,
        job_id: str,
        route: Sequence[Tuple[Hashable, float]],
        arrivals: ArrivalProcess,
        deadline: float,
        release_jitter: float = 0.0,
    ) -> "Job":
        """Construct a job from ``[(processor, wcet), ...]`` route pairs."""
        subjobs = [
            SubJob(job_id=job_id, index=j, processor=proc, wcet=float(wcet))
            for j, (proc, wcet) in enumerate(route)
        ]
        return cls(
            job_id=job_id,
            subjobs=subjobs,
            arrivals=arrivals,
            deadline=deadline,
            release_jitter=release_jitter,
        )

    @property
    def n_subjobs(self) -> int:
        return len(self.subjobs)

    @property
    def total_wcet(self) -> float:
        """Sum of subjob execution times (best-case end-to-end time)."""
        return sum(s.wcet for s in self.subjobs)

    @property
    def processors(self) -> Tuple[Hashable, ...]:
        return tuple(s.processor for s in self.subjobs)

    def revisits_processor(self) -> bool:
        """True if the chain visits some processor more than once (the
        paper's "physical loop"; needs the fixed-point extension)."""
        procs = self.processors
        return len(set(procs)) < len(procs)

    def sub_deadlines(self) -> List[float]:
        """Proportional sub-deadlines ``D_{i,j}`` of Eq. 24."""
        total = self.total_wcet
        return [s.wcet / total * self.deadline for s in self.subjobs]


class JobSet:
    """An immutable-by-discipline collection of jobs with lookup helpers."""

    def __init__(self, jobs: Sequence[Job]) -> None:
        self._jobs: List[Job] = list(jobs)
        seen = set()
        for job in self._jobs:
            if job.job_id in seen:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)
        self._by_id: Dict[str, Job] = {j.job_id: j for j in self._jobs}

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def __getitem__(self, job_id: str) -> Job:
        return self._by_id[job_id]

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._by_id

    @property
    def jobs(self) -> Tuple[Job, ...]:
        return tuple(self._jobs)

    # -- structure queries --------------------------------------------------

    @property
    def processors(self) -> Tuple[Hashable, ...]:
        """All processors referenced by any subjob, in first-seen order."""
        seen: Dict[Hashable, None] = {}
        for job in self._jobs:
            for sub in job.subjobs:
                seen.setdefault(sub.processor, None)
        return tuple(seen)

    def subjobs_on(self, processor: Hashable) -> List[SubJob]:
        """All subjobs mapped to the given processor."""
        return [
            sub
            for job in self._jobs
            for sub in job.subjobs
            if sub.processor == processor
        ]

    def all_subjobs(self) -> List[SubJob]:
        return [sub for job in self._jobs for sub in job.subjobs]

    def subjob(self, job_id: str, index: int) -> SubJob:
        return self._by_id[job_id].subjobs[index]

    def utilization(self, processor: Hashable) -> float:
        """Long-run utilization ``sum tau * rate`` of the processor.

        Finite traces contribute zero rate (transient load only).
        """
        total = 0.0
        for job in self._jobs:
            rate = job.arrivals.rate
            for sub in job.subjobs:
                if sub.processor == processor:
                    total += sub.wcet * rate
        return total

    def max_utilization(self) -> float:
        """The highest long-run utilization over all processors."""
        return max((self.utilization(p) for p in self.processors), default=0.0)

    def priorities_assigned(self) -> bool:
        return all(s.priority is not None for s in self.all_subjobs())
