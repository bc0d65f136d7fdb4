"""Classic single-processor busy-period response-time analysis.

The fixed-point recurrences of Joseph & Pandya and Audsley et al. (the
paper's Section 2 lineage), exposed as standalone utilities:

* :func:`response_time` -- worst-case response time of one task under
  preemptive fixed priorities with release jitter and blocking, using the
  arbitrary-deadline busy-period formulation (multiple outstanding
  instances, Lehoczky);
* :func:`busy_period_length` -- the level-`i` busy period;
* :func:`utilization_bound_test` -- the Liu & Layland ``n(2^{1/n}-1)``
  sufficient test (the paper's reference [23], "the first result on
  schedulability analysis").

These operate on plain numbers (no curves), making them convenient for
quick single-node what-if checks.
:class:`repro.analysis.holistic.HolisticSPPAnalysis` (SPP/S&L) computes
every hop's response with :func:`response_time`, jitters propagated from
the predecessor hops, so the distributed baseline and a single-node
exactness check run one implementation of the recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "PeriodicTask",
    "busy_period_length",
    "response_time",
    "utilization_bound_test",
    "liu_layland_bound",
]


@dataclass(frozen=True)
class PeriodicTask:
    """A periodic task for single-node busy-period analysis.

    ``priority``: smaller = higher (paper convention).  ``jitter``:
    release jitter relative to the nominal periodic arrival.
    """

    name: str
    wcet: float
    period: float
    priority: int
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.wcet <= 0 or self.period <= 0:
            raise ValueError(f"task {self.name}: wcet and period must be positive")
        if self.jitter < 0:
            raise ValueError(f"task {self.name}: jitter must be non-negative")

    @property
    def utilization(self) -> float:
        return self.wcet / self.period


def _interference(higher: Sequence[PeriodicTask], w: float) -> float:
    total = 0.0
    for t in higher:
        total += math.ceil((w + t.jitter) / t.period) * t.wcet
    return total


def _busy_period(
    higher: Sequence[PeriodicTask],
    task: PeriodicTask,
    blocking: float,
    cutoff: float,
) -> float:
    length = task.wcet + blocking
    while True:
        nxt = (
            blocking
            + math.ceil((length + task.jitter) / task.period) * task.wcet
            + _interference(higher, length)
        )
        if nxt > cutoff:
            return math.inf
        if abs(nxt - length) <= 1e-9:
            return nxt
        length = nxt


def busy_period_length(
    tasks: Sequence[PeriodicTask],
    task: PeriodicTask,
    blocking: float = 0.0,
    cutoff: float = 1e7,
) -> float:
    """Length of the level-``task.priority`` busy period (with jitter).

    Solves ``L = B + ceil((L + J_i)/T_i) C_i + sum_hp ceil((L + J_h)/T_h)
    C_h`` by fixed-point iteration; returns ``inf`` past the cutoff
    (overload at this priority level).
    """
    higher = [t for t in tasks if t.priority < task.priority]
    return _busy_period(higher, task, blocking, cutoff)


def response_time(
    tasks: Sequence[PeriodicTask],
    task: PeriodicTask,
    blocking: float = 0.0,
    cutoff: float = 1e7,
) -> float:
    """Worst-case response time of ``task`` (measured from its nominal
    arrival), arbitrary-deadline formulation.

    For each instance index ``q`` within the busy period solve
    ``w_q = B + (q+1) C + sum_hp ceil((w_q + J_h)/T_h) C_h`` and take
    ``max_q ( w_q + J - q T )``.  Returns ``inf`` on overload.  ``task``
    need not be one of ``tasks``.
    """
    # Filtered once; every sum below adds them in ``tasks`` order.
    higher = [t for t in tasks if t.priority < task.priority]
    busy = _busy_period(higher, task, blocking, cutoff)
    if math.isinf(busy):
        return math.inf
    q_max = int(math.ceil((busy + task.jitter) / task.period))
    best = 0.0
    for q in range(max(q_max, 1)):
        w = blocking + (q + 1) * task.wcet
        while True:
            nxt = blocking + (q + 1) * task.wcet + _interference(higher, w)
            if nxt > cutoff:
                return math.inf
            if abs(nxt - w) <= 1e-9:
                break
            w = nxt
        best = max(best, w + task.jitter - q * task.period)
    return best


def liu_layland_bound(n: int) -> float:
    """The Liu & Layland utilization bound ``n (2^{1/n} - 1)``."""
    if n <= 0:
        raise ValueError("need at least one task")
    return n * (2.0 ** (1.0 / n) - 1.0)


def utilization_bound_test(tasks: Sequence[PeriodicTask]) -> Optional[bool]:
    """The classical sufficient rate-monotonic test (paper ref. [23]).

    Returns ``True`` if total utilization is within the Liu & Layland
    bound (schedulable under RM), ``False`` if utilization exceeds 1
    (definitely unschedulable), and ``None`` when the test is
    inconclusive (use :func:`response_time`).
    """
    u = sum(t.utilization for t in tasks)
    if u > 1.0 + 1e-12:
        return False
    if u <= liu_layland_bound(len(tasks)) + 1e-12:
        return True
    return None
