"""Sound per-hop departure bounds for the Theorem-4 pipeline.

The paper's Section 4.2 pipeline propagates, per subjob and hop, an upper
bound on the arrival function (Lemma 2) and a lower bound on the departure
function (Lemma 1), and sums per-hop delays (Theorem 4, Eq. 12).  Taken
literally -- service bounds computed *at* the earliest-arrival envelope --
the hop bounds can under-approximate: a realization in which an interferer
arrives *later* (but still before the analyzed instance) can produce a
strictly larger hop delay than the envelope-aligned one.  Our validation
suite constructs concrete counterexamples against the simulator (see
``tests/analysis/test_validation.py``), so this module computes the hop
departure bounds with classical *busy-window* arguments that are sound for
**every** arrival realization consistent with the propagated envelopes:

* each subjob carries per-instance **early** times (no instance ``m`` can
  arrive before ``early_m``; makes the *max-count* workload curve
  ``c_early``) and **late** times (instance ``m`` has arrived by
  ``late_m``; makes the *min-count* curve ``c_late``);
* **FCFS** (Theorems 7-9 strengthened): ours completes once the processor
  has served all work that can precede it.  With ``U_lo`` the utilization
  function (Theorem 7) of the min-count total -- a lower bound on true
  service -- and ``P_m = sum_i c_early_i(late_m) + m tau`` an upper bound
  on preceding work, ``dep_m <= U_lo^{-1}(P_m)``;
* **static priority** (Theorems 5/6 strengthened): for the level busy
  window ``[s*, C)`` around completion ``C``,
  ``C - s* <= b + (m - f_own(s*-)) tau + sum_hp (c_hp(C) - c_hp(s*-))``,
  which over all feasible realizations yields
  ``V(C) <= Wmax(late_m) + b + m tau`` with
  ``V(t) = t - sum_hp c_early_hp(t)`` (suffix-min closed) and
  ``Wmax(a) = max_{s<=a} ( s - sum_hp c_late_hp(s-) - c_late_own(s-) )``;
  hence ``dep_m <= sup{ t : V(t) <= Wmax(late_m) + b + m tau }``.

Instance-level floors (arrival + one execution; consecutive departures
one execution apart) are applied on top.  Early envelopes for the next hop
come from the provably-sound full-availability transform
``S = kernel(identity, c_early)`` (a subjob can never be served faster
than a processor entirely dedicated to it).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..curves import Curve, identity_minus, sum_curves
from ..model.job import SubJob
from ..model.system import SchedulingPolicy, System
from .options import AnalysisOptions

__all__ = [
    "visible_step",
    "earliest_departures",
    "blocking_time",
    "apply_departure_floors",
    "priority_departure_bound",
    "fcfs_departure_bound",
]


def visible_step(times: np.ndarray, height: float, horizon: float) -> Curve:
    """Workload step curve from per-instance times, clipped to the horizon."""
    if times.size == 0:
        return Curve.zero()
    vis = times[np.isfinite(times) & (times < horizon)]
    return Curve.step_from_times(vis, height)


def apply_departure_floors(
    times: np.ndarray, arrivals: np.ndarray, wcet: float
) -> np.ndarray:
    """Tighten per-instance departure-time bounds with scheduling physics.

    Instance ``m`` cannot depart before its arrival plus one execution
    time, and consecutive departures of one subjob are at least one
    execution time apart (instances are served FIFO within the subjob and
    each consumes ``wcet`` of processor time).  Valid for every policy and
    every realization, so the maximum only tightens lower bounds and stays
    valid for upper bounds.
    """
    n = times.size
    if n == 0:
        return times
    floored = np.maximum(times, arrivals[:n] + wcet)
    # dep[m] >= dep[i] + (m - i) * wcet  for all i <= m.
    idx = wcet * np.arange(n)
    shifted = floored - idx
    np.maximum.accumulate(shifted, out=shifted)
    return shifted + idx


def earliest_departures(early: np.ndarray, wcet: float) -> np.ndarray:
    """Lemma-2 next-hop *early* envelope, provably sound.

    No schedule can serve a subjob faster than a processor dedicated to
    it.  On a dedicated processor completions follow the recursion
    ``dep_m = max(early_m, dep_{m-1}) + wcet`` -- exactly the departure
    floors applied to ``early_m + wcet`` -- which equals the crossings of
    the full-availability service transform ``kernel(identity, c_early)``
    (Theorem 3 with ``A(t) = t``) in closed form.  The result depends only
    on the subjob's own arrivals, never on its interferers.
    """
    if early.size == 0:
        return early
    return apply_departure_floors(early + wcet, early, wcet)


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


def priority_departure_bound(
    early_hp: Sequence[Curve],
    late_hp: Sequence[Curve],
    late_own: Curve,
    late_arrivals: np.ndarray,
    wcet: float,
    blocking: float,
    options: Optional[AnalysisOptions] = None,
) -> np.ndarray:
    """Busy-window departure upper bounds under SPP/SPNP.

    Parameters
    ----------
    early_hp / late_hp:
        Max-count / min-count workload curves of same-processor
        higher-priority subjobs.
    late_own:
        Min-count workload curve of the analyzed subjob itself.
    late_arrivals:
        Per-instance latest arrival times of the analyzed subjob.
    blocking:
        ``b_{k,j}`` of Eq. 15 for SPNP; zero for preemptive SPP.
    options:
        When compaction is enabled, the summed interference totals are
        compacted before the pseudo-inverses -- the max-count total
        upward and the min-count total downward, which can only *raise*
        the departure bound (``V`` shrinks, ``Wmax`` grows), so the
        result stays a sound upper bound.
    """
    n = late_arrivals.size
    if n == 0:
        return late_arrivals
    total_early = sum_curves(list(early_hp))
    total_late = sum_curves(list(late_hp) + [late_own])
    if options is not None:
        total_early = options.cap_upper(total_early)
        total_late = options.cap_lower(total_late)
    v_curve = identity_minus(total_early, mode="lower")
    w_curve = identity_minus(total_late, mode="upper")
    finite = np.isfinite(late_arrivals)
    w_at = np.full(n, math.inf)
    if np.any(finite):
        w_at[finite] = np.atleast_1d(w_curve.value_left(late_arrivals[finite]))
    levels = w_at + blocking + wcet * np.arange(1, n + 1)
    out = np.full(n, math.inf)
    ok = np.isfinite(levels)
    if np.any(ok):
        out[ok] = np.atleast_1d(v_curve.last_below(levels[ok]))
    return apply_departure_floors(out, late_arrivals, wcet)


def fcfs_departure_bound(
    others_early: Sequence[Curve],
    u_lo: Curve,
    late_arrivals: np.ndarray,
    wcet: float,
) -> np.ndarray:
    """FCFS departure upper bounds (Theorems 7-9, hardened).

    ``u_lo`` must be the utilization function of the processor's
    *min-count* total workload; ``others_early`` the max-count curves of
    all other subjobs on the processor.
    """
    n = late_arrivals.size
    if n == 0:
        return late_arrivals
    finite = np.isfinite(late_arrivals)
    preceding = np.full(n, math.inf)
    if np.any(finite):
        acc = np.zeros(int(np.count_nonzero(finite)))
        for c in others_early:
            acc += np.atleast_1d(c.value(late_arrivals[finite]))
        preceding[finite] = acc
    levels = preceding + wcet * np.arange(1, n + 1)
    out = np.full(n, math.inf)
    ok = np.isfinite(levels)
    if np.any(ok):
        out[ok] = np.atleast_1d(u_lo.first_crossing(levels[ok]))
    return apply_departure_floors(out, late_arrivals, wcet)
