"""Fault injection for the soundness audit.

All injectors but one stay on the *legal* side of the model: they deform
a system toward the boundary of what its declared arrival envelopes
permit -- maximal release jitter, greedily clustered release traces,
randomly perturbed traces -- so the audit stresses the analyses exactly
where the paper's bounds are tight.  Every produced trace is re-verified
against the original envelope before it is used as audit evidence.

The one deliberate exception is :class:`CorruptedAnalyzer`: a wrapper
that scales an inner analyzer's bounds down by a known factor, turning
the audit on itself -- a pipeline that cannot flag a halved exact bound
is not measuring anything.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

import numpy as np

from ..analysis.base import AnalysisResult
from ..curves.envelope import envelope_of
from ..model.arrivals import TraceArrivals
from ..model.job import Job, JobSet
from ..model.system import System
from .checks import verify_trace_in_envelope

__all__ = [
    "CorruptedAnalyzer",
    "clustered_trace",
    "inject_release_jitter",
    "legalize_trace",
    "perturbed_trace",
    "rebuild_system",
]

_EPS = 1e-6  #: minimum spacing between distinct releases in a built trace


def legalize_trace(
    desired: Sequence[float], envelope, eps: float = _EPS
) -> List[float]:
    """Push desired release times later until the trace obeys ``envelope``.

    Greedy left-to-right: release ``j`` happens at the earliest time that
    is (a) no earlier than desired, (b) ``eps`` after its predecessor and
    (c) far enough from every earlier release ``i`` that the window
    ``[t_i, t_j]`` holds its ``j - i + 1`` releases legally, i.e.
    ``t_j - t_i >= envelope.first_crossing(j - i + 1)``.  Moving releases
    *later* never violates an already-satisfied window constraint (the
    envelope is non-decreasing), so the left-to-right pass is sound and
    yields the densest legal trace at or after the desired times.
    """
    times: List[float] = []
    for want in sorted(float(t) for t in desired):
        t = want
        if times:
            t = max(t, times[-1] + eps)
        for i, prev in enumerate(times):
            need = envelope.first_crossing(len(times) - i + 1)
            if np.isfinite(need):
                t = max(t, prev + need)
        times.append(t)
    return times


def clustered_trace(
    job: Job, horizon: float, eps: float = _EPS
) -> TraceArrivals:
    """Maximally bursty legal releases: everything as early as allowed.

    Takes the job's nominal release count over ``[0, horizon)`` and packs
    all of those releases against the arrival envelope's boundary starting
    at time zero -- the adversarial pattern the burst analyses (Theorem 4
    with bursty :math:`x_k`) must absorb.  The result is verified against
    the declared envelope before being returned.
    """
    nominal = job.arrivals.release_times(horizon)
    n = len(nominal)
    env = envelope_of(job.arrivals, horizon=max(horizon, 200.0))
    times = legalize_trace([0.0] * n, env, eps)
    problem = verify_trace_in_envelope(times, env)
    if problem:
        raise RuntimeError(
            f"clustered trace for {job.job_id} escaped its envelope: {problem}"
        )
    return TraceArrivals(tuple(times))


def perturbed_trace(
    job: Job,
    horizon: float,
    rng: np.random.Generator,
    magnitude: float = 0.25,
    eps: float = _EPS,
) -> TraceArrivals:
    """Randomly jolt nominal releases, then re-legalize against the envelope.

    Each release is shifted by ``U(-magnitude, +magnitude)`` times the
    local inter-release gap and the result is pushed back inside the
    declared envelope by :func:`legalize_trace` (so early shifts that
    would over-burst become boundary placements).  Verified before use.
    """
    nominal = np.asarray(job.arrivals.release_times(horizon), dtype=float)
    if nominal.size == 0:
        return TraceArrivals(())
    gaps = np.diff(nominal)
    scale = float(np.min(gaps)) if gaps.size else max(float(nominal[0]), 1.0)
    jolts = rng.uniform(-magnitude, magnitude, size=nominal.size) * scale
    desired = np.maximum(nominal + jolts, 0.0)
    env = envelope_of(job.arrivals, horizon=max(horizon, 200.0))
    times = legalize_trace(desired, env, eps)
    problem = verify_trace_in_envelope(times, env)
    if problem:
        raise RuntimeError(
            f"perturbed trace for {job.job_id} escaped its envelope: {problem}"
        )
    return TraceArrivals(tuple(times))


def rebuild_system(system: System, jobs: Sequence[Job]) -> System:
    """A new system with replaced jobs but identical per-processor policies."""
    policies = {proc: system.policy(proc) for proc in system.processors}
    new = System(JobSet(list(jobs)), policies=policies)
    # Processors present only in the old system carry no subjobs in the
    # new one; System derives its processor set from the jobs, so any
    # dropped processor simply disappears -- nothing further needed.
    return new


def inject_release_jitter(
    system: System,
    rng: np.random.Generator,
    fraction_range=(0.1, 0.4),
) -> tuple:
    """Declare release jitter on every job and pick adversarial offsets.

    Each job gets ``J_k = f * g_k`` where ``g_k`` is its minimum nominal
    inter-release gap and ``f ~ U(*fraction_range)`` -- small enough that
    jittered systems stay analyzable, large enough to move completions.
    Offsets are chosen adversarially rather than uniformly: per job one of
    the patterns *all-late* (every release delayed by the full ``J_k``),
    *alternating* (``J_k, 0, J_k, 0, ...`` -- adjacent releases squeezed
    together), or *front-loaded* (first half late, second half nominal --
    a burst at the pattern switch).  All offsets lie in ``[0, J_k]``, so
    the jittered traces remain inside the jitter-extended envelopes the
    analyses use.

    Returns ``(jittered_system, jitter_offsets)`` ready for
    :func:`repro.audit.checks.cross_validate`.
    """
    new_jobs: List[Job] = []
    offsets: Dict[str, List[float]] = {}
    probe = 400.0
    for job in system.jobs:
        times = np.asarray(job.arrivals.release_times(probe), dtype=float)
        gaps = np.diff(times)
        if gaps.size == 0:
            new_jobs.append(job)
            continue
        gap = float(np.min(gaps))
        j = float(rng.uniform(*fraction_range)) * gap
        new_jobs.append(replace(job, release_jitter=j))
        n = times.size
        pattern = int(rng.integers(0, 3))
        if pattern == 0:
            offs = [j] * n
        elif pattern == 1:
            offs = [j if m % 2 == 0 else 0.0 for m in range(n)]
        else:
            offs = [j] * (n // 2) + [0.0] * (n - n // 2)
        offsets[job.job_id] = offs
    return rebuild_system(system, new_jobs), offsets


class CorruptedAnalyzer:
    """Deliberately unsound wrapper: scales every bound by ``factor < 1``.

    Exists to validate the audit itself -- cross-validation against the
    simulator must flag the scaled bounds.  Delegates everything else to
    the wrapped analyzer so policy grouping and horizon handling behave
    identically.
    """

    def __init__(self, inner, factor: float = 0.5) -> None:
        if not (0.0 < factor < 1.0):
            raise ValueError("corruption factor must be in (0, 1)")
        self.inner = inner
        self.factor = factor
        self.name = f"{inner.name}!corrupted"

    @property
    def policy(self):
        return getattr(self.inner, "policy", None)

    @property
    def horizon(self):
        return getattr(self.inner, "horizon", None)

    def analyze(self, system: System) -> AnalysisResult:
        result = self.inner.analyze(system)
        for er in result.jobs.values():
            er.wcrt *= self.factor
            for hop in er.hops:
                if hop.completion_times is not None:
                    hop.completion_times = hop.completion_times * self.factor
        return result
