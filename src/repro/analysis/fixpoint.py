"""The Theorem-4 engine: per-hop bounds swept to a fixed point.

**Theorem 4** bounds the end-to-end response time by a sum of per-hop
delays ``d_k <= sum_j d_{k,j}`` with
``d_{k,j} = max_m ( f_dep_lower^{-1}(m) - f_arr_upper^{-1}(m) )`` (Eq. 12).
Per subjob and hop the engine keeps

* ``early``: per-instance earliest releases, an upper bound on the
  arrival function (Lemma 2).  No subjob is served faster than on a
  processor of its own, so these depend only on the job's releases and
  execution times; each horizon folds
  :func:`~repro.analysis.hopbounds.earliest_departures` along every chain
  once;
* ``late``: per-instance latest releases, i.e. the previous hop's
  departure lower bound (Lemma 1), computed by the busy-window bounds of
  :mod:`repro.analysis.hopbounds` from the envelopes of the hop's
  interferers.  ``late`` starts at ``+inf`` past the first hop (no claim)
  and only tightens, so every iterate is a sound bound;

and reports ``d_{k,j} = max_m (late_{k,j+1,m} - early_{k,j,m})``.

A sweep evaluates every hop once and tightens the next hop's ``late``
envelope.  Each horizon round starts from fresh envelopes, and a sweep
reads nothing of earlier sweeps but the envelopes they tightened.

On an acyclic system the hops are visited in
:func:`~repro.analysis.base.dependency_order`, so each is evaluated from
final inputs, and a round is exactly one sweep: the paper's single-pass
pipeline.  ``SPNP/App``, ``FCFS/App``, ``SPP/App`` and ``Mixed/App``
(:mod:`repro.analysis.compositional`) run on this engine and refuse
cyclic systems.

The paper's conclusion sketches the iteration ``X^{n+1} = F(X^n)`` for
systems whose envelopes depend on each other cyclically -- "physical
loops" (a chain revisiting a processor) and "logical loops" (mutual
interference across processors).  ``Fixpoint/App`` sweeps those in
declaration order until a sweep tightens no envelope (the exact fixed
point), the per-job sums stop moving, a period-2 oscillation appears, or
:data:`MAX_SWEEPS` sweeps have run.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..curves import Curve, fcfs_utilization, sum_curves
from ..model.job import SubJob
from ..model.system import SchedulingPolicy, System
from ..obs.metrics import inc as _metric_inc
from ..obs.metrics import metrics_enabled as _metrics_enabled
from ..obs.metrics import set_gauge as _metric_set_gauge
from ..obs.trace import trace_span
from .base import (
    AnalysisResult,
    CyclicDependencyError,
    EndToEndResult,
    SubjobResult,
    dependency_order,
)
from .hopbounds import (
    blocking_time,
    earliest_departures,
    fcfs_departure_bound,
    priority_departure_bound,
    visible_step,
)
from .horizon import UTILIZATION_GUARD, HorizonConfig, run_adaptive
from .options import AnalysisOptions
from .spp_exact import _overloaded_result

__all__ = ["FixpointAnalysis"]

Key = Tuple[str, int]

#: Cap on the sweeps of one horizon round of a cyclic system; the last
#: iterate is still a sound bound.
MAX_SWEEPS = 25

#: Convergence tolerances for the per-job delay sums: two iterates agree
#: when their difference is within ``abs_tol + rel_tol * magnitude``.  A
#: purely absolute check mis-declares convergence for systems with very
#: large delay magnitudes (where double-precision spacing exceeds the
#: tolerance, so sums can never agree to 1e-9) and is needlessly strict
#: for tiny ones; the combined form is scale-free.
_REL_TOL = 1e-9
_ABS_TOL = 1e-9


def _totals_close(a: Dict[str, float], b: Dict[str, float]) -> bool:
    """Finite, per-job agreement of two delay-sum vectors (rel+abs tol)."""
    for j in a:
        x, y = a[j], b[j]
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        if abs(x - y) > _ABS_TOL + _REL_TOL * max(abs(x), abs(y)):
            return False
    return True


def _max_delta(
    current: Dict[Any, float], previous: Optional[Dict[Any, float]]
) -> Optional[float]:
    """Worst absolute movement between two bound vectors.

    ``None`` when there is no previous iterate; ``inf`` when a value
    crossed between finite and infinite (a hop bound resolving).
    """
    if previous is None:
        return None
    worst = 0.0
    for key, value in current.items():
        prev = previous.get(key)
        if prev is None:
            return math.inf
        if not (math.isfinite(value) and math.isfinite(prev)):
            if value != prev:  # inf == inf compares equal, no movement
                return math.inf
            continue
        worst = max(worst, abs(value - prev))
    return worst


def _telemetry_float(value: Optional[float]) -> Optional[float]:
    """Residuals/deltas for the strict-JSON convergence block."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


class _Hop:
    """What one hop reads: its interferers and blocking."""

    def __init__(self, system: System, sub: SubJob, policy: SchedulingPolicy):
        self.sub = sub
        self.policy = policy
        self.peers = system.job_set.subjobs_on(sub.processor)
        if policy == SchedulingPolicy.FCFS:
            # Every other subjob may precede ours; the utilization curve
            # reads every peer's late envelope, its own included.
            self.interferers = [s for s in self.peers if s.key != sub.key]
            self.blocking = 0.0
        else:
            self.interferers = [
                s
                for s in self.peers
                if s.key != sub.key and s.priority < sub.priority
            ]
            self.blocking = blocking_time(system, sub, policy)


class _Envelopes:
    """One horizon round: envelopes and their curves.

    A tightened envelope is installed as a new array, so the curve caches
    key on the arrays they were built from.
    """

    def __init__(
        self,
        system: System,
        fcfs_procs: frozenset,
        h: float,
        report: float,
        options: Optional[AnalysisOptions],
    ) -> None:
        self.h = h
        self.options = options
        self.fcfs_procs = fcfs_procs
        self.n_analyzed: Dict[str, int] = {}
        self.early: Dict[Key, np.ndarray] = {}
        self.late: Dict[Key, np.ndarray] = {}
        for job in system.job_set:
            rel = job.arrivals.release_times(h)
            self.n_analyzed[job.job_id] = int(np.count_nonzero(rel <= report))
            first = job.subjobs[0]
            jitter = job.release_jitter
            self.early[first.key] = rel
            self.late[first.key] = rel + jitter if jitter > 0 else rel
            for prev, sub in zip(job.subjobs, job.subjobs[1:]):
                self.early[sub.key] = earliest_departures(
                    self.early[prev.key], prev.wcet
                )
                self.late[sub.key] = np.full(rel.size, math.inf)
        self.delays: Dict[Key, float] = {}
        self.hop_ok: Dict[Key, bool] = {}
        self._c_early: Dict[Key, Curve] = {}
        self._c_late: Dict[Key, Tuple[np.ndarray, Curve]] = {}
        self._u_lo: Dict[Hashable, Tuple[List[np.ndarray], Curve]] = {}

    def early_curve(self, s: SubJob) -> Curve:
        curve = self._c_early.get(s.key)
        if curve is None:
            curve = visible_step(self.early[s.key], s.wcet, self.h)
            if self.options is not None:
                # Max-count envelopes err upward: more interference.
                curve = self.options.cap_upper(curve)
            self._c_early[s.key] = curve
        return curve

    def late_curve(self, s: SubJob) -> Curve:
        late = self.late[s.key]
        built = self._c_late.get(s.key)
        if built is None or built[0] is not late:
            curve = visible_step(late, s.wcet, self.h)
            if self.options is not None:
                # Min-count envelopes err downward: less certified
                # service.  On FCFS processors they feed the step-only
                # fcfs_utilization kernel.
                curve = self.options.cap_lower(
                    curve, require_step=s.processor in self.fcfs_procs
                )
            built = self._c_late[s.key] = (late, curve)
        return built[1]

    def utilization(self, proc: Hashable, peers: Sequence[SubJob]) -> Curve:
        """``U_lo`` of an FCFS processor's min-count total workload."""
        lates = [self.late[s.key] for s in peers]
        built = self._u_lo.get(proc)
        if built is None or any(a is not b for a, b in zip(built[0], lates)):
            total = sum_curves([self.late_curve(s) for s in peers])
            if self.options is not None:
                # A smaller min-count total means less certified service,
                # so U_lo only drops: the sound direction.
                total = self.options.cap_lower(total, require_step=True)
            built = self._u_lo[proc] = (
                lates,
                fcfs_utilization(total, t_end=self.h),
            )
        return built[1]

    def evaluate(self, hop: _Hop) -> bool:
        """Re-bound one hop; True if it tightened the next hop's ``late``."""
        sub = hop.sub
        key = sub.key
        env_early, env_late = self.early[key], self.late[key]
        with trace_span(
            "hop",
            job=key[0],
            hop=key[1],
            processor=str(sub.processor),
            policy=hop.policy.value,
        ) as span:
            if hop.policy == SchedulingPolicy.FCFS:
                dep_ub = fcfs_departure_bound(
                    [self.early_curve(s) for s in hop.interferers],
                    self.utilization(sub.processor, hop.peers),
                    env_late,
                    sub.wcet,
                )
            else:
                dep_ub = priority_departure_bound(
                    [self.early_curve(s) for s in hop.interferers],
                    [self.late_curve(s) for s in hop.interferers],
                    self.late_curve(sub),
                    env_late,
                    sub.wcet,
                    hop.blocking,
                    options=self.options,
                )
            # Completions past the horizon are not proven.
            dep_ub = np.where(dep_ub > self.h, math.inf, dep_ub)
            m = min(env_early.size, self.n_analyzed[key[0]])
            self.delays[key] = (
                float(np.max(dep_ub[:m] - env_early[:m])) if m else 0.0
            )
            self.hop_ok[key] = bool(np.all(np.isfinite(dep_ub[:m])))
            span.set_attrs(
                n_instances=int(env_early.size),
                analyzed_instances=m,
                local_delay=self.delays[key],
                bounded=self.hop_ok[key],
            )
        nxt = (key[0], key[1] + 1)
        if nxt not in self.late:
            return False
        tightened = np.minimum(dep_ub, self.late[nxt])
        if np.array_equal(tightened, self.late[nxt]):
            return False
        self.late[nxt] = tightened
        return True


class FixpointAnalysis:
    """Theorem-4 bounds swept to a fixed point; handles cyclic systems.

    On an acyclic system it makes one sweep per horizon round and equals
    ``Mixed/App`` (or the forced policy's single-pass method), with or
    without options; on a cyclic one it sweeps the hops in declaration
    order until the envelopes settle.

    Parameters
    ----------
    horizon:
        Adaptive-horizon configuration.
    force_policy:
        Analyze every processor under this policy (as the paper's uniform
        experiments do); default honors each processor's own policy.
    options:
        Performance options.  With compaction enabled, every max-count
        envelope is compacted upward and every min-count envelope
        downward before entering the hop-bound formulas, which can only
        loosen (never undercut) the departure bounds.  Options that only
        change speed or telemetry leave the bounds bit for bit those of
        ``options=None``.
    keep_curves:
        Retain per-hop envelopes and workload curves in the result.
    """

    name = "Fixpoint/App"
    #: The single-pass subclasses refuse cyclic systems.
    single_pass = False

    def __init__(
        self,
        horizon: Optional[HorizonConfig] = None,
        force_policy: Optional[SchedulingPolicy] = None,
        options: Optional[AnalysisOptions] = None,
        keep_curves: bool = False,
    ) -> None:
        self.horizon = horizon or HorizonConfig()
        self.force_policy = force_policy
        self.options = options
        self.keep_curves = keep_curves

    @property
    def policy(self) -> Optional[SchedulingPolicy]:
        """Policy forced on every processor; None honors the system's own."""
        return self.force_policy

    def analyze(self, system: System) -> AnalysisResult:
        """Compute per-hop summed response-time bounds (Theorem 4)."""
        system.validate(self.force_policy)
        if system.max_utilization() > UTILIZATION_GUARD:
            return _overloaded_result(system, self.name)
        try:
            order = dependency_order(system, for_envelopes=True)
            cyclic = False
        except CyclicDependencyError:
            if self.single_pass:
                raise
            order, cyclic = system.job_set.all_subjobs(), True
        policies = {
            p: self.force_policy or system.policy(p) for p in system.processors
        }
        hops = [_Hop(system, sub, policies[sub.processor]) for sub in order]
        fcfs_procs = frozenset(
            p for p, pol in policies.items() if pol == SchedulingPolicy.FCFS
        )

        def analyze_once(h: float, report: float):
            env = _Envelopes(system, fcfs_procs, h, report, self.options)
            return self._sweep(system, hops, env, cyclic)

        with trace_span(
            "analyze", method=self.name, n_jobs=len(list(system.jobs))
        ) as span:
            result = run_adaptive(analyze_once, system.job_set, self.horizon)
            span.set_attrs(
                rounds=result.rounds,
                horizon=result.horizon,
                schedulable=result.schedulable,
            )
            return result

    # ------------------------------------------------------------------

    def _sweep(
        self, system: System, hops: List[_Hop], env: _Envelopes, cyclic: bool
    ) -> Tuple[AnalysisResult, bool]:
        """Sweep one horizon round to its fixed point; build its result."""
        h = env.h
        job_set = system.job_set
        prev_totals: Optional[Dict[str, float]] = None
        prev_prev_totals: Optional[Dict[str, float]] = None
        diagnostics = []
        # Convergence telemetry is opt-in (AnalysisOptions.convergence);
        # the residual gauge additionally needs an active registry.
        telemetry = self.options is not None and self.options.convergence
        introspect = telemetry or _metrics_enabled()
        sweep_records = []
        stable = False
        for sweep in range(1, MAX_SWEEPS + 1):
            with trace_span("fixpoint.sweep", sweep=sweep, horizon=h) as span:
                prev_delays = (
                    dict(env.delays) if telemetry and sweep > 1 else None
                )
                changed = sum(env.evaluate(hop) for hop in hops)
                totals = {
                    job.job_id: sum(env.delays[s.key] for s in job.subjobs)
                    for job in job_set
                }
                bounded = all(env.hop_ok.values())
                span.set_attrs(bounded=bounded)
                if introspect:
                    residual = _max_delta(totals, prev_totals)
                    _metric_inc("repro_fixpoint_sweeps_total")
                    if residual is not None and math.isfinite(residual):
                        _metric_set_gauge("repro_fixpoint_residual", residual)
                    span.set_attrs(
                        residual=residual if residual is not None else "first"
                    )
                if telemetry:
                    sweep_records.append(
                        {
                            "sweep": sweep,
                            "residual": _telemetry_float(residual),
                            "max_hop_delta": _telemetry_float(
                                _max_delta(env.delays, prev_delays)
                            ),
                            "changed": changed,
                            "bounded": bounded,
                        }
                    )
            # In dependency order every hop was evaluated from final
            # inputs, and a sweep that tightened nothing evaluated every
            # hop from its final inputs: either is the exact fixed point.
            # Otherwise converged only when every bound is finite and
            # stable: an infinite total may still be propagating through
            # the loop (each sweep resolves one more hop of a cyclic chain).
            if not cyclic or not changed or (
                prev_totals is not None and _totals_close(totals, prev_totals)
            ):
                stable = True
                break
            # Watchdog: a period-2 oscillation (this sweep matches the one
            # before last but not the last) can only repeat forever -- the
            # iterates are monotone per hop, so once the per-job sums cycle,
            # further sweeps reproduce the cycle.  The current iterate is
            # still a sound bound; stop and say why.
            if (
                prev_prev_totals is not None
                and _totals_close(totals, prev_prev_totals)
                and not _totals_close(totals, prev_totals)
            ):
                diagnostics.append(
                    {
                        "kind": "oscillation",
                        "source": "FixpointAnalysis",
                        "sweep": sweep,
                        "horizon": h,
                        "detail": (
                            "per-job delay sums alternate between two values; "
                            "returning the current (sound) iterate"
                        ),
                    }
                )
                break
            prev_prev_totals = prev_totals
            prev_totals = totals
        else:
            diagnostics.append(
                {
                    "kind": "iteration_budget_exhausted",
                    "source": "FixpointAnalysis",
                    "sweep": MAX_SWEEPS,
                    "horizon": h,
                    "detail": (
                        f"per-job delay sums not stable after "
                        f"{MAX_SWEEPS} sweeps; returning the "
                        f"last (sound) iterate"
                    ),
                }
            )

        result = AnalysisResult(
            method=self.name, horizon=h, drained=False, converged=False
        )
        result.diagnostics.extend(diagnostics)
        if telemetry:
            result.convergence = {
                "horizon": h,
                "n_sweeps": len(sweep_records),
                "stable": stable,
                "oscillation": any(
                    d["kind"] == "oscillation" for d in diagnostics
                ),
                "budget_exhausted": any(
                    d["kind"] == "iteration_budget_exhausted"
                    for d in diagnostics
                ),
                "sweeps": sweep_records,
            }
        all_ok = True
        for job in job_set:
            ok = all(env.hop_ok[s.key] for s in job.subjobs)
            wcrt = totals[job.job_id] if ok else math.inf
            if env.n_analyzed[job.job_id] == 0:
                wcrt, ok = 0.0, True
            all_ok = all_ok and ok
            res = EndToEndResult(
                job_id=job.job_id,
                deadline=job.deadline,
                wcrt=wcrt,
                n_instances=env.n_analyzed[job.job_id],
            )
            if self.keep_curves:
                res.hops = [
                    SubjobResult(
                        key=s.key,
                        processor=s.processor,
                        wcet=s.wcet,
                        priority=s.priority,
                        local_delay=env.delays[s.key],
                        arrival_times=env.early[s.key],
                        completion_times=env.late[s.key],
                        service_lower=env.late_curve(s),
                        service_upper=env.early_curve(s),
                    )
                    for s in job.subjobs
                ]
            result.jobs[job.job_id] = res
        return result, all_ok
