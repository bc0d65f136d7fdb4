"""Fixed-point analysis for systems with loops (paper Section 6).

The paper's conclusion sketches an iterative scheme ``X^{n+1} = F(X^n)``
for systems whose arrival functions depend on each other cyclically --
"physical loops" (a job chain revisiting a processor) and "logical loops"
(mutual interference across processors).  The single-pass pipeline of
:class:`~repro.analysis.compositional.CompositionalAnalysis` cannot order
such systems topologically.

This module realizes the scheme as a Kleene iteration over the per-hop
envelope vectors that is *sound at every iterate* (unlike starting from
the optimistic zero vector the conclusion suggests):

* **early** envelopes start at the best-case pass-through
  ``early_{k,j+1,m} = early_{k,j,m} + tau_{k,j}`` (no instance can move
  through a hop faster than one dedicated execution) -- already sound;
* **late** envelopes start at ``+inf`` (no claim about departures);
* each sweep re-evaluates every hop with the busy-window bounds of
  :mod:`repro.analysis.hopbounds` using the previous iterate's envelopes.

The hop bounds are monotone in the envelopes, so the late envelopes
descend (and early envelopes ascend) toward a fixed point; iteration stops
when the per-job sums are stable or ``max_iterations`` is hit, and every
intermediate result is a valid bound.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

from ..curves import Curve, fcfs_utilization, sum_curves
from ..model.system import SchedulingPolicy, System
from ..obs.metrics import inc as _metric_inc
from ..obs.metrics import metrics_enabled as _metrics_enabled
from ..obs.metrics import set_gauge as _metric_set_gauge
from ..obs.trace import trace_span
from .base import AnalysisResult, EndToEndResult
from .compositional import blocking_time
from .hopbounds import (
    earliest_departures,
    fcfs_departure_bound,
    priority_departure_bound,
    visible_step,
)
from .horizon import HorizonConfig, run_adaptive
from .options import AnalysisOptions
from .spp_exact import _overloaded_result

__all__ = ["FixpointAnalysis"]

Key = Tuple[str, int]

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


class FixpointAnalysis:
    """Theorem-4 bounds via Kleene iteration; handles cyclic systems.

    Produces the same kind of results as :class:`CompositionalAnalysis`
    while also supporting job chains that revisit processors and other
    cyclic interference structures.

    Parameters
    ----------
    horizon:
        Adaptive-horizon configuration.
    max_iterations:
        Cap on Kleene sweeps per horizon; the last iterate is still a
        sound bound.
    force_policy:
        Analyze every processor under this policy (as the paper's uniform
        experiments do); default honors each processor's own policy.
    options:
        Performance options.  Compaction (if enabled) is applied to the
        per-sweep workload curves exactly as in
        :class:`~repro.analysis.compositional.CompositionalAnalysis`;
        additionally ``options.warm_start`` seeds each doubled horizon's
        iteration from the previous horizon's envelopes.  Warm-starting
        is sound because every envelope value the iteration produces is
        itself a valid bound: a finite latest-departure ``late_m <= h``
        proven for the ``h``-truncated system holds for any larger
        horizon by causality (work released after ``h`` cannot influence
        the schedule before ``h``), and earliest-arrival envelopes are
        derived horizon-independently from pass-through floors.  With
        ``options=None`` (the default) every horizon cold-starts, which
        reproduces the pre-options iteration trajectory bit for bit.
    dirty_skip:
        Skip re-bounding hops whose input envelopes did not change since
        the previous sweep (detected by array identity, so skipped hops
        reproduce byte-identical outputs by construction).  On by
        default; the switch exists for the equivalence regression test.
    """

    name = "Fixpoint/App"
    method = name  #: legacy alias for ``name``

    def __init__(
        self,
        horizon: Optional[HorizonConfig] = None,
        max_iterations: int = 25,
        force_policy: Optional[SchedulingPolicy] = None,
        options: Optional[AnalysisOptions] = None,
        dirty_skip: bool = True,
    ) -> None:
        self.horizon = horizon or HorizonConfig()
        self.max_iterations = max_iterations
        self.force_policy = force_policy
        self.options = options
        self.dirty_skip = dirty_skip

    @property
    def policy(self) -> Optional[SchedulingPolicy]:
        """Policy forced on every processor; None honors the system's own."""
        return self.force_policy

    def _policy(self, system: System, proc: Hashable) -> SchedulingPolicy:
        return self.force_policy or system.policy(proc)

    def analyze(self, system: System) -> AnalysisResult:
        needs_prio = (
            self.force_policy in (SchedulingPolicy.SPP, SchedulingPolicy.SPNP)
            if self.force_policy is not None
            else system.uses_priorities()
        )
        if needs_prio:
            system.job_set.validate_priorities()
        if system.max_utilization() > self.horizon.utilization_guard:
            return _overloaded_result(system, self.method)

        # Warm-start carry: converged envelopes of the previous (smaller)
        # horizon, reused as initial iterates for the next round.
        carry: Dict[str, Dict[Key, np.ndarray]] = {}
        warm = self.options is not None and self.options.warm_start

        def analyze_once(h: float, report: float):
            return self._analyze_horizon(
                system, h, report, carry if warm else None
            )

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
        h: float,
        report: float,
        carry: Optional[Dict[str, Dict[Key, np.ndarray]]] = None,
    ) -> Tuple[AnalysisResult, bool]:
        job_set = system.job_set
        subs = job_set.all_subjobs()
        releases: Dict[str, np.ndarray] = {
            job.job_id: job.arrivals.release_times(h) for job in job_set
        }
        n_analyzed = {
            job.job_id: int(np.count_nonzero(releases[job.job_id] <= report))
            for job in job_set
        }

        # Initial envelopes: sound without any analysis.
        early: Dict[Key, np.ndarray] = {}
        late: Dict[Key, np.ndarray] = {}
        for job in job_set:
            acc = releases[job.job_id].astype(float)
            for sub in job.subjobs:
                early[sub.key] = acc
                late[sub.key] = (
                    acc + job.release_jitter
                    if sub.index == 0
                    else np.full(acc.size, math.inf)
                )
                acc = acc + sub.wcet

        # Warm start: tighten the initial iterate with the previous
        # (smaller) horizon's envelopes.  Release prefixes agree across
        # horizons, so instance m is the same instance in both rounds;
        # every carried value is itself a sound bound (see class docs),
        # and min/max keep whichever side is tighter.
        if carry:
            for key, prev in carry["late"].items():
                cur = late.get(key)
                if cur is not None and prev.size:
                    m = min(cur.size, prev.size)
                    np.minimum(cur[:m], prev[:m], out=cur[:m])
            for key, prev in carry["early"].items():
                cur = early.get(key)
                if cur is not None and prev.size:
                    m = min(cur.size, prev.size)
                    np.maximum(cur[:m], prev[:m], out=cur[:m])

        # Dirty-set sweep state: which envelope keys each hop reads, the
        # per-processor peer sets (for utilization-curve invalidation),
        # and caches carried across sweeps.  ``changed=None`` marks the
        # first sweep, where everything is dirty.
        deps: Dict[Key, frozenset] = {}
        proc_keys: Dict[Hashable, frozenset] = {}
        for sub in subs:
            peers = job_set.subjobs_on(sub.processor)
            if sub.processor not in proc_keys:
                proc_keys[sub.processor] = frozenset(s.key for s in peers)
            if self._policy(system, sub.processor) == SchedulingPolicy.FCFS:
                d = {s.key for s in peers}
            else:
                d = {
                    s.key
                    for s in peers
                    if s.key != sub.key and s.priority < sub.priority
                }
            d.add(sub.key)
            deps[sub.key] = frozenset(d)
        state: Dict[str, Any] = {
            "changed": None,
            "deps": deps,
            "proc_keys": proc_keys,
            "c_early": {},
            "c_late": {},
            "u_lo": {},
            "delays": {},
            "hop_ok": {},
        }

        prev_totals: Optional[Dict[str, float]] = None
        prev_prev_totals: Optional[Dict[str, float]] = None
        diagnostics = []
        delays: Dict[Key, float] = {}
        hop_ok: Dict[Key, bool] = {}
        # Convergence telemetry is opt-in (AnalysisOptions.convergence);
        # the residual gauge additionally needs an active registry.
        telemetry = self.options is not None and self.options.convergence
        introspect = telemetry or _metrics_enabled()
        sweep_records = []
        stable = False
        for sweep in range(self.max_iterations):
            with trace_span("fixpoint.sweep", sweep=sweep + 1, horizon=h) as span:
                prev_delays = (
                    dict(state["delays"])
                    if telemetry and state["changed"] is not None
                    else None
                )
                delays, hop_ok, skipped = self._sweep_once(
                    system, subs, h, n_analyzed, early, late, state
                )
                totals = {
                    job.job_id: sum(delays[s.key] for s in job.subjobs)
                    for job in job_set
                }
                span.set_attrs(bounded=all(hop_ok.values()), skipped=skipped)
                if introspect:
                    residual = _max_delta(totals, prev_totals)
                    _metric_inc("repro_fixpoint_sweeps_total")
                    if residual is not None and math.isfinite(residual):
                        _metric_set_gauge("repro_fixpoint_residual", residual)
                    span.set_attrs(
                        residual=residual if residual is not None else "first",
                        dirty=len(subs) - skipped,
                    )
                if telemetry:
                    sweep_records.append(
                        {
                            "sweep": sweep + 1,
                            "residual": _telemetry_float(residual),
                            "max_hop_delta": _telemetry_float(
                                _max_delta(delays, prev_delays)
                            ),
                            "dirty": len(subs) - skipped,
                            "skipped": skipped,
                            "changed": len(state["changed"]),
                            "bounded": all(hop_ok.values()),
                        }
                    )
            # Converged only when every bound is finite and stable: an
            # infinite total may still be propagating through the loop
            # (each sweep resolves one more hop of a cyclic chain).
            if prev_totals is not None and _totals_close(totals, prev_totals):
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
                        "sweep": sweep + 1,
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
                    "sweep": self.max_iterations,
                    "horizon": h,
                    "detail": (
                        f"per-job delay sums not stable after "
                        f"{self.max_iterations} Kleene sweeps; returning the "
                        f"last (sound) iterate"
                    ),
                }
            )

        if carry is not None:
            # Every iterate is sound, converged or not, so the envelopes
            # are always safe to reuse as the next round's seed.
            carry["early"] = dict(early)
            carry["late"] = dict(late)

        result = AnalysisResult(
            method=self.method, horizon=h, drained=False, converged=False
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
            ok = all(hop_ok[s.key] for s in job.subjobs)
            wcrt = sum(delays[s.key] for s in job.subjobs) if ok else math.inf
            if n_analyzed[job.job_id] == 0:
                wcrt, ok = 0.0, True
            all_ok = all_ok and ok
            result.jobs[job.job_id] = EndToEndResult(
                job_id=job.job_id,
                deadline=job.deadline,
                wcrt=wcrt,
                n_instances=n_analyzed[job.job_id],
            )
        return result, all_ok

    def _sweep_once(
        self,
        system: System,
        subs,
        h: float,
        n_analyzed: Dict[str, int],
        early: Dict[Key, np.ndarray],
        late: Dict[Key, np.ndarray],
        state: Dict[str, Any],
    ) -> Tuple[Dict[Key, float], Dict[Key, bool], int]:
        """One Kleene sweep: re-bound dirty hops, tighten envelopes in place.

        A hop is *dirty* when any envelope it reads (its own, or a
        same-processor interferer's) changed values in the previous
        sweep.  Clean hops are skipped outright: their inputs are
        value-identical, so re-running the deterministic bound
        computation would reproduce the cached ``delays``/``hop_ok``
        entries and the (idempotent) next-hop tightening byte for byte.
        """
        job_set = system.job_set
        opts = self.options
        changed_prev: Optional[set] = state["changed"]
        c_early: Dict[Key, Curve] = state["c_early"]
        c_late: Dict[Key, Curve] = state["c_late"]
        for s in subs:
            k = s.key
            if changed_prev is None or k in changed_prev:
                ce = visible_step(early[k], s.wcet, h)
                cl = visible_step(late[k], s.wcet, h)
                if opts is not None:
                    # Min-count curves on FCFS processors feed the
                    # step-only fcfs_utilization kernel via total_late.
                    fcfs = (
                        self._policy(system, s.processor)
                        == SchedulingPolicy.FCFS
                    )
                    ce = opts.cap_upper(ce)
                    cl = opts.cap_lower(cl, require_step=fcfs)
                c_early[k] = ce
                c_late[k] = cl
        u_lo_cache: Dict[Hashable, Curve] = state["u_lo"]
        if changed_prev is None:
            u_lo_cache.clear()
        else:
            for proc in [
                p
                for p, keys in state["proc_keys"].items()
                if p in u_lo_cache and keys & changed_prev
            ]:
                del u_lo_cache[proc]
        new_early: Dict[Key, np.ndarray] = {}
        new_late: Dict[Key, np.ndarray] = {}
        delays: Dict[Key, float] = state["delays"]
        hop_ok: Dict[Key, bool] = state["hop_ok"]
        skipped = 0
        for sub in subs:
            key = sub.key
            if (
                self.dirty_skip
                and changed_prev is not None
                and not (state["deps"][key] & changed_prev)
            ):
                skipped += 1
                continue
            peers = job_set.subjobs_on(sub.processor)
            policy = self._policy(system, sub.processor)
            if policy == SchedulingPolicy.FCFS:
                if sub.processor not in u_lo_cache:
                    total_late = sum_curves([c_late[s.key] for s in peers])
                    if opts is not None:
                        total_late = opts.cap_lower(
                            total_late, require_step=True
                        )
                    u_lo_cache[sub.processor] = fcfs_utilization(
                        total_late, t_end=h
                    )
                dep_ub = fcfs_departure_bound(
                    [c_early[s.key] for s in peers if s.key != key],
                    u_lo_cache[sub.processor],
                    late[key],
                    sub.wcet,
                )
            else:
                higher = [
                    s
                    for s in peers
                    if s.key != key and s.priority < sub.priority
                ]
                lag = blocking_time(system, sub, policy)
                dep_ub = priority_departure_bound(
                    [c_early[s.key] for s in higher],
                    [c_late[s.key] for s in higher],
                    c_late[key],
                    late[key],
                    sub.wcet,
                    lag,
                    h,
                    options=opts,
                )
            n = early[key].size
            m_rep = min(n, n_analyzed[key[0]])
            if n:
                dep_ub = dep_ub.copy()
                dep_ub[dep_ub > h] = math.inf
                gaps = dep_ub[:m_rep] - early[key][:m_rep]
                delays[key] = float(np.max(gaps)) if gaps.size else 0.0
                hop_ok[key] = bool(np.all(np.isfinite(dep_ub[:m_rep])))
                arr_next = earliest_departures(
                    c_early[key], early[key], sub.wcet, h
                )
            else:
                arr_next = np.empty(0)
                delays[key] = 0.0
                hop_ok[key] = True
            nxt = (key[0], key[1] + 1)
            if nxt in early:
                # Tighten monotonically: later earliest-arrivals,
                # earlier latest-departures.  Only value changes are
                # installed, so the dirty set tracks real movement.
                tightened = np.maximum(arr_next, early[nxt])
                if not np.array_equal(tightened, early[nxt]):
                    new_early[nxt] = tightened
                tightened = np.minimum(dep_ub, late[nxt])
                if not np.array_equal(tightened, late[nxt]):
                    new_late[nxt] = tightened
        early.update(new_early)
        late.update(new_late)
        state["changed"] = set(new_early) | set(new_late)
        if skipped:
            _metric_inc("repro_fixpoint_hops_skipped_total", float(skipped))
        return delays, hop_ok, skipped
