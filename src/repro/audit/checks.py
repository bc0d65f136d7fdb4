"""Soundness checks: cross-validate analytic bounds against the simulator.

The paper's central claim is an *ordering*: for every legal arrival
pattern, the simulated (exact) behavior must stay on the safe side of the
analytic bounds.  :func:`check_results` turns that claim into executable
checks on one concrete system and the analysis results a caller holds;
it is the only place that compares a bound with a simulated response,
and ``repro audit`` (through :func:`cross_validate`, which runs the
analyses first), ``repro batch --audit``, ``repro validate`` and
``repro report`` all call it:

* **response bounds** -- every simulated end-to-end response of an
  analyzed instance is ``<=`` the method's worst-case bound (Theorems
  1/4 and the stationary network-calculus bound);
* **hop brackets** -- simulated per-hop completions stay inside the
  per-instance envelopes the analyses derive: above the Lemma-2 earliest
  envelope (dedicated-processor floors), below the Lemma-1 / Theorem-5/6
  latest-departure bounds;
* **envelopes** -- the release trace each job actually produces conforms
  to the arrival envelope :func:`repro.curves.envelope.envelope_of`
  declares for its process (the HeRTA-style event-bound consistency
  check).

Every failed comparison becomes a structured :class:`Violation` record;
an empty violation list on a fuzzed corpus is the audit's evidence of
soundness, and a non-empty one (e.g. from the deliberate corruption mode
of :mod:`repro.audit.faults`) feeds the counterexample shrinker.

The simulation horizon is capped (``sim_cap``): checking a *prefix* of
the analyzed instances is still a valid soundness check, and truncating
later arrivals can only lower observed responses -- never manufacture a
false violation.  Within the cap, each result is checked on every
instance its bounds cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import METHODS, make_analyzer
from ..analysis.base import AnalysisError, AnalysisResult, _json_float
from ..analysis.hopbounds import apply_departure_floors
from ..analysis.horizon import HorizonConfig
from ..curves import audit_checks
from ..curves.envelope import envelope_of
from ..model.system import SchedulingPolicy, System
from ..obs.metrics import inc as _metric_inc
from ..obs.trace import trace_span
from ..sim import simulate

__all__ = [
    "AUDIT_METHODS",
    "VIOLATION_SCHEMA_VERSION",
    "Violation",
    "CrossValidation",
    "check_results",
    "cross_validate",
    "make_audit_analyzer",
    "verify_trace_in_envelope",
]

#: All registered analysis methods, in registry order.
AUDIT_METHODS = tuple(METHODS)

#: Version tag embedded in every serialized violation record.
VIOLATION_SCHEMA_VERSION = 1

#: Methods whose ``SubjobResult.completion_times`` is the hop's *own*
#: exact completion (vs. the compositional family, where hop ``j`` stores
#: the latest-arrival envelope, i.e. hop ``j-1``'s departure bound).
_EXACT_HOP_METHODS = frozenset({"SPP/Exact"})

#: Default relative/absolute tolerance for bound comparisons.  Bounds and
#: simulated times accumulate independent float error; a violation must
#: clear this margin to count.
DEFAULT_TOL = 1e-6

#: Default limit on the simulated window of :func:`check_results`.
DEFAULT_SIM_CAP = 300.0


@dataclass
class Violation:
    """One failed soundness comparison, JSON-ready.

    ``kind`` is one of ``response_bound``, ``hop_upper``, ``hop_lower``,
    ``envelope`` or ``physical_floor``; ``observed``/``bound`` carry the
    two sides of the failed comparison when they are meaningful.
    """

    kind: str
    method: str
    job_id: Optional[str] = None
    instance: Optional[int] = None
    hop: Optional[int] = None
    observed: Optional[float] = None
    bound: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": VIOLATION_SCHEMA_VERSION,
            "kind": self.kind,
            "method": self.method,
            "job_id": self.job_id,
            "instance": self.instance,
            "hop": self.hop,
            "observed": _json_float(self.observed)
            if self.observed is not None
            else None,
            "bound": _json_float(self.bound) if self.bound is not None else None,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Violation":
        return cls(
            kind=data["kind"],
            method=data.get("method", ""),
            job_id=data.get("job_id"),
            instance=data.get("instance"),
            hop=data.get("hop"),
            observed=data.get("observed"),
            bound=data.get("bound"),
            detail=data.get("detail", ""),
        )


@dataclass
class CrossValidation:
    """Outcome of auditing one system across methods."""

    violations: List[Violation] = field(default_factory=list)
    n_checks: int = 0  #: individual comparisons performed
    skipped: Dict[str, str] = field(default_factory=dict)  #: method -> reason
    errors: Dict[str, str] = field(default_factory=dict)  #: method -> exception
    results: Dict[str, AnalysisResult] = field(default_factory=dict)
    #: method -> job -> worst simulated end-to-end response compared with
    #: the job's bound (0.0 when no instance of the job was compared).
    worst: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def holds(self, method: str, job_id: str) -> bool:
        """No violation names ``job_id`` under ``method`` or under no method."""
        return not any(
            v.job_id == job_id and v.method in (method, "")
            for v in self.violations
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "n_checks": self.n_checks,
            "violations": [v.to_dict() for v in self.violations],
            "skipped": dict(self.skipped),
            "errors": dict(self.errors),
        }


def make_audit_analyzer(
    method: str,
    horizon: Optional[HorizonConfig] = None,
    options=None,
):
    """:func:`~repro.analysis.make_analyzer`, with per-hop artifacts kept.

    The audit's hop-bracket checks need ``keep_curves=True``.  Every
    Theorem-4 method and SPP/Exact retain the envelopes they bracket;
    Stationary/NC keeps only its curves, and SPP/S&L has no such knob: it
    contributes only end-to-end checks.  Retaining artifacts changes no
    bound.  ``options`` threads :class:`~repro.analysis.AnalysisOptions`
    through, so a campaign can audit the *compacted* analysis pipeline:
    compaction only loosens bounds, so every simulated response must
    still fall inside them.
    """
    analyzer = make_analyzer(method, horizon, options=options)
    if hasattr(analyzer, "keep_curves"):
        analyzer.keep_curves = True
    return analyzer


def verify_trace_in_envelope(
    times: Sequence[float],
    envelope,
    tol: float = 1e-9,
    max_pairs: int = 2_000_000,
) -> Optional[str]:
    """Check a release trace against an arrival envelope.

    Verifies the defining property ``count(window) <= alpha(len(window))``
    for every window spanned by two releases (sufficient: the maximal
    count over windows of any length is attained on such a window).
    Returns ``None`` when the trace conforms, else a description of the
    first offending window.  Quadratic in the trace length; ``max_pairs``
    guards against accidental quadratic blowups on huge traces.
    """
    ts = np.sort(np.asarray(list(times), dtype=float))
    n = ts.size
    if n * n > max_pairs:
        raise ValueError(
            f"trace too long for pairwise envelope verification ({n} releases)"
        )
    for i in range(n):
        windows = ts[i:] - ts[i]
        counts = np.arange(1, n - i + 1, dtype=float)
        # Evaluate the (right-continuous) envelope a hair to the right of
        # the window length: float error in ``t_j - t_i`` otherwise lands
        # just below a staircase jump and misses a whole step.
        slack = tol + 1e-9 * np.abs(windows)
        allowed = np.atleast_1d(envelope.value(windows + slack))
        over = counts > allowed + tol
        if np.any(over):
            j = int(np.argmax(over))
            return (
                f"{int(counts[j])} releases in window [{ts[i]:g}, "
                f"{ts[i + j]:g}] but envelope allows {allowed[j]:g}"
            )
    return None


def _effective_policy(analyzer) -> Optional[SchedulingPolicy]:
    """The uniform policy an analyzer's bounds refer to, or None (own)."""
    return getattr(analyzer, "policy", None)


def _group_key(policy: Optional[SchedulingPolicy]) -> str:
    return policy.value if policy is not None else "own"


def _sim_system(system: System, policy: Optional[SchedulingPolicy]) -> System:
    if policy is None:
        return system
    return System(system.job_set, policy)


def _exceeds(observed: float, bound: float, tol: float) -> bool:
    return observed > bound + max(tol, tol * abs(bound))


def _check_response_bounds(
    result: AnalysisResult, sim, out: CrossValidation, tol: float
) -> None:
    method = result.method
    horizon_free = not math.isfinite(result.horizon)
    worst = out.worst.setdefault(method, {})
    for job_id, er in result.jobs.items():
        trace = sim.jobs.get(job_id)
        if trace is None:
            continue
        worst.setdefault(job_id, 0.0)
        for rec in trace.records:
            if not rec.finished:
                continue
            if not horizon_free and rec.instance > er.n_instances:
                continue
            out.n_checks += 1
            worst[job_id] = max(worst[job_id], rec.response)
            if _exceeds(rec.response, er.wcrt, tol):
                out.violations.append(
                    Violation(
                        kind="response_bound",
                        method=method,
                        job_id=job_id,
                        instance=rec.instance,
                        observed=rec.response,
                        bound=er.wcrt,
                        detail=(
                            f"simulated response {rec.response:.9g} exceeds "
                            f"the {method} bound {er.wcrt:.9g}"
                        ),
                    )
                )


def _check_hop_brackets(
    result: AnalysisResult, sim, out: CrossValidation, tol: float
) -> None:
    """Per-hop bracket checks from the analyzer's own retained envelopes."""
    method = result.method
    exact = method in _EXACT_HOP_METHODS
    for job_id, er in result.jobs.items():
        if not er.hops:
            continue
        trace = sim.jobs.get(job_id)
        if trace is None:
            continue
        for rec in trace.records:
            if not rec.finished or rec.instance > er.n_instances:
                continue
            m = rec.instance - 1
            if exact:
                # completion_times[j] is hop j's own exact completion.
                for j, hop in enumerate(er.hops):
                    comp = hop.completion_times
                    if (
                        comp is None
                        or m >= len(comp)
                        or j >= len(rec.hop_completions)
                    ):
                        continue
                    bound = float(comp[m])
                    if not math.isfinite(bound):
                        continue
                    out.n_checks += 1
                    if _exceeds(rec.hop_completions[j], bound, tol):
                        out.violations.append(
                            Violation(
                                kind="hop_upper",
                                method=method,
                                job_id=job_id,
                                instance=rec.instance,
                                hop=j,
                                observed=rec.hop_completions[j],
                                bound=bound,
                                detail=(
                                    f"simulated hop-{j} completion exceeds "
                                    f"the exact per-instance completion time"
                                ),
                            )
                        )
            else:
                # Compositional family: hop j stores the bracket on the
                # *arrival* at hop j, i.e. on hop j-1's departure --
                # arrival_times is the Lemma-2 earliest envelope,
                # completion_times the Theorem-5/6 latest bound.
                for j in range(1, len(er.hops)):
                    hop = er.hops[j]
                    if j - 1 >= len(rec.hop_completions):
                        continue
                    observed = rec.hop_completions[j - 1]
                    late = hop.completion_times
                    if late is not None and m < len(late):
                        bound = float(late[m])
                        if math.isfinite(bound):
                            out.n_checks += 1
                            if _exceeds(observed, bound, tol):
                                out.violations.append(
                                    Violation(
                                        kind="hop_upper",
                                        method=method,
                                        job_id=job_id,
                                        instance=rec.instance,
                                        hop=j - 1,
                                        observed=observed,
                                        bound=bound,
                                        detail=(
                                            f"simulated hop-{j - 1} completion "
                                            f"exceeds the latest-departure bound"
                                        ),
                                    )
                                )
                    early = hop.arrival_times
                    if early is not None and m < len(early):
                        floor = float(early[m])
                        out.n_checks += 1
                        if _exceeds(floor, observed, tol):
                            out.violations.append(
                                Violation(
                                    kind="hop_lower",
                                    method=method,
                                    job_id=job_id,
                                    instance=rec.instance,
                                    hop=j - 1,
                                    observed=observed,
                                    bound=floor,
                                    detail=(
                                        f"simulated hop-{j - 1} completion "
                                        f"precedes the Lemma-2 earliest envelope"
                                    ),
                                )
                            )


def _check_physical_floors(
    system: System, sim, out: CrossValidation, tol: float
) -> None:
    """Method-independent lower bracket: dedicated-processor floors.

    No schedule can serve instance ``m`` at hop ``j`` before the chained
    Lemma-2 recursion ``dep_m = max(arr_m, dep_{m-1}) + wcet`` from its
    nominal releases -- valid under every policy, jitter only delays.
    """
    for job in system.jobs:
        trace = sim.jobs.get(job.job_id)
        if trace is None or not trace.records:
            continue
        releases = np.asarray([r.release for r in trace.records], dtype=float)
        early = releases
        for j, sub in enumerate(job.subjobs):
            floors = apply_departure_floors(early + sub.wcet, early, sub.wcet)
            for m, rec in enumerate(trace.records):
                if not rec.finished or j >= len(rec.hop_completions):
                    continue
                out.n_checks += 1
                if _exceeds(floors[m], rec.hop_completions[j], tol):
                    out.violations.append(
                        Violation(
                            kind="physical_floor",
                            method="",
                            job_id=job.job_id,
                            instance=rec.instance,
                            hop=j,
                            observed=rec.hop_completions[j],
                            bound=float(floors[m]),
                            detail=(
                                f"simulated hop-{j} completion precedes the "
                                f"dedicated-processor floor"
                            ),
                        )
                    )
            early = floors


def _check_envelopes(
    system: System, window: float, out: CrossValidation, tol: float
) -> None:
    for job in system.jobs:
        times = job.arrivals.release_times(window)
        if len(times) == 0:
            continue
        env = envelope_of(job.arrivals, horizon=max(window, 200.0))
        out.n_checks += 1
        problem = verify_trace_in_envelope(times, env, tol)
        if problem:
            out.violations.append(
                Violation(
                    kind="envelope",
                    method="",
                    job_id=job.job_id,
                    detail=(
                        f"release trace escapes the declared "
                        f"{type(job.arrivals).__name__} envelope: {problem}"
                    ),
                )
            )


def cross_validate(
    system: System,
    methods: Sequence[str] = AUDIT_METHODS,
    horizon: Optional[HorizonConfig] = None,
    sim_cap: float = DEFAULT_SIM_CAP,
    tol: float = DEFAULT_TOL,
    jitter_offsets: Optional[Dict[str, Any]] = None,
    analyzers: Optional[Dict[str, Any]] = None,
    check_envelopes: bool = True,
    options=None,
) -> CrossValidation:
    """Audit one system: run the analyses, then :func:`check_results`.

    Parameters
    ----------
    system:
        The system under audit (priorities already assigned where needed).
    methods:
        Method names to audit (default: all registered methods).
    horizon:
        Optional :class:`HorizonConfig` applied to every analyzer.
    sim_cap, tol, jitter_offsets, check_envelopes:
        Passed on to :func:`check_results`.
    analyzers:
        Per-method analyzer instance overrides -- the fault injector uses
        this to swap in a :class:`~repro.audit.faults.CorruptedAnalyzer`.
    options:
        :class:`~repro.analysis.AnalysisOptions` applied to every
        analyzer (unless overridden via ``analyzers``); used to audit the
        compacted pipeline against simulation.

    Methods that reject the system (``AnalysisError``: wrong policy mix,
    aperiodic jobs for the holistic baseline, jitter for the exact
    analysis) are recorded under ``skipped``; unexpected exceptions under
    ``errors``; neither counts as a soundness violation.  Curve invariant
    checking (:func:`repro.curves.set_audit_checks`) is active for the
    whole call.
    """
    out = CrossValidation()
    analyzed = []
    with audit_checks():
        for method in methods:
            analyzer = (
                analyzers[method]
                if analyzers is not None and method in analyzers
                else make_audit_analyzer(method, horizon, options=options)
            )
            with trace_span("audit.method", method=method) as span:
                try:
                    out.results[method] = analyzer.analyze(system)
                    analyzed.append((analyzer, out.results[method]))
                    span.set_attrs(outcome="analyzed")
                except AnalysisError as exc:
                    out.skipped[method] = str(exc)
                    span.set_attrs(outcome="skipped")
                except Exception as exc:  # noqa: BLE001 - audit must not die
                    out.errors[method] = f"{type(exc).__name__}: {exc}"
                    span.set_attrs(outcome="error")
    return check_results(
        system,
        analyzed,
        sim_cap=sim_cap,
        tol=tol,
        jitter_offsets=jitter_offsets,
        check_envelopes=check_envelopes,
        out=out,
    )


def check_results(
    system: System,
    analyzed: Sequence[Tuple[Any, AnalysisResult]],
    sim_cap: Optional[float] = DEFAULT_SIM_CAP,
    tol: float = DEFAULT_TOL,
    jitter_offsets: Optional[Dict[str, Any]] = None,
    check_envelopes: bool = True,
    out: Optional[CrossValidation] = None,
) -> CrossValidation:
    """Compare analysis results a caller already holds with the simulator.

    ``analyzed`` holds ``(analyzer, result)`` pairs; the analyzer's
    ``policy`` says which schedule the result bounds.  Results that bound
    the same schedule share one simulation, of every release up to the
    largest analysis horizon among them, within ``sim_cap``; a
    horizon-free result is bounded by ``sim_cap`` alone.  Each result is
    compared on the instances its bounds cover (all simulated instances
    when it is horizon-free), then the method-independent physical floors
    and, with ``check_envelopes``, the release traces are checked.

    ``sim_cap=None`` sets the cap to the largest of
    :data:`DEFAULT_SIM_CAP` and every finite analysis horizon among the
    results, so it cuts none.  Findings, the comparison count and the
    worst simulated response compared with each method's bound per job
    accumulate in ``out`` (a fresh :class:`CrossValidation` when
    ``None``), which is returned.
    """
    out = out if out is not None else CrossValidation()
    if sim_cap is None:
        sim_cap = max(
            [DEFAULT_SIM_CAP]
            + [r.horizon for _, r in analyzed if math.isfinite(r.horizon)]
        )
    with audit_checks():
        # One simulation serves every result bounding the same schedule.
        groups: Dict[str, List[AnalysisResult]] = {}
        for analyzer, result in analyzed:
            key = _group_key(_effective_policy(analyzer))
            groups.setdefault(key, []).append(result)

        for key, results in groups.items():
            window = max(min(r.horizon, sim_cap) for r in results)
            if window <= 0:
                continue
            policy = None if key == "own" else SchedulingPolicy(key)
            with trace_span("audit.sim", group=key, window=window):
                sim = simulate(
                    _sim_system(system, policy),
                    horizon=window,
                    report_window=window,
                    jitter_offsets=jitter_offsets,
                )
            for result in results:
                if not result.drained and not math.isinf(result.horizon):
                    out.skipped.setdefault(
                        result.method, "analysis did not drain; bounds not final"
                    )
                    continue
                _check_response_bounds(result, sim, out, tol)
                _check_hop_brackets(result, sim, out, tol)
            _check_physical_floors(system, sim, out, tol)

        if check_envelopes:
            window = min(sim_cap, 200.0)
            _check_envelopes(system, window, out, tol)
    _metric_inc("repro_audit_checks_total", out.n_checks)
    for violation in out.violations:
        _metric_inc("repro_audit_violations_total", kind=violation.kind)
    return out
