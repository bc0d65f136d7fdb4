"""Randomized soundness-audit campaigns.

:func:`run_audit` generates randomized systems with the Section-7
workload generators, deforms each one with a legal-side fault (maximal
jitter, clustered releases, perturbed traces), cross-validates every
registered analysis against the simulator, and -- when a violation
appears -- shrinks the offending system to a minimal JSON artifact.

The campaign is deterministic given its seed: system ``i`` is generated
from ``seed + i``, so a violation report names everything needed to
reproduce it with :func:`audit_one`.

The ``corrupt`` mode flips the audit on itself: systems are generated
SPP-uniform and analyzed through a
:class:`~repro.audit.faults.CorruptedAnalyzer` whose bounds are scaled
below the truth -- a healthy audit must flag every such run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model.job import Job
from ..model.priorities import assign_priorities_proportional_deadline
from ..model.system import System
from ..model.io import system_to_dict, system_from_dict
from ..obs.metrics import inc as _metric_inc
from ..obs.trace import trace_span
from ..workloads.generators import (
    generate_aperiodic_jobset,
    generate_periodic_jobset,
)
from ..workloads.jobshop import ShopTopology
from ..analysis.options import AnalysisOptions
from .checks import (
    AUDIT_METHODS,
    CrossValidation,
    cross_validate,
    make_audit_analyzer,
)
from .faults import (
    CorruptedAnalyzer,
    clustered_trace,
    inject_release_jitter,
    perturbed_trace,
    rebuild_system,
)
from .shrink import make_artifact, save_artifact, shrink_counterexample

__all__ = [
    "AuditConfig",
    "AuditReport",
    "FAULTS",
    "audit_one",
    "run_audit",
]

#: Fault modes cycled over the generated systems.
FAULTS = ("none", "jitter", "cluster", "perturb")


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for one audit campaign."""

    n_systems: int = 50  #: how many random systems to audit
    seed: int = 0  #: base seed; system ``i`` uses ``seed + i``
    methods: Tuple[str, ...] = AUDIT_METHODS  #: analysis methods to audit
    faults: Tuple[str, ...] = FAULTS  #: fault cycle (subset of FAULTS)
    corrupt: Optional[str] = None  #: method to corrupt (self-test mode)
    corrupt_factor: float = 0.5  #: scale applied to corrupted bounds
    sim_cap: float = 300.0  #: simulation window cap per system
    tol: float = 1e-6  #: violation tolerance
    max_jobs: int = 4  #: jobs per generated system (2..max_jobs)
    shrink: bool = True  #: shrink violating systems to minimal repros
    shrink_evals: int = 150  #: predicate-evaluation budget per shrink
    artifact_dir: Optional[str] = None  #: where to save counterexamples
    #: analysis options (compaction) threaded to every
    #: analyzer -- audits the *perf-optimized* pipeline when set
    options: Optional[AnalysisOptions] = None

    def __post_init__(self) -> None:
        if self.n_systems < 1:
            raise ValueError("n_systems must be positive")
        unknown = set(self.faults) - set(FAULTS)
        if unknown:
            raise ValueError(f"unknown fault modes: {sorted(unknown)}")
        if self.corrupt is not None and self.corrupt not in self.methods:
            raise ValueError(
                f"corrupt target {self.corrupt!r} not in audited methods"
            )


@dataclass
class SystemAudit:
    """Per-system outcome within a campaign."""

    index: int
    seed: int
    fault: str
    n_jobs: int
    outcome: CrossValidation
    artifact_path: Optional[str] = None
    shrunk: Optional[Dict[str, Any]] = None  #: in-memory counterexample artifact

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "index": self.index,
            "seed": self.seed,
            "fault": self.fault,
            "n_jobs": self.n_jobs,
            **self.outcome.to_dict(),
        }
        if self.artifact_path:
            data["artifact"] = self.artifact_path
        return data


@dataclass
class AuditReport:
    """Aggregate outcome of :func:`run_audit`."""

    config: AuditConfig
    systems: List[SystemAudit] = field(default_factory=list)

    @property
    def n_violations(self) -> int:
        return sum(len(s.outcome.violations) for s in self.systems)

    @property
    def n_checks(self) -> int:
        return sum(s.outcome.n_checks for s in self.systems)

    @property
    def ok(self) -> bool:
        return self.n_violations == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_systems": len(self.systems),
            "n_checks": self.n_checks,
            "n_violations": self.n_violations,
            "ok": self.ok,
            "seed": self.config.seed,
            "corrupt": self.config.corrupt,
            "systems": [s.to_dict() for s in self.systems],
        }

    def summary(self) -> str:
        lines = [
            f"audited {len(self.systems)} systems "
            f"(seed {self.config.seed}, faults: "
            f"{', '.join(self.config.faults)}"
            + (f", corrupting {self.config.corrupt}" if self.config.corrupt else "")
            + ")",
            f"comparisons: {self.n_checks}; violations: {self.n_violations}",
        ]
        for s in self.systems:
            if s.outcome.violations:
                v = s.outcome.violations[0]
                lines.append(
                    f"  system {s.index} (seed {s.seed}, fault {s.fault}): "
                    f"{len(s.outcome.violations)} violation(s); first: "
                    f"[{v.kind}] {v.method} {v.job_id or ''} -- {v.detail}"
                )
                if s.artifact_path:
                    lines.append(f"    counterexample: {s.artifact_path}")
        errors = {
            m: msg for s in self.systems for m, msg in s.outcome.errors.items()
        }
        if errors:
            lines.append(f"analyzer errors in {len(errors)} method(s): ")
            for m, msg in sorted(errors.items()):
                lines.append(f"  {m}: {msg}")
        lines.append("PASS: no soundness violations" if self.ok else "FAIL")
        return "\n".join(lines)


def _random_system(
    rng: np.random.Generator, max_jobs: int, spp_only: bool = False
) -> System:
    """One random small system in the paper's Section-7 style."""
    topology = ShopTopology(
        n_stages=int(rng.integers(1, 3)),
        procs_per_stage=int(rng.integers(1, 3)),
    )
    n_jobs = int(rng.integers(2, max_jobs + 1))
    utilization = float(rng.uniform(0.3, 0.65))
    if rng.random() < 0.5:
        job_set = generate_periodic_jobset(
            topology,
            n_jobs,
            utilization,
            deadline_factor=float(rng.uniform(2.0, 4.0)),
            rng=rng,
        )
    else:
        job_set = generate_aperiodic_jobset(
            topology,
            n_jobs,
            utilization,
            deadline_mean=3.0,
            deadline_variance=9.0,
            rng=rng,
        )
    if spp_only:
        policies: Any = "spp"
    else:
        choice = rng.choice(["spp", "spnp", "fcfs", "mixed"])
        if choice == "mixed":
            policies = {
                proc: str(rng.choice(["spp", "spnp", "fcfs"]))
                for proc in job_set.processors
            }
        else:
            policies = str(choice)
    assign_priorities_proportional_deadline(job_set)
    return System(job_set, policies=policies)


def _apply_fault(
    system: System, fault: str, rng: np.random.Generator, sim_cap: float
) -> Tuple[System, Optional[Dict[str, Any]]]:
    """Deform a system with a legal-side fault.

    Returns the (possibly rebuilt) system plus adversarial jitter offsets
    for the simulator (jitter fault only).  Clustered/perturbed traces are
    verified against the original envelopes inside the fault helpers.
    """
    if fault == "none":
        return system, None
    if fault == "jitter":
        return inject_release_jitter(system, rng)
    trace_window = min(sim_cap, 120.0)
    jobs: List[Job] = []
    for job in system.jobs:
        if fault == "cluster":
            arrivals = clustered_trace(job, trace_window)
        else:
            arrivals = perturbed_trace(job, trace_window, rng)
        jobs.append(replace(job, arrivals=arrivals))
    return rebuild_system(system, jobs), None


def audit_one(
    config: AuditConfig, index: int
) -> SystemAudit:
    """Generate, deform and cross-validate system ``index`` of a campaign."""
    seed = config.seed + index
    rng = np.random.default_rng(seed)
    # Corruption mode tests the audit itself; legal-side faults would only
    # let methods skip (e.g. the exact analysis rejects jitter), so the
    # corrupted analyzer always runs against a pristine system.
    fault = "none" if config.corrupt else config.faults[index % len(config.faults)]
    with trace_span("audit.system", index=index, seed=seed, fault=fault) as span:
        system = _random_system(rng, config.max_jobs, spp_only=bool(config.corrupt))
        faulted, offsets = _apply_fault(system, fault, rng, config.sim_cap)

        analyzers = None
        methods: Sequence[str] = config.methods
        if config.corrupt:
            methods = (config.corrupt,)
            analyzers = {
                config.corrupt: CorruptedAnalyzer(
                    make_audit_analyzer(config.corrupt, options=config.options),
                    config.corrupt_factor,
                )
            }
        outcome = cross_validate(
            faulted,
            methods=methods,
            sim_cap=config.sim_cap,
            tol=config.tol,
            jitter_offsets=offsets,
            analyzers=analyzers,
            options=config.options,
        )
        audit = SystemAudit(
            index=index,
            seed=seed,
            fault=fault,
            n_jobs=len(list(faulted.jobs)),
            outcome=outcome,
        )
        if outcome.violations and config.shrink:
            with trace_span("audit.shrink", index=index):
                audit.artifact_path = _shrink_and_save(
                    config, audit, faulted, offsets
                )
        span.set_attrs(
            n_jobs=audit.n_jobs,
            n_checks=outcome.n_checks,
            n_violations=len(outcome.violations),
        )
        _metric_inc("repro_audit_systems_total", fault=fault)
    return audit


def _shrink_and_save(
    config: AuditConfig,
    audit: SystemAudit,
    system: System,
    offsets: Optional[Dict[str, Any]],
) -> Optional[str]:
    """Minimize a violating system and persist it as a JSON artifact."""
    method = audit.outcome.violations[0].method or None

    def still_fails(candidate: Dict[str, Any]) -> bool:
        sys2 = system_from_dict(candidate)
        analyzers = None
        methods: Sequence[str] = config.methods if method is None else (method,)
        if config.corrupt and method == config.corrupt:
            analyzers = {
                method: CorruptedAnalyzer(
                    make_audit_analyzer(method, options=config.options),
                    config.corrupt_factor,
                )
            }
        kept_ids = {job.job_id for job in sys2.jobs}
        offs = (
            {j: o for j, o in offsets.items() if j in kept_ids}
            if offsets
            else None
        )
        out = cross_validate(
            sys2,
            methods=methods,
            sim_cap=config.sim_cap,
            tol=config.tol,
            jitter_offsets=offs,
            analyzers=analyzers,
            check_envelopes=False,
            options=config.options,
        )
        return bool(out.violations)

    data = system_to_dict(system)
    shrunk = shrink_counterexample(data, still_fails, config.shrink_evals)
    artifact = make_artifact(
        shrunk,
        [v.to_dict() for v in audit.outcome.violations],
        method=method or "",
        fault=audit.fault if not config.corrupt else f"corrupt:{config.corrupt}",
        seed=audit.seed,
    )
    audit.shrunk = artifact
    if config.artifact_dir:
        name = f"counterexample-seed{audit.seed}-sys{audit.index}"
        return save_artifact(artifact, config.artifact_dir, name)
    return None


def run_audit(config: AuditConfig, progress=None) -> AuditReport:
    """Run a full audit campaign; deterministic in ``config.seed``."""
    report = AuditReport(config=config)
    with trace_span("audit.run", n_systems=config.n_systems) as span:
        for index in range(config.n_systems):
            audit = audit_one(config, index)
            report.systems.append(audit)
            if progress is not None:
                progress(audit)
        span.set_attrs(
            n_checks=report.n_checks, n_violations=report.n_violations
        )
    return report
