"""Soundness audit: simulation cross-validation with fault injection.

The audit subsystem closes the loop between the analytic bounds (paper
Sections 4-6) and the discrete-event simulator: every bound the analyses
emit must dominate the corresponding simulated behavior, for nominal
systems and for adversarially deformed -- but still legal -- ones.  See
``docs/validation.md`` for the check-to-theorem mapping.
"""

from .checks import (
    AUDIT_METHODS,
    VIOLATION_SCHEMA_VERSION,
    CrossValidation,
    Violation,
    check_results,
    cross_validate,
    make_audit_analyzer,
    verify_trace_in_envelope,
)
from .faults import (
    CorruptedAnalyzer,
    clustered_trace,
    inject_release_jitter,
    legalize_trace,
    perturbed_trace,
    rebuild_system,
)
from .runner import (
    FAULTS,
    AuditConfig,
    AuditReport,
    SystemAudit,
    audit_one,
    run_audit,
)
from .shrink import (
    ARTIFACT_SCHEMA_VERSION,
    make_artifact,
    save_artifact,
    shrink_counterexample,
)

__all__ = [
    "AUDIT_METHODS",
    "ARTIFACT_SCHEMA_VERSION",
    "FAULTS",
    "VIOLATION_SCHEMA_VERSION",
    "AuditConfig",
    "AuditReport",
    "CorruptedAnalyzer",
    "CrossValidation",
    "SystemAudit",
    "Violation",
    "audit_one",
    "check_results",
    "clustered_trace",
    "cross_validate",
    "inject_release_jitter",
    "legalize_trace",
    "make_artifact",
    "make_audit_analyzer",
    "perturbed_trace",
    "rebuild_system",
    "run_audit",
    "save_artifact",
    "shrink_counterexample",
]
