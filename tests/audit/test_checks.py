"""Cross-validation core: violation records, envelope checks, clean runs."""

import math

import numpy as np

from repro.audit import (
    AUDIT_METHODS,
    CrossValidation,
    Violation,
    cross_validate,
    make_audit_analyzer,
    verify_trace_in_envelope,
)
from repro.curves.envelope import envelope_of
from repro.model import (
    JobSet,
    BurstyArrivals,
    Job,
    PeriodicArrivals,
    System,
    assign_priorities_proportional_deadline,
)


def _two_job_system(policy="spp"):
    jobs = [
        Job.build(
            "A", [("P1", 1.0), ("P2", 0.5)], PeriodicArrivals(4.0), deadline=8.0
        ),
        Job.build(
            "B", [("P1", 1.5), ("P2", 1.0)], PeriodicArrivals(6.0), deadline=12.0
        ),
    ]
    assign_priorities_proportional_deadline(JobSet(jobs))
    return System(jobs, policies=policy)


def test_violation_round_trip():
    v = Violation(
        kind="response_bound",
        method="SPP/Exact",
        job_id="A",
        instance=3,
        hop=1,
        observed=2.5,
        bound=2.0,
        detail="boom",
    )
    data = v.to_dict()
    assert data["schema"] == 1
    back = Violation.from_dict(data)
    assert back == v


def test_violation_to_dict_handles_inf():
    v = Violation(kind="response_bound", method="m", observed=math.inf, bound=1.0)
    data = v.to_dict()
    assert data["observed"] is None  # strict-JSON encoding of non-finite


def test_clean_system_has_no_violations():
    out = cross_validate(_two_job_system(), sim_cap=60.0)
    assert isinstance(out, CrossValidation)
    assert out.ok, [v.to_dict() for v in out.violations]
    assert out.n_checks > 0
    assert not out.errors


def test_all_methods_participate_on_spp_system():
    out = cross_validate(_two_job_system(), sim_cap=60.0)
    covered = set(out.results) | set(out.skipped) | set(out.errors)
    assert covered == set(AUDIT_METHODS)
    # A periodic SPP-uniform jitter-free system is analyzable by all.
    assert set(out.results) == set(AUDIT_METHODS)


def test_fcfs_system_skips_spp_only_methods():
    out = cross_validate(_two_job_system(policy="fcfs"), sim_cap=60.0)
    assert out.ok
    assert "SPP/Exact" in out.skipped
    assert "SPP/S&L" in out.skipped


def test_make_audit_analyzer_keeps_curves_when_supported():
    for method in ("SPNP/App", "Fixpoint/App"):
        assert getattr(make_audit_analyzer(method), "keep_curves", False)
    # Methods without the knob still construct.
    assert make_audit_analyzer("SPP/S&L") is not None


def test_fixpoint_hop_brackets_are_checked():
    from repro.audit import CorruptedAnalyzer

    system = _two_job_system()
    plain = make_audit_analyzer("Fixpoint/App")
    with_hops = cross_validate(
        system, methods=["Fixpoint/App"], sim_cap=60.0,
        analyzers={"Fixpoint/App": plain}, check_envelopes=False,
    )
    end_to_end = cross_validate(
        system, methods=["Fixpoint/App"], sim_cap=60.0,
        analyzers={"Fixpoint/App": type(plain)()}, check_envelopes=False,
    )
    assert with_hops.ok and with_hops.n_checks > end_to_end.n_checks
    corrupted = cross_validate(
        system, methods=["Fixpoint/App"], sim_cap=60.0,
        analyzers={"Fixpoint/App": CorruptedAnalyzer(plain, factor=0.5)},
        check_envelopes=False,
    )
    assert any(v.kind == "hop_upper" for v in corrupted.violations)


def test_verify_trace_accepts_legal_periodic_trace():
    arr = PeriodicArrivals(3.0)
    env = envelope_of(arr, horizon=200.0)
    assert verify_trace_in_envelope(arr.release_times(90.0), env) is None


def test_verify_trace_rejects_overdense_trace():
    env = envelope_of(PeriodicArrivals(3.0), horizon=200.0)
    problem = verify_trace_in_envelope([0.0, 0.5, 1.0], env)
    assert problem is not None
    assert "releases in window" in problem


def test_verify_trace_bursty_allows_burst_rejects_overflow():
    arr = BurstyArrivals(0.5)  # Eq. 27 burst relaxing toward period 1/x = 2
    env = envelope_of(arr, horizon=200.0)
    assert verify_trace_in_envelope(arr.release_times(40.0), env) is None
    dense = np.arange(0.0, 10.0, 0.1)  # far above the asymptotic rate
    assert verify_trace_in_envelope(dense, env) is not None


def test_corrupted_bound_is_flagged():
    from repro.audit import CorruptedAnalyzer

    system = _two_job_system()
    method = "SPP/Exact"
    analyzer = CorruptedAnalyzer(make_audit_analyzer(method), factor=0.5)
    out = cross_validate(
        system, methods=(method,), analyzers={method: analyzer}, sim_cap=60.0
    )
    kinds = {v.kind for v in out.violations}
    assert "response_bound" in kinds
    assert all(v.method == method for v in out.violations if v.kind != "envelope")


def test_sim_cap_limits_work_without_false_positives():
    out = cross_validate(_two_job_system(), sim_cap=20.0)
    assert out.ok
