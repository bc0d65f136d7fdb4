"""Batch engine ``--audit`` mode: JSONL schema and violation reporting."""

import json

from repro.analysis import AnalysisOptions
from repro.audit import (
    CorruptedAnalyzer,
    Violation,
    checks,
    cross_validate,
    make_audit_analyzer,
)
from repro.batch import BatchEngine, BatchItem
from repro.model import (
    JobSet,
    Job,
    PeriodicArrivals,
    System,
    assign_priorities_proportional_deadline,
)


def _system():
    jobs = [
        Job.build(
            "A", [("P1", 1.0), ("P2", 0.5)], PeriodicArrivals(4.0), deadline=8.0
        ),
        Job.build(
            "B", [("P1", 1.2), ("P2", 1.0)], PeriodicArrivals(6.0), deadline=12.0
        ),
    ]
    assign_priorities_proportional_deadline(JobSet(jobs))
    return System(jobs, policies="spp")


def test_audited_item_carries_violation_field():
    engine = BatchEngine(audit=True)
    report = engine.run([BatchItem(_system(), method="SPP/App", item_id="a")])
    rec = report[0]
    assert rec.ok
    assert rec.audited
    assert rec.violations == []  # sound analysis, clean system
    assert report.n_violations == 0


def test_audited_item_is_analyzed_once_with_its_options(monkeypatch):
    from repro.obs.trace import tracing

    seen = []
    clean = checks.make_audit_analyzer

    def spy(method, horizon=None, options=None):
        seen.append(options)
        return clean(method, horizon, options=options)

    monkeypatch.setattr(checks, "make_audit_analyzer", spy)
    opts = AnalysisOptions(compact_budget=16)
    items = [
        BatchItem(_system(), method="SPNP/App", item_id="a", options=opts),
        BatchItem(_system(), method="SPP/App", item_id="b"),
    ]
    with tracing() as collector:
        report = BatchEngine(audit=True).run(items)
    assert [(r.ok, r.violations) for r in report] == [(True, []), (True, [])]
    # The result the record carries is the one that was checked.
    assert sum(1 for span in collector.spans if span.name == "analyze") == 2
    assert seen == [opts, None]


def test_unaudited_record_schema_is_unchanged():
    report = BatchEngine().run([BatchItem(_system(), method="SPP/App")])
    data = report[0].to_dict()
    assert "violations" not in data
    assert not report[0].audited


def test_audited_record_round_trips_jsonl():
    engine = BatchEngine(audit=True)
    report = engine.run(
        [
            BatchItem(_system(), method="SPP/App", item_id="x"),
            BatchItem(_system(), method="SPNP/App", item_id="y"),
        ]
    )
    lines = [json.dumps(r.to_dict(), allow_nan=False) for r in report]
    for line, method in zip(lines, ["SPP/App", "SPNP/App"]):
        back = json.loads(line)
        assert back["method"] == method
        assert back["status"] == "ok"
        assert back["violations"] == []
        # Violation records themselves survive a JSONL round trip.
        for v in back["violations"]:
            Violation.from_dict(v)


def test_failed_item_is_not_audited():
    jobs = [Job.build("A", [("P1", 1.0)], PeriodicArrivals(4.0), deadline=8.0)]
    system = System(jobs, policies="fcfs")
    report = BatchEngine(audit=True).run(
        [BatchItem(system, method="SPP/Exact")]  # FCFS rejected by SPP/Exact
    )
    rec = report[0]
    assert rec.status == "error"
    assert not rec.audited
    assert "violations" not in rec.to_dict()


def test_corrupted_analyzer_injection_is_reliably_flagged():
    # The batch audit path and the direct cross_validate path share the
    # checker; corrupting a method's bounds must always be flagged.
    system = _system()
    method = "SPP/Exact"
    for factor in (0.3, 0.5, 0.8):
        analyzer = CorruptedAnalyzer(make_audit_analyzer(method), factor=factor)
        out = cross_validate(
            system, methods=(method,), analyzers={method: analyzer}, sim_cap=60.0
        )
        assert out.violations, f"factor {factor} not flagged"
        record = out.violations[0].to_dict()
        back = Violation.from_dict(json.loads(json.dumps(record)))
        assert back.kind == record["kind"]
