"""Tests for retry/backoff/quarantine/degradation (repro.batch.retry)."""

import multiprocessing
import time

import pytest

from repro.analysis.admission import METHODS
from repro.analysis.options import AnalysisOptions
from repro.batch import (
    STATUS_OK,
    STATUS_QUARANTINED,
    BatchEngine,
    BatchItem,
    RetryPolicy,
    degradation_rungs,
)
from repro.batch import retry
from repro.batch.retry import (
    DEGRADED_BUDGET,
    escalate_rung,
    quarantine_payload,
)
from repro.chaos import ChaosInjector, normalize_record
from repro.curves.compact import MIN_BUDGET
from repro.model import (
    Job,
    JobSet,
    PeriodicArrivals,
    System,
    assign_priorities_proportional_deadline,
)
from repro.model.io import system_from_dict, system_to_dict


IS_FORK = multiprocessing.get_start_method() == "fork"

#: ``n_workers`` for the in-process executor and for the pool.
EXECUTORS = [
    None,
    pytest.param(
        2,
        marks=pytest.mark.skipif(
            not IS_FORK, reason="pool tests assume fork start method"
        ),
    ),
]


def small_system(period=5.0, wcet=1.0, deadline=10.0):
    jobs = [
        Job.build("a", [("cpu", wcet)], PeriodicArrivals(period), deadline),
        Job.build("b", [("cpu", 2 * wcet)], PeriodicArrivals(1.2 * period), deadline),
    ]
    sys_ = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(sys_)
    return sys_


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_transient_classification(self):
        p = RetryPolicy()
        assert p.is_transient("timeout")
        assert p.is_transient("crash")
        assert not p.is_transient("ok")
        assert not p.is_transient("error", "ValueError: bad model")
        assert p.is_transient("error", "OSError: disk went away")
        assert p.is_transient("error", "ChaosTransientError: injected")

    def test_should_retry_bounds_attempts(self):
        p = RetryPolicy(max_attempts=3)
        assert p.should_retry(1, "timeout")
        assert p.should_retry(2, "timeout")
        assert not p.should_retry(3, "timeout")
        assert not p.should_retry(1, "error", "ValueError: nope")

    def test_delay_grows_and_caps(self, monkeypatch):
        monkeypatch.setattr(retry, "JITTER", 0.0)
        monkeypatch.setattr(retry, "MAX_DELAY", 2.0)
        p = RetryPolicy(base_delay=0.5)
        assert p.delay(1) == pytest.approx(0.5)
        assert p.delay(2) == pytest.approx(1.0)
        assert p.delay(3) == pytest.approx(2.0)
        assert p.delay(10) == pytest.approx(2.0)

    def test_delay_jitter_is_deterministic_and_bounded(self, monkeypatch):
        monkeypatch.setattr(retry, "JITTER", 0.2)
        monkeypatch.setattr(retry, "MAX_DELAY", 100.0)
        p = RetryPolicy(base_delay=1.0)
        d1, d2 = p.delay(1, key="item-a"), p.delay(1, key="item-a")
        assert d1 == d2
        assert 0.8 <= d1 <= 1.2
        assert p.delay(1, key="item-b") != d1
        monkeypatch.setattr(retry, "JITTER_SEED", 1)
        assert p.delay(1, key="item-a") != d1

    def test_zero_base_delay_never_sleeps(self):
        assert RetryPolicy(base_delay=0.0).delay(5, key="x") == 0.0


class TestDegradationLadder:
    def test_default_ladder(self):
        rungs = degradation_rungs(None)
        assert rungs[0] is None
        assert rungs[1].compact_max_error is None
        assert rungs[1].compact_budget == DEGRADED_BUDGET
        assert len(rungs) == 2

    def test_budget_is_halved(self):
        base = AnalysisOptions(compact_budget=256)
        rungs = degradation_rungs(base)
        assert rungs[1].compact_budget == 128

    def test_budget_floor(self):
        base = AnalysisOptions(compact_budget=MIN_BUDGET)
        rungs = degradation_rungs(base)
        # Already at the floor: nothing cheaper to fall back to.
        assert rungs == [base]

    def test_escalation(self):
        # First failure repeats the rung; later ones step down.
        assert escalate_rung(0, 3, 1) == 0
        assert escalate_rung(0, 3, 2) == 1
        assert escalate_rung(1, 3, 3) == 2
        assert escalate_rung(2, 3, 5) == 2  # clamped
        assert escalate_rung(0, 1, 4) == 0  # no ladder


class TestQuarantinePayload:
    def test_payload_reproduces_the_item(self):
        sys_ = small_system()
        payload = quarantine_payload(
            sys_, "SPP/Exact", None, None, [{"attempt": 1}], "kept crashing"
        )
        assert payload["kind"] == "repro.batch.quarantine"
        assert payload["reason"] == "kept crashing"
        rebuilt = system_from_dict(payload["system"])
        assert system_to_dict(rebuilt) == system_to_dict(sys_)

    def test_unserializable_system_does_not_raise(self):
        payload = quarantine_payload(
            object(), "SPP/Exact", None, None, [], "poison"
        )
        assert "unserializable" in payload["system"]


# ----------------------------------------------------------------------
# engine integration (serial path; the pool path is covered by the
# crash-isolation tests)
# ----------------------------------------------------------------------

_FLAKY_CALLS = {"n": 0}


class _FlakyAnalysis:
    """Fails transiently (OSError) until the third call, then succeeds."""

    name = "Flaky"
    policy = None

    def __init__(self, horizon=None, options=None):
        self.horizon = horizon
        self.options = options

    def analyze(self, system):
        _FLAKY_CALLS["n"] += 1
        if _FLAKY_CALLS["n"] < 3:
            raise OSError("transient wobble")
        return METHODS["SPP/Exact"](self.horizon, options=self.options).analyze(
            system
        )


class _AlwaysDown:
    """Every call fails with a transient error."""

    name = "Down"
    policy = None

    def __init__(self, horizon=None, options=None):
        self.horizon = horizon
        self.options = options

    def analyze(self, system):
        raise OSError("still down")


class TestEngineRetry:
    def test_transient_error_retried_to_success(self, monkeypatch):
        monkeypatch.setitem(METHODS, "Flaky", _FlakyAnalysis)
        _FLAKY_CALLS["n"] = 0
        engine = BatchEngine(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, degrade=False)
        )
        report = engine.run([BatchItem(small_system(), method="Flaky")])
        rec = report[0]
        assert rec.status == STATUS_OK
        assert len(rec.attempts) == 3
        assert [a["status"] for a in rec.attempts] == ["error", "error", "ok"]
        assert _FLAKY_CALLS["n"] == 3
        assert "attempts" in rec.to_dict()

    def test_exhausted_transient_is_quarantined(self, monkeypatch):
        monkeypatch.setitem(METHODS, "Down", _AlwaysDown)
        engine = BatchEngine(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, degrade=False)
        )
        report = engine.run([BatchItem(small_system(), method="Down")])
        rec = report[0]
        assert rec.status == STATUS_QUARANTINED
        assert len(rec.attempts) == 2
        assert rec.quarantine is not None
        assert rec.quarantine["kind"] == "repro.batch.quarantine"
        assert report.n_quarantined == 1
        payload = rec.to_dict()
        assert payload["status"] == "quarantined"
        assert payload["quarantine"]["attempts"] == rec.attempts

    def test_deterministic_error_not_retried(self, monkeypatch):
        calls = {"n": 0}

        class _Broken:
            name = "Broken"
            policy = None

            def __init__(self, horizon=None, options=None):
                pass

            def analyze(self, system):
                calls["n"] += 1
                raise ValueError("model rejected")

        monkeypatch.setitem(METHODS, "Broken", _Broken)
        engine = BatchEngine(retry=RetryPolicy(max_attempts=3, base_delay=0.0))
        report = engine.run([BatchItem(small_system(), method="Broken")])
        assert report[0].status == "error"
        assert calls["n"] == 1
        assert report[0].attempts == []

    def test_no_policy_means_no_retry(self, monkeypatch):
        monkeypatch.setitem(METHODS, "Down", _AlwaysDown)
        report = BatchEngine().run([BatchItem(small_system(), method="Down")])
        assert report[0].status == "error"
        assert report[0].attempts == []


class TestEngineRetryOnBothExecutors:
    """The same transient faults, in process and on the pool.

    ``ChaosInjector`` draws its faults from ``(seed, item, attempt)``, so
    they fire alike in a worker and in this process; each run has two
    items, because a single pending item never uses the pool.
    """

    ITEMS = [BatchItem(small_system(5.0 + i), item_id=f"i{i}") for i in range(2)]

    @pytest.mark.parametrize("n_workers", EXECUTORS)
    def test_transient_error_retried_to_success(self, n_workers):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, degrade=False)
        report = BatchEngine(
            n_workers=n_workers,
            retry=policy,
            fault_injector=ChaosInjector(seed=1, error_rate=1.0, max_attempt=1),
        ).run(self.ITEMS)
        assert report.n_workers == (n_workers or 0)
        for rec in report:
            assert rec.status == STATUS_OK
            assert [a["status"] for a in rec.attempts] == ["error", "ok"]
        clean = BatchEngine(retry=policy).run(self.ITEMS)
        assert [normalize_record(r.to_dict()) for r in report] == [
            normalize_record(r.to_dict()) for r in clean
        ]

    @pytest.mark.parametrize("n_workers", EXECUTORS)
    def test_exhausted_transient_is_quarantined(self, n_workers):
        report = BatchEngine(
            n_workers=n_workers,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, degrade=False),
            fault_injector=ChaosInjector(seed=1, error_rate=1.0, max_attempt=99),
        ).run(self.ITEMS)
        assert report.n_quarantined == 2
        for rec in report:
            assert rec.status == STATUS_QUARANTINED
            assert [a["status"] for a in rec.attempts] == ["error", "error"]
            assert rec.quarantine["reason"] == (
                "transient 'error' persisted through 2 attempts"
            )


class _SlowUnlessCompacted:
    """Outlives the item timeout unless compaction is on, as a large
    exact analysis does; with a compaction budget it analyzes normally."""

    name = "SlowUnlessCompacted"
    policy = None

    def __init__(self, horizon=None, options=None):
        self.horizon = horizon
        self.options = options

    def analyze(self, system):
        if self.options is None or self.options.compact_budget is None:
            time.sleep(30.0)
        return METHODS["SPP/Exact"](self.horizon, options=self.options).analyze(
            system
        )


class TestDegradationLadderRescues:
    """Rung 1 of the ladder rescues an item that is too slow on rung 0."""

    @pytest.mark.parametrize("n_workers", EXECUTORS)
    @pytest.mark.parametrize("degrade", [True, False])
    def test_slow_item(self, monkeypatch, n_workers, degrade):
        monkeypatch.setitem(METHODS, "SlowUnlessCompacted", _SlowUnlessCompacted)
        items = [
            BatchItem(small_system(), method="SlowUnlessCompacted", item_id="slow"),
            BatchItem(small_system(7.0), item_id="filler"),
        ]
        report = BatchEngine(
            n_workers=n_workers,
            timeout=0.2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, degrade=degrade),
        ).run(items)
        assert report.n_workers == (n_workers or 0)
        slow = report[0]
        assert report[1].status == STATUS_OK
        if not degrade:
            assert slow.status == STATUS_QUARANTINED
            return
        assert slow.status == STATUS_OK
        assert slow.degraded and slow.rung == 1
        assert [(a["status"], a["rung"]) for a in slow.attempts] == [
            ("timeout", 0),
            ("timeout", 0),
            ("ok", 1),
        ]
