"""Pool-supervision tests: crashes, quarantine, bounded restarts.

These run real worker processes and therefore require the ``fork`` start
method (same gating as the engine's own crash tests).
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.analysis.admission import METHODS
from repro.batch import (
    STATUS_CRASH,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_TIMEOUT,
    BatchEngine,
    BatchItem,
    RetryPolicy,
)
from repro.batch import engine
from repro.model import (
    Job,
    JobSet,
    PeriodicArrivals,
    System,
    assign_priorities_proportional_deadline,
)

IS_FORK = multiprocessing.get_start_method() == "fork"

pytestmark = pytest.mark.skipif(
    not IS_FORK, reason="crash isolation requires the fork start method"
)


def small_system(period=5.0, wcet=1.0, deadline=10.0):
    jobs = [
        Job.build("a", [("cpu", wcet)], PeriodicArrivals(period), deadline),
        Job.build("b", [("cpu", 2 * wcet)], PeriodicArrivals(1.2 * period), deadline),
    ]
    sys_ = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(sys_)
    return sys_


class _Bomb:
    """Pickles fine in the parent, kills the process that unpickles it."""

    def __reduce__(self):
        return (os._exit, (13,))


class TestCrashWithoutPolicy:
    def test_crash_record_carries_partial_metrics(self):
        """A SIGKILLed worker mid-chunk yields a crash record with a
        measured wall time while its chunk-mates complete normally."""
        items = [
            BatchItem(small_system(wcet=0.9), item_id="ok1"),
            BatchItem(system=_Bomb(), item_id="bomb"),
            BatchItem(small_system(wcet=1.1), item_id="ok2"),
        ]
        report = BatchEngine(n_workers=2, chunksize=3).run(items)
        by_id = {r.item_id: r for r in report}
        assert by_id["bomb"].status == STATUS_CRASH
        assert by_id["bomb"].wall_time > 0.0  # the retry that died was timed
        assert by_id["ok1"].status == STATUS_OK
        assert by_id["ok2"].status == STATUS_OK
        assert by_id["ok1"].result is not None


class TestCrashWithPolicy:
    def test_poison_item_quarantined_after_two_pool_kills(self):
        """An item that crashes two fresh dedicated pools is quarantined
        -- not retried a third time -- and healthy items still complete."""
        items = [
            BatchItem(small_system(wcet=0.9), item_id="ok1"),
            BatchItem(system=_Bomb(), item_id="bomb"),
            BatchItem(small_system(wcet=1.1), item_id="ok2"),
        ]
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, degrade=False)
        report = BatchEngine(n_workers=2, chunksize=3, retry=policy).run(items)
        by_id = {r.item_id: r for r in report}
        bomb = by_id["bomb"]
        assert bomb.status == STATUS_QUARANTINED
        # Exactly two dedicated pools were sacrificed, then we stopped.
        assert len(bomb.attempts) == 2
        assert all(a["status"] == "crash" for a in bomb.attempts)
        assert bomb.quarantine is not None
        assert bomb.quarantine["reason"].startswith("killed 2 dedicated pools")
        assert by_id["ok1"].status == STATUS_OK
        assert by_id["ok2"].status == STATUS_OK
        assert report.n_quarantined == 1

    def test_quarantine_record_is_json_ready(self):
        items = [BatchItem(system=_Bomb(), item_id="bomb")]
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, degrade=False)
        # n_workers=2 with a single item falls to the serial path, which
        # cannot crash-isolate; force the pool with a filler item.
        items.append(BatchItem(small_system(), item_id="filler"))
        report = BatchEngine(n_workers=2, chunksize=2, retry=policy).run(items)
        bomb = next(r for r in report if r.item_id == "bomb")
        payload = json.loads(json.dumps(bomb.to_dict(), allow_nan=False))
        assert payload["status"] == "quarantined"
        assert payload["quarantine"]["kind"] == "repro.batch.quarantine"

    def test_restart_budget_bounds_pool_rebuilds(self, monkeypatch):
        """With the restart budget at 0, the first pool death spends it
        and every remaining suspect is finalized without a new pool."""
        monkeypatch.setattr(engine, "MAX_POOL_RESTARTS", 0)
        items = [
            BatchItem(system=_Bomb(), item_id=f"b{i}") for i in range(3)
        ] + [BatchItem(small_system(), item_id="ok")]
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, degrade=False)
        report = BatchEngine(n_workers=2, chunksize=4, retry=policy).run(items)
        by_id = {r.item_id: r for r in report}
        assert len(report) == 4
        statuses = {by_id[f"b{i}"].status for i in range(3)}
        assert statuses <= {STATUS_CRASH, STATUS_QUARANTINED}
        # At least the tail of the queue was cut off by the budget.
        assert any(
            "restart budget" in (by_id[f"b{i}"].error or "") for i in range(3)
        )


class _SleepyAnalysis:
    """Fake analyzer whose analysis outlives the item timeout."""

    name = "Sleepy"
    policy = None

    def __init__(self, horizon=None, options=None):
        pass

    def analyze(self, system):
        time.sleep(30.0)
        raise AssertionError("the item timeout should have fired")


class TestFinalStatusIgnoresChunkMates:
    """With no retry budget left, a timeout is reported as a timeout --
    whether the item ran in process, on the pool, or alone after a
    chunk-mate killed the worker they shared."""

    @pytest.mark.parametrize("way", ["in_process", "pool", "chunk_mate_crash"])
    def test_timeout_is_not_quarantined(self, way, monkeypatch):
        monkeypatch.setitem(METHODS, "Sleepy", _SleepyAnalysis)
        slow = BatchItem(small_system(), method="Sleepy", item_id="slow")
        mate = {
            "in_process": [],
            "pool": [BatchItem(small_system(), item_id="filler")],
            "chunk_mate_crash": [BatchItem(system=_Bomb(), item_id="bomb")],
        }[way]
        engine = BatchEngine(
            n_workers=2 if mate else None,
            chunksize=2,
            timeout=0.2,
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
        )
        report = engine.run([slow] + mate)
        assert report.n_workers == (2 if mate else 0)
        rec = report[0]
        assert rec.status == STATUS_TIMEOUT, rec.error
        assert rec.quarantine is None and rec.attempts == []


class TestGoldenDefaultSchema:
    """The default engine's record schema is pinned: no robustness keys
    may appear on an ordinary run (byte-compatibility guarantee)."""

    GOLDEN_KEYS = [
        "id",
        "method",
        "status",
        "schedulable",
        "error",
        "wall_time",
        "rounds",
        "cache_hits",
        "cache_misses",
        "result",
    ]

    def test_default_record_keys_exactly(self):
        report = BatchEngine().run([BatchItem(small_system(), item_id="x")])
        assert list(report[0].to_dict().keys()) == self.GOLDEN_KEYS

    def test_default_summary_has_no_robustness_extras(self):
        report = BatchEngine().run([BatchItem(small_system())])
        summary = report.summary()
        for marker in ("resumed=", "retried=", "degraded="):
            assert marker not in summary
