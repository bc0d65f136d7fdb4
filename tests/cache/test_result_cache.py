"""Tests for whole-result persistent caching through the batch engine."""

import json
import os

import pytest

from repro.analysis import AnalysisOptions
from repro.batch import BatchEngine, BatchItem
from repro.batch.journal import BatchJournal
from repro.cache import DiskCacheStore, ResultCache, result_key
from repro.chaos import generate_campaign
from repro.model.io import system_from_dict


def _items(n=6, seed=11, options=None):
    return [
        BatchItem(system=system_from_dict(entry["system"]),
                  item_id=entry["id"], options=options)
        for entry in generate_campaign(n, seed=seed)
    ]


def _lines(report):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in report]


class TestResultKey:
    def test_every_context_axis_changes_the_key(self):
        base = result_key("d1", audit=False, code_version="1.0")
        assert result_key("d2", audit=False, code_version="1.0") != base
        assert result_key("d1", audit=True, code_version="1.0") != base
        assert result_key("d1", audit=False, convergence=True,
                          code_version="1.0") != base
        assert result_key("d1", audit=False, code_version="1.1") != base

    def test_default_version_is_current_code(self):
        from repro import __version__

        assert result_key("d", audit=False) == result_key(
            "d", audit=False, code_version=__version__
        )


class TestWarmRun:
    def test_warm_rerun_is_fully_cached_and_byte_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = BatchEngine(cache_dir=cache_dir).run(_items())
        warm = BatchEngine(cache_dir=cache_dir).run(_items())
        assert cold.n_cached == 0
        assert warm.n_cached == len(warm) == 6
        assert _lines(warm) == _lines(cold)
        assert "cached=6" in warm.summary()

    def test_only_the_edited_item_recomputes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        BatchEngine(cache_dir=cache_dir).run(_items())
        edited = _items()
        entry = generate_campaign(6, seed=11)[2]["system"]
        entry["jobs"][0]["route"][0][1] *= 1.01
        edited[2] = BatchItem(system=system_from_dict(entry),
                              item_id=edited[2].item_id)
        warm = BatchEngine(cache_dir=cache_dir).run(edited)
        assert warm.n_cached == 5
        assert [r.item_id for r in warm if not r.cached] == [
            edited[2].item_id
        ]

    def test_audit_flip_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        BatchEngine(cache_dir=cache_dir).run(_items(n=3))
        audited = BatchEngine(cache_dir=cache_dir, audit=True).run(_items(n=3))
        assert audited.n_cached == 0
        assert all(r.audited for r in audited)

    def test_options_flip_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        BatchEngine(cache_dir=cache_dir).run(_items(n=3))
        strict = BatchEngine(cache_dir=cache_dir).run(
            _items(n=3, options=AnalysisOptions(compact_budget=64))
        )
        assert strict.n_cached == 0

    def test_convergence_flip_misses_both_ways(self, tmp_path):
        # The item digest drops the telemetry-only convergence flag, but
        # the flag adds a ``convergence`` block to every record, so a
        # record must never be served across a flip in either direction.
        def run(cache_dir, convergence):
            options = AnalysisOptions(compact_budget=64, convergence=convergence)
            items = [
                BatchItem(system=it.system, method="Fixpoint/App",
                          item_id=it.item_id, options=options)
                for it in _items(n=3)
            ]
            return BatchEngine(cache_dir=cache_dir).run(items)

        for first, second in ((True, False), (False, True)):
            cache_dir = str(tmp_path / f"cache-{first}")
            cold = run(cache_dir, first)
            assert cold.n_ok == len(cold) == 3
            flipped = run(cache_dir, second)
            assert flipped.n_cached == 0
            for record in flipped:
                assert ("convergence" in record.to_dict()["result"]) == second
            assert run(cache_dir, second).n_cached == 3

    def test_code_version_flip_misses(self, tmp_path, monkeypatch):
        import repro

        cache_dir = str(tmp_path / "cache")
        BatchEngine(cache_dir=cache_dir).run(_items(n=3))
        monkeypatch.setattr(repro, "__version__", "0.0.0-other")
        warm = BatchEngine(cache_dir=cache_dir).run(_items(n=3))
        assert warm.n_cached == 0

    def test_cache_size_knob_does_not_change_the_key(self, tmp_path):
        # The curve-cache capacity is a performance knob: it can never
        # change the analysis outcome, so it must not enter the key.
        cache_dir = str(tmp_path / "cache")
        BatchEngine(cache_dir=cache_dir).run(_items(n=3))
        warm = BatchEngine(cache_dir=cache_dir, cache_size=7).run(_items(n=3))
        assert warm.n_cached == 3

    def test_options_without_compaction_share_the_key(self, tmp_path):
        # AnalysisOptions() gives the bounds of no options bit for bit,
        # so a run with it reads what a plain run stored.
        cache_dir = str(tmp_path / "cache")
        BatchEngine(cache_dir=cache_dir).run(_items(n=3))
        warm = BatchEngine(cache_dir=cache_dir).run(
            _items(n=3, options=AnalysisOptions())
        )
        assert warm.n_cached == 3


class TestOneTier:
    @pytest.mark.parametrize("n_workers", [0, 2], ids=["in-process", "pool"])
    def test_cache_dir_holds_only_result_entries(self, tmp_path, n_workers):
        cache_dir = str(tmp_path / "cache")
        cold = BatchEngine(n_workers=n_workers, cache_dir=cache_dir).run(
            _items(n=4)
        )
        assert cold.n_ok == 4
        assert os.listdir(cache_dir) == ["results"]
        for record in cold:
            stats = record.to_dict()["result"]["cache"]
            assert "disk_hits" not in stats and "disk_misses" not in stats


class TestServedRecordsAreCopies:
    """Served records are handed out as copies; the stored one stays put."""

    @staticmethod
    def _mutate(payload):
        payload["id"] = "mutated"
        payload["result"]["schedulable"] = "mutated"
        payload["result"]["jobs"].clear()

    def _check(self, record, wal):
        expected = record.to_dict()
        self._mutate(record.to_dict())
        assert record.to_dict() == expected
        _header, entries, _good, _total = BatchJournal.scan(wal)
        journaled = {e["index"]: e["record"] for e in entries}
        assert journaled[record.index] == expected

    def test_cached_record(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        BatchEngine(cache_dir=cache_dir).run(_items(n=2))
        wal = str(tmp_path / "warm.wal")
        warm = BatchEngine(cache_dir=cache_dir, journal=wal).run(_items(n=2))
        assert warm.n_cached == 2
        for record in warm:
            self._check(record, wal)

    def test_resumed_record(self, tmp_path):
        wal = str(tmp_path / "campaign.wal")
        BatchEngine(journal=wal).run(_items(n=2))
        resumed = BatchEngine(journal=wal, resume=True).run(_items(n=2))
        assert resumed.n_resumed == 2
        for record in resumed:
            self._check(record, wal)


class TestTracedPool:
    def test_traced_pool_run_fills_the_result_tier(self, tmp_path):
        from repro.obs import observe

        cache_dir = str(tmp_path / "cache")
        items = _items(n=4)
        with observe(force_trace=True, force_metrics=True):
            traced = BatchEngine(n_workers=2, cache_dir=cache_dir).run(items)
        assert all(r.trace is not None and r.metrics is not None for r in traced)
        warm = BatchEngine(n_workers=2, cache_dir=cache_dir).run(_items(n=4))
        assert warm.n_cached == len(warm) == 4
        for a, b in zip(traced, warm):
            expected = a.to_dict()
            expected.pop("trace")
            expected.pop("metrics")
            assert b.to_dict() == expected


class TestCorruption:
    def test_tampered_entries_recompute_never_propagate(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = BatchEngine(cache_dir=cache_dir).run(_items())
        results_root = os.path.join(cache_dir, "results")
        n_tampered = 0
        for dirpath, _dirs, files in os.walk(results_root):
            for name in files:
                with open(os.path.join(dirpath, name), "r+b") as fh:
                    raw = fh.read()
                    fh.seek(len(raw) // 2)
                    fh.write(bytes(b ^ 0xA5 for b in raw[len(raw) // 2:][:3]))
                n_tampered += 1
        assert n_tampered == 6
        warm = BatchEngine(cache_dir=cache_dir).run(_items())
        assert warm.n_cached == 0  # every entry failed verification
        assert warm.n_ok == len(warm)
        for a, b in zip(cold, warm):
            da, db = a.to_dict(), b.to_dict()
            for payload in (da, db):
                # Timing and memo-counter telemetry legitimately differ
                # between a cold and a recomputed run; the analysis
                # payload itself must not.
                payload.pop("wall_time")
                payload.pop("cache_hits")
                payload.pop("cache_misses")
                payload["result"].pop("cache", None)
            assert da == db


class TestDefaults:
    def test_no_cache_dir_leaves_records_unchanged(self):
        report = BatchEngine().run(_items(n=2))
        for record in report:
            assert not record.cached
            payload = record.to_dict()
            assert "cached" not in payload
            assert "disk_hits" not in payload["result"]["cache"]

    def test_failed_items_are_not_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        items = [
            BatchItem(system=_items(n=1)[0].system, method="No/Such",
                      item_id="bad")
        ]
        BatchEngine(cache_dir=cache_dir).run(items)
        assert not os.path.isdir(os.path.join(cache_dir, "results"))
        rerun = BatchEngine(cache_dir=cache_dir).run(items)
        assert rerun.n_cached == 0


class TestVerbatim:
    def test_cached_record_is_the_stored_bytes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        items = _items(n=1)
        cold = BatchEngine(cache_dir=cache_dir).run(items)
        store = DiskCacheStore(cache_dir)
        digest_dirs = os.listdir(os.path.join(cache_dir, "results"))
        assert len(digest_dirs) == 1
        cache = ResultCache(store)
        fan = os.path.join(cache_dir, "results", digest_dirs[0])
        key = os.listdir(fan)[0][: -len(".json")]
        assert cache.get(key) == cold[0].to_dict()
