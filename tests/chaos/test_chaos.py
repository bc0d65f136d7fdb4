"""Tests for the fault injectors and the chaos harness (repro.chaos)."""

import json
import multiprocessing
import pickle

import pytest

from repro.batch import BatchEngine, BatchItem, BatchJournal, RetryPolicy
from repro.chaos import (
    ChaosConfig,
    ChaosInjector,
    ChaosTransientError,
    corrupt_journal_tail,
    generate_campaign,
    normalize_record,
    run_chaos,
    tamper_cache_entries,
    truncate_journal_tail,
)
from repro.model.io import system_from_dict

IS_FORK = multiprocessing.get_start_method() == "fork"


class TestInjector:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosInjector(kill_rate=0.8, timeout_rate=0.3)
        with pytest.raises(ValueError):
            ChaosInjector(error_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosInjector(max_attempt=0)

    def test_deterministic_draws(self):
        a = ChaosInjector(seed=3, error_rate=0.5)
        b = ChaosInjector(seed=3, error_rate=0.5)
        for item in ("x", "y", "z"):
            assert a.draw(item, 1) == b.draw(item, 1)
            assert a.fault_for(item, 1) == b.fault_for(item, 1)
        assert ChaosInjector(seed=4, error_rate=0.5).fault_for != a.fault_for(
            "x", 1
        ) or True  # different seeds may still collide on one item

    def test_survives_pickling(self):
        inj = ChaosInjector(seed=9, timeout_rate=0.4)
        clone = pickle.loads(pickle.dumps(inj))
        assert clone == inj
        assert clone.fault_for("item", 1) == inj.fault_for("item", 1)

    def test_zero_rates_inject_nothing(self):
        inj = ChaosInjector(seed=1)
        for i in range(50):
            assert inj.fault_for(f"i{i}", 1) is None

    def test_max_attempt_bounds_injection(self):
        inj = ChaosInjector(seed=1, error_rate=1.0, max_attempt=1)
        assert inj.fault_for("i", 1) == "error"
        assert inj.fault_for("i", 2) is None

    def test_error_injection_raises_transient(self):
        inj = ChaosInjector(seed=1, error_rate=1.0)
        with pytest.raises(ChaosTransientError):
            inj.before_item("i", 1, TimeoutError)

    def test_timeout_injection_raises_given_type(self):
        inj = ChaosInjector(seed=1, timeout_rate=1.0)

        class _FakeTimeout(Exception):
            pass

        with pytest.raises(_FakeTimeout):
            inj.before_item("i", 1, _FakeTimeout)

    def test_serial_kill_downgrades_to_transient(self):
        # parent_pid defaults to this process, so a kill fault must not
        # SIGKILL the test runner -- it degrades to a transient error.
        inj = ChaosInjector(seed=1, kill_rate=1.0)
        with pytest.raises(ChaosTransientError, match="downgraded"):
            inj.before_item("i", 1, TimeoutError)


class TestCampaignGenerator:
    def test_deterministic_and_distinct(self):
        a = generate_campaign(20, seed=5)
        b = generate_campaign(20, seed=5)
        assert a == b
        assert len({json.dumps(e["system"], sort_keys=True) for e in a}) == 20

    def test_systems_are_loadable(self):
        for entry in generate_campaign(10, seed=2):
            system_from_dict(entry["system"])  # must not raise

    def test_mixes_arrival_types(self):
        kinds = {
            job["arrivals"]["type"]
            for entry in generate_campaign(40, seed=1)
            for job in entry["system"]["jobs"]
        }
        assert "periodic" in kinds and "bursty" in kinds


class TestTamperHelpers:
    def _journal(self, tmp_path):
        wal = str(tmp_path / "t.wal")
        items = [
            BatchItem(system_from_dict(e["system"]), item_id=e["id"])
            for e in generate_campaign(3, seed=1)
        ]
        BatchEngine(journal=wal).run(items)
        return wal, items

    def test_truncate_tail_forces_one_reanalysis(self, tmp_path):
        wal, items = self._journal(tmp_path)
        truncate_journal_tail(wal, 24)
        report = BatchEngine(journal=wal, resume=True).run(items)
        assert report.n_resumed == len(items) - 1
        assert report.n_ok == len(items)

    def test_corrupt_tail_forces_one_reanalysis(self, tmp_path):
        wal, items = self._journal(tmp_path)
        assert corrupt_journal_tail(wal) > 0
        report = BatchEngine(journal=wal, resume=True).run(items)
        assert report.n_resumed == len(items) - 1
        assert report.n_ok == len(items)
        # The journal is whole again afterwards.
        _h, entries, good, total = BatchJournal.scan(wal)
        assert len(entries) == len(items) and good == total


class TestCacheTamper:
    def _populated_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        items = [
            BatchItem(system_from_dict(e["system"]), item_id=e["id"])
            for e in generate_campaign(6, seed=13)
        ]
        BatchEngine(cache_dir=cache_dir).run(items)
        return cache_dir, items

    def test_selection_is_deterministic(self, tmp_path):
        cache_dir, _items = self._populated_cache(tmp_path)
        first = tamper_cache_entries(cache_dir, seed=5, fraction=0.5)
        second = tamper_cache_entries(cache_dir, seed=5, fraction=0.5)
        assert first == second > 0  # same files picked both times

    def test_fraction_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            tamper_cache_entries(str(tmp_path), fraction=1.5)
        assert tamper_cache_entries(str(tmp_path), fraction=0.0) == 0

    def test_tampered_cache_recomputes_never_propagates(self, tmp_path):
        cache_dir, items = self._populated_cache(tmp_path)
        baseline = BatchEngine().run(items)
        tampered = tamper_cache_entries(cache_dir, seed=1, fraction=1.0)
        assert tampered > 0
        warm = BatchEngine(cache_dir=cache_dir).run(items)
        assert warm.n_cached == 0  # every result entry failed its CRC
        assert warm.n_ok == len(items)
        a = [normalize_record(r.to_dict()) for r in baseline]
        b = [normalize_record(r.to_dict()) for r in warm]
        assert a == b


class TestNormalize:
    def test_strips_run_dependent_fields_only(self):
        rec = {
            "id": "a",
            "status": "ok",
            "schedulable": True,
            "wall_time": 1.2,
            "cache_hits": 3,
            "cache_misses": 1,
            "attempts": [{"attempt": 1}],
            "result": {"schedulable": True, "cache": {"hits": 3}},
        }
        out = normalize_record(rec)
        assert out == {
            "id": "a",
            "status": "ok",
            "schedulable": True,
            "result": {"schedulable": True},
        }
        assert rec["result"]["cache"] == {"hits": 3}  # input untouched


class TestInjectedCampaign:
    """Campaign under injection, in process and on the pool: outcomes
    equal a clean run."""

    def _check(self, n_workers=None, chunksize=None, kill_rate=0.0):
        campaign = generate_campaign(12, seed=21)
        items = [
            BatchItem(system_from_dict(e["system"]), item_id=e["id"])
            for e in campaign
        ]
        injector = ChaosInjector(
            seed=21, kill_rate=kill_rate, timeout_rate=0.2, error_rate=0.2
        )
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, degrade=False)
        clean = BatchEngine(retry=policy).run(items)
        injected = BatchEngine(
            n_workers=n_workers,
            chunksize=chunksize,
            retry=policy,
            fault_injector=injector,
        ).run(items)
        assert injected.n_workers == (n_workers or 0)
        assert injected.n_retried > 0  # the chaos actually did something
        a = [normalize_record(r.to_dict()) for r in clean]
        b = [normalize_record(r.to_dict()) for r in injected]
        assert a == b
        return [injector.fault_for(e["id"], 1) for e in campaign]

    def test_injected_run_matches_clean_run(self):
        self._check()

    @pytest.mark.skipif(not IS_FORK, reason="pool tests assume fork start method")
    def test_injected_pool_run_matches_clean_run(self):
        faults = self._check(n_workers=2, chunksize=3, kill_rate=0.1)
        assert "kill" in faults  # a worker really died


@pytest.mark.skipif(not IS_FORK, reason="chaos end-to-end requires fork")
class TestEndToEnd:
    def test_small_chaos_experiment_passes(self, tmp_path):
        config = ChaosConfig(
            n_items=8,
            seed=3,
            workers=2,
            kill_points=(3,),
            tamper="truncate",
            timeout_rate=0.1,
            error_rate=0.1,
            kill_rate=0.05,
        )
        report = run_chaos(config, str(tmp_path / "chaos.wal"))
        assert report.ok, report.summary()
        assert report.n_journal_entries == 8
        assert report.n_unique_digests == 8
        killed = [s for s in report.stages if s["stage"].startswith("kill@")]
        assert killed and all(
            s["returncode"] != 0 or s.get("completed_early") for s in killed
        )
        payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert payload["ok"] is True

    def test_chaos_with_persistent_cache_passes(self, tmp_path):
        # The harness tampers the cache after the first kill: the final
        # outcome must still equal the (uncached) baseline campaign.
        config = ChaosConfig(
            n_items=8,
            seed=3,
            workers=2,
            kill_points=(3,),
            tamper="truncate",
            error_rate=0.1,
            cache_dir=str(tmp_path / "cache"),
        )
        report = run_chaos(config, str(tmp_path / "chaos.wal"))
        assert report.ok, report.summary()
        tampered = [
            s.get("cache_tampered")
            for s in report.stages
            if "cache_tampered" in s
        ]
        assert tampered and tampered[0] > 0


class TestVerification:
    def test_unreadable_final_journal_is_a_failed_check(
        self, tmp_path, monkeypatch, capsys
    ):
        # A final child that exits 0 but leaves no journal behind: the
        # verification cannot read it, which fails the check (exit 1)
        # rather than being reported as a usage error (exit 2).
        from repro.chaos import harness
        from repro.cli import main

        monkeypatch.setattr(harness, "_run_child", lambda *args: (0, ""))
        argv = ["chaos", "--items", "2", "--workers", "0", "--kill-points", "1",
                "--tamper", "none", "--journal", str(tmp_path / "chaos.wal"),
                "--json", str(tmp_path / "report.json")]
        assert main(argv) == 1
        assert "chaos: FAIL" in capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"] is False
        assert report["errors"][0].startswith("final journal unreadable: ")
