"""Tests for shard plans and artifact merging (repro.cache.shard)."""

import json

import pytest

from repro.cache import (
    ShardError,
    build_plan,
    check_plan_matches,
    load_plan,
    merge_records,
    merge_status,
    shard_indices,
)
from repro.chaos import generate_campaign
from repro.cli import main
from repro.obs.status import STATUS_KIND, STATUS_SCHEMA_VERSION

FINGERPRINT = {
    "audit": False,
    "code_version": "1.0",
    "items": "feed" * 8,
}


def _plan(n=5, shards=2):
    ids = [f"item{i}" for i in range(n)]
    digests = [f"{i:032x}" for i in range(n)]
    return build_plan(ids, digests, shards, FINGERPRINT), ids, digests


class TestPlan:
    def test_round_robin_assignment(self):
        plan, _ids, digests = _plan(n=5, shards=2)
        assert [e["shard"] for e in plan["items"]] == [0, 1, 0, 1, 0]
        assert shard_indices(plan, 0) == [0, 2, 4]
        assert shard_indices(plan, 1) == [1, 3]
        assert plan["fingerprint"] == FINGERPRINT
        check_plan_matches(plan, digests)  # self-consistent

    def test_deterministic(self):
        a, _, _ = _plan()
        b, _, _ = _plan()
        assert a == b

    def test_validation(self):
        with pytest.raises(ShardError):
            build_plan(["a"], ["d"], 0, FINGERPRINT)
        with pytest.raises(ShardError):
            build_plan(["a", "b"], ["d"], 1, FINGERPRINT)
        with pytest.raises(ShardError, match="duplicate item ids"):
            build_plan(["a", "a"], ["d1", "d2"], 1, FINGERPRINT)

    def test_shard_index_out_of_range(self):
        plan, _, _ = _plan(shards=2)
        with pytest.raises(ShardError):
            shard_indices(plan, 2)

    def test_stale_plan_refused(self):
        plan, _ids, digests = _plan()
        edited = list(digests)
        edited[3] = "f" * 32
        with pytest.raises(ShardError, match="re-run 'repro shard plan'"):
            check_plan_matches(plan, edited)
        with pytest.raises(ShardError, match="covers"):
            check_plan_matches(plan, digests[:-1])

    def test_load_plan_round_trip(self, tmp_path):
        plan, _, _ = _plan()
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert load_plan(str(path)) == plan

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.update(kind="other"),
            lambda p: p.update(schema=99),
            lambda p: p.update(n_items=3),
            lambda p: p["items"][0].update(shard=7),
        ],
    )
    def test_load_plan_rejects_damage(self, tmp_path, mutate):
        plan, _, _ = _plan()
        mutate(plan)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        with pytest.raises(ShardError):
            load_plan(str(path))


class TestMergeRecords:
    def _records(self, plan, split):
        lines = {e["id"]: json.dumps({"id": e["id"], "slot": e["index"]})
                 for e in plan["items"]}
        return lines, split

    def test_verbatim_in_plan_order(self, tmp_path):
        plan, ids, _ = _plan(n=5, shards=2)
        # Shard outputs arrive in shard-local order with arbitrary
        # whitespace quirks the merge must preserve byte-for-byte.
        quirky = {i: f'{{"id": "{i}",  "x": {n}}}' for n, i in enumerate(ids)}
        s0 = tmp_path / "s0.jsonl"
        s1 = tmp_path / "s1.jsonl"
        s0.write_text("\n".join(quirky[ids[i]] for i in (0, 2, 4)) + "\n")
        s1.write_text("\n".join(quirky[ids[i]] for i in (1, 3)) + "\n")
        merged = merge_records(plan, [str(s0), str(s1)])
        assert merged == [quirky[i] for i in ids]

    def test_missing_and_foreign_and_duplicate(self, tmp_path):
        plan, ids, _ = _plan(n=3, shards=1)
        path = tmp_path / "s.jsonl"

        path.write_text("\n".join(
            json.dumps({"id": i}) for i in ids[:-1]) + "\n")
        with pytest.raises(ShardError, match="missing"):
            merge_records(plan, [str(path)])

        path.write_text("\n".join(
            json.dumps({"id": i}) for i in ids + ["ghost"]) + "\n")
        with pytest.raises(ShardError, match="not in the plan"):
            merge_records(plan, [str(path)])

        path.write_text("\n".join(
            json.dumps({"id": i}) for i in ids + [ids[0]]) + "\n")
        with pytest.raises(ShardError, match="more than one shard"):
            merge_records(plan, [str(path)])

    def test_invalid_json_rejected(self, tmp_path):
        plan, _, _ = _plan(n=1, shards=1)
        path = tmp_path / "s.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ShardError, match="invalid JSON"):
            merge_records(plan, [str(path)])


def _status_doc(**over):
    doc = {
        "schema": STATUS_SCHEMA_VERSION,
        "kind": STATUS_KIND,
        "campaign": "batch",
        "state": "done",
        "started_at": 100.0,
        "updated_at": 110.0,
        "elapsed_seconds": 10.0,
        "total": 4,
        "done": 4,
        "ok": 4,
        "failed": 0,
        "retried": 0,
        "quarantined": 0,
        "resumed": 0,
        "cached": 0,
        "by_status": {"ok": 4},
        "n_workers": 2,
        "workers": {},
    }
    doc.update(over)
    return doc


class TestMergeStatus:
    def test_counts_sum_and_elapsed_maxes(self, tmp_path):
        a = tmp_path / "a.status"
        b = tmp_path / "b.status"
        a.write_text(json.dumps(_status_doc()))
        b.write_text(json.dumps(_status_doc(
            total=3, done=3, ok=2, failed=1, cached=1,
            by_status={"ok": 2, "error": 1}, elapsed_seconds=25.0,
        )))
        merged = merge_status([str(a), str(b)])
        assert merged["total"] == 7 and merged["done"] == 7
        assert merged["ok"] == 6 and merged["failed"] == 1
        assert merged["cached"] == 1
        assert merged["by_status"] == {"error": 1, "ok": 6}
        assert merged["elapsed_seconds"] == 25.0
        assert merged["throughput"] == pytest.approx(7 / 25.0)
        assert merged["n_shards"] == 2
        assert merged["state"] == "done"
        assert "metrics" not in merged

    def test_metrics_snapshots_merge(self, tmp_path):
        metric = {"counters": {"repro_cache_hits_total":
                               {'{tier="results"}': 3.0}}}
        paths = []
        for name in ("a", "b"):
            p = tmp_path / f"{name}.status"
            p.write_text(json.dumps(_status_doc(metrics=metric)))
            paths.append(str(p))
        merged = merge_status(paths)
        counters = merged["metrics"]["counters"]
        assert counters["repro_cache_hits_total"]['{tier="results"}'] == 6.0

    def test_unfinished_shard_refused(self, tmp_path):
        p = tmp_path / "a.status"
        p.write_text(json.dumps(_status_doc(state="running")))
        with pytest.raises(ShardError, match="requires every shard"):
            merge_status([str(p)])

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(ShardError, match="missing or unreadable"):
            merge_status([str(tmp_path / "nope.status")])


class TestEndToEnd:
    """Full CLI pipeline: plan -> sharded runs -> merge == unsharded run."""

    N_ITEMS = 9
    N_SHARDS = 3

    def _run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_sharded_campaign_merges_byte_identical(self, tmp_path, capsys):
        items = tmp_path / "items.jsonl"
        with open(items, "w", encoding="utf-8") as fh:
            for entry in generate_campaign(self.N_ITEMS, seed=4):
                fh.write(json.dumps(entry) + "\n")
        plan = tmp_path / "plan.json"
        cache_dir = tmp_path / "cache"
        self._run(["shard", "plan", str(items), "--shards",
                   str(self.N_SHARDS), "--out", str(plan)], capsys)

        record_paths, journal_paths, status_paths = [], [], []
        for i in range(self.N_SHARDS):
            out = self._run(
                ["batch", str(items),
                 "--shard-index", str(i),
                 "--shard-count", str(self.N_SHARDS),
                 "--shard-manifest", str(plan),
                 "--cache-dir", str(cache_dir),
                 "--journal", str(tmp_path / f"s{i}.wal"),
                 "--status", str(tmp_path / f"s{i}.status")],
                capsys,
            )
            path = tmp_path / f"s{i}.jsonl"
            path.write_text(out)
            record_paths.append(str(path))
            journal_paths.append(str(tmp_path / f"s{i}.wal"))
            status_paths.append(str(tmp_path / f"s{i}.status"))

        merged = tmp_path / "merged.jsonl"
        self._run(
            ["shard", "merge", "--plan", str(plan),
             "--records", *record_paths, "--out", str(merged),
             "--journals", *journal_paths,
             "--journal-out", str(tmp_path / "merged.wal"),
             "--status", *status_paths,
             "--status-out", str(tmp_path / "merged.status")],
            capsys,
        )

        # A warm unsharded run over the shard-populated cache re-emits
        # every record verbatim -- the merged file must match it exactly.
        warm = self._run(
            ["batch", str(items), "--cache-dir", str(cache_dir)], capsys
        )
        assert merged.read_text() == warm

        # The merged journal is resumable by the unsharded campaign.
        resumed = self._run(
            ["batch", str(items),
             "--journal", str(tmp_path / "merged.wal"), "--resume"],
            capsys,
        )
        assert resumed == warm

        status = json.loads((tmp_path / "merged.status").read_text())
        assert status["total"] == self.N_ITEMS
        assert status["done"] == self.N_ITEMS
        assert status["state"] == "done"
        assert status["n_shards"] == self.N_SHARDS

    def test_shard_flags_require_index(self, tmp_path, capsys):
        items = tmp_path / "items.jsonl"
        with open(items, "w", encoding="utf-8") as fh:
            for entry in generate_campaign(2, seed=1):
                fh.write(json.dumps(entry) + "\n")
        assert main(["batch", str(items), "--shard-count", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --shard-count/--shard-manifest require --shard-index\n"
