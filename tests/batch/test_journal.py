"""Tests for the write-ahead batch journal (repro.batch.journal)."""

import json
import os

import pytest

from repro.batch import (
    BatchEngine,
    BatchItem,
    BatchJournal,
    JournalError,
    campaign_fingerprint,
    item_digest,
)
from repro.batch.journal import JOURNAL_KIND
from repro.model import (
    Job,
    JobSet,
    PeriodicArrivals,
    System,
    assign_priorities_proportional_deadline,
)


def small_system(period=5.0, wcet=1.0, deadline=10.0):
    jobs = [
        Job.build("a", [("cpu", wcet)], PeriodicArrivals(period), deadline),
        Job.build("b", [("cpu", 2 * wcet)], PeriodicArrivals(1.2 * period), deadline),
    ]
    sys_ = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(sys_)
    return sys_


def doomed_system(period=5.0):
    job = Job.build("x", [("cpu", 3.0)], PeriodicArrivals(period), 1.0)
    sys_ = System(JobSet([job]), "spp")
    assign_priorities_proportional_deadline(sys_)
    return sys_


def _fingerprint(digests, **kw):
    return campaign_fingerprint(list(digests), **kw)


class TestDigests:
    def test_item_digest_deterministic(self):
        a = item_digest(small_system())
        b = item_digest(small_system())
        assert a == b

    def test_item_digest_covers_inputs(self):
        base = item_digest(small_system())
        assert item_digest(small_system(wcet=1.1)) != base
        assert item_digest(small_system(), method="SPNP/App") != base

    def test_fingerprint_is_order_independent(self):
        d1, d2 = item_digest(small_system()), item_digest(doomed_system())
        assert _fingerprint([d1, d2]) == _fingerprint([d2, d1])

    def test_fingerprint_covers_audit(self):
        d = [item_digest(small_system())]
        assert _fingerprint(d, audit=True) != _fingerprint(d, audit=False)

    def test_fingerprint_shape(self):
        fp = _fingerprint([item_digest(small_system())])
        assert fp["kind"] == JOURNAL_KIND
        assert fp["n_items"] == 1
        assert isinstance(fp["code_version"], str)


class TestJournalFile:
    def _make(self, tmp_path, n=3):
        path = str(tmp_path / "c.wal")
        digests = [f"{i:032x}" for i in range(n)]
        journal = BatchJournal(path)
        journal.create(_fingerprint(digests))
        for i, d in enumerate(digests):
            journal.append(d, i, {"id": f"i{i}", "status": "ok"})
        journal.close()
        return path, digests

    def test_round_trip(self, tmp_path):
        path, digests = self._make(tmp_path)
        header, entries, good, total = BatchJournal.scan(path)
        assert good == total
        assert header["n_items"] == 3
        assert [e["digest"] for e in entries] == digests
        assert entries[0]["record"] == {"id": "i0", "status": "ok"}

    def test_create_refuses_existing(self, tmp_path):
        path, digests = self._make(tmp_path)
        with pytest.raises(JournalError, match="already exists"):
            BatchJournal(path).create(_fingerprint(digests))

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path, digests = self._make(tmp_path)
        intact = os.path.getsize(path)
        with open(path, "a") as fh:
            fh.write('{"c": 1, "e": {"torn')
        header, entries, good, total = BatchJournal.scan(path)
        assert len(entries) == 3 and good == intact < total

        journal = BatchJournal(path)
        recovered = journal.open_resume(_fingerprint(digests))
        assert len(recovered) == 3
        assert journal.torn_tail_dropped
        assert os.path.getsize(path) == intact  # file physically repaired
        journal.close()

    def test_corrupt_middle_raises(self, tmp_path):
        path, _ = self._make(tmp_path)
        lines = open(path).read().splitlines(keepends=True)
        lines[1] = '{"c": 0, "e": {"zapped": true}}\n'
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(JournalError, match="corrupt"):
            BatchJournal.scan(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "not.wal")
        with open(path, "w") as fh:
            fh.write(json.dumps({"hello": 1}) + "\n")
        with pytest.raises(JournalError):
            BatchJournal.scan(path)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path, digests = self._make(tmp_path)
        other = _fingerprint([item_digest(small_system())])
        with pytest.raises(JournalError, match="refusing to resume"):
            BatchJournal(path).open_resume(other)

    def test_append_requires_open(self, tmp_path):
        journal = BatchJournal(str(tmp_path / "x.wal"))
        with pytest.raises(JournalError, match="not open"):
            journal.append("d", 0, {})


class TestEngineJournal:
    def _items(self, n=4):
        return [
            BatchItem(small_system(wcet=0.8 + 0.05 * k), item_id=f"i{k}")
            for k in range(n)
        ]

    def test_journal_then_resume_is_equivalent(self, tmp_path):
        wal = str(tmp_path / "c.wal")
        items = self._items()
        first = BatchEngine(journal=wal).run(items)
        assert first.n_resumed == 0
        again = BatchEngine(journal=wal, resume=True).run(items)
        assert again.n_resumed == len(items)
        assert "resumed=4" in again.summary()
        d1 = [r.to_dict() for r in first]
        d2 = [r.to_dict() for r in again]
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_partial_journal_only_reruns_missing(self, tmp_path):
        wal = str(tmp_path / "c.wal")
        items = self._items()
        BatchEngine(journal=wal).run(items)
        # Drop the last record: exactly that item must be re-analyzed.
        _h, entries, _g, _t = BatchJournal.scan(wal)
        lines = open(wal).read().splitlines(keepends=True)
        with open(wal, "w") as fh:
            fh.writelines(lines[:-1])
        report = BatchEngine(journal=wal, resume=True).run(items)
        assert report.n_resumed == len(items) - 1
        assert report.n_ok == len(items)
        _h, entries, _g, _t = BatchJournal.scan(wal)
        assert len(entries) == len(items)
        assert len({e["digest"] for e in entries}) == len(items)

    def test_resume_refuses_different_campaign(self, tmp_path):
        wal = str(tmp_path / "c.wal")
        BatchEngine(journal=wal).run(self._items())
        other = [BatchItem(doomed_system(), item_id="d0")]
        with pytest.raises(JournalError, match="refusing to resume"):
            BatchEngine(journal=wal, resume=True).run(other)

    def test_journal_without_resume_refuses_existing_file(self, tmp_path):
        wal = str(tmp_path / "c.wal")
        items = self._items(2)
        BatchEngine(journal=wal).run(items)
        with pytest.raises(JournalError, match="already exists"):
            BatchEngine(journal=wal).run(items)

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="requires a journal"):
            BatchEngine(resume=True)

    def test_failed_items_are_journaled_too(self, tmp_path):
        wal = str(tmp_path / "c.wal")
        items = [
            BatchItem(small_system(), item_id="ok"),
            BatchItem(doomed_system(), item_id="doomed"),
        ]
        first = BatchEngine(journal=wal).run(items)
        statuses = {r.item_id: r.status for r in first}
        again = BatchEngine(journal=wal, resume=True).run(items)
        assert again.n_resumed == 2
        assert {r.item_id: r.status for r in again} == statuses
