"""Batch records are encoded once and sealed by the CRC of their bytes.

A record's JSON text is what the journal and the result cache write,
check and re-emit: a warm run encodes no record again, a damaged byte
anywhere in a sealed entry or journal line is caught, and a record
survives cache -> journal -> resume with its text unchanged.
"""

import json
import os
import tempfile
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchEngine,
    BatchItem,
    BatchJournal,
    ItemResult,
    JournalError,
    campaign_fingerprint,
)
from repro.cache import DiskCacheStore, ResultCache
from repro.chaos import generate_campaign
from repro.model.io import system_from_dict

DIGEST = "ab" * 16
#: Every single-bit flip, plus inverting the whole byte.
MASKS = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF)
RECORD = {
    # "J" and "*" are one bit away from a newline.
    "id": "T\u00e2che-J*",
    "method": "SPP/Exact",
    "status": "ok",
    "schedulable": True,
    "error": None,
    "wall_time": 0.012345,
    "rounds": 2,
    "cache_hits": 0,
    "cache_misses": 3,
    "result": {"jobs": {"T1": {"wcrt": 3.5, "hops": []}}},
}


def _items(n, seed=11):
    return [
        BatchItem(system=system_from_dict(e["system"]), item_id=e["id"])
        for e in generate_campaign(n, seed=seed)
    ]


def _holds_record(obj):
    """Whether ``obj`` is a batch record, or a dict nesting one."""
    if not isinstance(obj, dict):
        return False
    if "status" in obj and "result" in obj:
        return True
    return any(_holds_record(v) for v in obj.values())


class TestOneEncoding:
    def test_warm_journaled_run_encodes_no_record(self, tmp_path, monkeypatch):
        n = 6
        cache_dir = str(tmp_path / "cache")
        BatchEngine(cache_dir=cache_dir).run(_items(n))
        encodes, parses = [], []
        dumps, loads = json.dumps, json.loads

        def counting_dumps(obj, *args, **kwargs):
            if _holds_record(obj):
                encodes.append(obj)
            return dumps(obj, *args, **kwargs)

        def counting_loads(text, *args, **kwargs):
            obj = loads(text, *args, **kwargs)
            if _holds_record(obj):
                parses.append(obj)
            return obj

        items = _items(n)
        wal = str(tmp_path / "warm.wal")
        monkeypatch.setattr(json, "dumps", counting_dumps)
        monkeypatch.setattr(json, "loads", counting_loads)
        warm = BatchEngine(cache_dir=cache_dir, journal=wal).run(items)
        monkeypatch.undo()
        assert warm.n_cached == n
        assert len(encodes) == 0
        assert len(parses) == n
        # Every record was journaled, as the text the cache stored.
        _h, entries, _g, _t = BatchJournal.scan_text(wal)
        assert [e.text for e in entries] == [r.text for r in warm]


def _flipped(raw, offset, mask):
    return raw[:offset] + bytes([raw[offset] ^ mask]) + raw[offset + 1 :]


class TestEveryFlipIsCaught:
    def test_cache_entry(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        text = json.dumps(RECORD)
        assert store.put_text("results", DIGEST, text)
        path = store.path_for("results", DIGEST)
        with open(path, "rb") as fh:
            raw = fh.read()
        for offset in range(len(raw)):
            for mask in MASKS:
                with open(path, "wb") as fh:
                    fh.write(_flipped(raw, offset, mask))
                assert store.get_text("results", DIGEST) is None, (offset, mask)
        assert store.corrupt == store.misses == len(raw) * len(MASKS)
        with open(path, "wb") as fh:
            fh.write(raw)
        assert store.get_text("results", DIGEST) == text

    def _journal(self, tmp_path, n=4):
        path = str(tmp_path / "c.wal")
        journal = BatchJournal(path)
        journal.create(campaign_fingerprint([DIGEST] * n))
        for i in range(n):
            record = dict(RECORD, id=f"{RECORD['id']}{i}")
            journal.append(DIGEST, i, json.dumps(record))
        journal.close()
        with open(path, "rb") as fh:
            raw = fh.read()
        return path, raw, raw.splitlines(keepends=True)

    def test_last_journal_line_is_a_torn_tail(self, tmp_path):
        path, raw, lines = self._journal(tmp_path)
        last = len(raw) - len(lines[-1])
        for offset in range(last, len(raw)):
            for mask in MASKS:
                with open(path, "wb") as fh:
                    fh.write(_flipped(raw, offset, mask))
                _h, entries, good, total = BatchJournal.scan_text(path)
                assert [e.index for e in entries] == [0, 1, 2], (offset, mask)
                assert good == last and total == len(raw)

    def test_middle_journal_line_is_corruption(self, tmp_path):
        path, raw, lines = self._journal(tmp_path)
        # Entry 1: two intact lines follow it, even when a flip of its
        # newline joins it to entry 2.
        start = len(lines[0]) + len(lines[1])
        for offset in range(start, start + len(lines[2])):
            for mask in MASKS:
                with open(path, "wb") as fh:
                    fh.write(_flipped(raw, offset, mask))
                with pytest.raises(JournalError, match="corrupt"):
                    BatchJournal.scan_text(path)


def _schema_1(key, body):
    """A line or entry as schema 1 sealed it: CRC of the canonical body."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return {"c": zlib.crc32(canonical.encode("utf-8")), key: body}


class TestOlderSchemas:
    def test_schema_1_journal_is_refused_by_name(self, tmp_path):
        header = dict(campaign_fingerprint([DIGEST]), schema=1)
        entry = {"digest": DIGEST, "index": 0, "record": RECORD}
        path = tmp_path / "old.wal"
        path.write_text(
            "".join(
                json.dumps(line, separators=(",", ":")) + "\n"
                for line in (_schema_1("h", header), _schema_1("e", entry))
            )
        )
        with pytest.raises(JournalError, match="has schema 1; this version"):
            BatchJournal.scan_text(str(path))

    def test_format_1_cache_entry_is_recomputed(self, tmp_path):
        store = DiskCacheStore(tmp_path)
        path = store.path_for("results", DIGEST)
        os.makedirs(os.path.dirname(path))
        entry = {"v": 1, "k": "results", "d": DIGEST, **_schema_1("b", RECORD)}
        with open(path, "w") as fh:
            fh.write(json.dumps(entry, separators=(",", ":")))
        assert store.get_text("results", DIGEST) is None
        assert store.corrupt == 1 and not os.path.exists(path)


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 2**53 + 1]),
    st.text(max_size=6),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=12,
)
_records = st.fixed_dictionaries(
    {
        "id": st.text(min_size=1, max_size=8),
        "method": st.sampled_from(["SPP/Exact", "SPP/S&L", "FCFS/App"]),
        "status": st.sampled_from(["ok", "error"]),
        "schedulable": st.one_of(st.none(), st.booleans()),
        "error": st.one_of(st.none(), st.text(max_size=8)),
        "wall_time": st.floats(min_value=0.0, max_value=1e6),
        "rounds": st.integers(min_value=0, max_value=2**64),
        "cache_hits": st.integers(min_value=0, max_value=2**64),
        "cache_misses": st.integers(min_value=0, max_value=2**64),
        "result": st.one_of(
            st.none(), st.dictionaries(st.text(max_size=4), _values, max_size=4)
        ),
    }
)


@settings(max_examples=60)
@given(record=_records)
@example(
    record=dict(
        RECORD,
        id="\u03c4\u00e2che \u2603 \U0001d54b",
        wall_time=-0.0,
        rounds=2**53 + 1,
        result={
            "edges": [-0.0, 5e-324, 1.7976931348623157e308, 2**64, -(2**53) - 1],
            "empty": [[], [[]], {}, {"jobs": []}],
        },
    )
)
def test_cache_journal_resume_round_trip(record):
    original = json.dumps(record, allow_nan=False)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(DiskCacheStore(os.path.join(tmp, "cache")))
        assert cache.put(DIGEST, original)
        served = ItemResult.from_text(cache.get_text(DIGEST), 0, cached=True)
        fingerprint = campaign_fingerprint([DIGEST])
        wal = os.path.join(tmp, "c.wal")
        with BatchJournal(wal) as journal:
            journal.create(fingerprint)
            journal.append(DIGEST, 0, served.to_json())
        with BatchJournal(wal) as journal:
            (entry,) = journal.open_resume(fingerprint)
        resumed = ItemResult.from_text(entry.text, entry.index)
    assert resumed.resumed and served.cached
    assert resumed.to_json() == original
    assert json.dumps(resumed.to_dict(), allow_nan=False) == original
