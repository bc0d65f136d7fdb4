"""Sharded campaigns: deterministic shard plans and artifact merging.

A mega-campaign too big for one process pool is split into *shards*::

    repro shard plan items.jsonl --shards 3 --out plan.json
    repro batch items.jsonl --shard-index 0 --shard-count 3 ... > s0.jsonl
    repro batch items.jsonl --shard-index 1 --shard-count 3 ... > s1.jsonl
    repro batch items.jsonl --shard-index 2 --shard-count 3 ... > s2.jsonl
    repro shard merge --plan plan.json --records s0.jsonl s1.jsonl s2.jsonl \
        --out merged.jsonl

The **plan** is a JSON manifest assigning every item (by submission
index) to a shard round-robin (``index % n_shards``, so shard sizes
differ by at most one and the assignment is a pure function of the item
list).  It embeds the full campaign fingerprint
(:func:`repro.batch.journal.campaign_fingerprint`) plus each item's
content digest, which makes it fingerprint-compatible with the
write-ahead journal: a journal merged from shard journals by
:func:`merge_journals` carries the *unsharded* campaign's fingerprint
and is directly resumable by an unsharded ``batch --resume`` run.

**Merging** reassembles the unsharded campaign's artifacts:

* :func:`merge_records` re-emits each shard's JSONL record lines
  *verbatim*, ordered by the plan's submission indices -- the merged
  output is byte-identical to the concatenation the unsharded run would
  have printed for those same records.
* :func:`merge_journals` rewrites shard-local submission indices to the
  plan's global indices (matching entries to plan slots by content
  digest) under the full-campaign fingerprint header.
* :func:`merge_status` folds the shard status documents into one
  terminal document (counts sum; embedded metrics snapshots merge via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge`).

Every merge validates coverage: an item missing from all shards, present
twice, or belonging to a foreign campaign (fingerprint mismatch) is a
hard error, never a silently shorter output.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..batch.journal import BatchJournal, JournalEntry
from ..ioutil import write_json_atomic
from ..obs.metrics import MetricsRegistry
from ..obs.status import STATUS_KIND, STATUS_SCHEMA_VERSION, read_status

__all__ = [
    "SHARD_PLAN_KIND",
    "SHARD_PLAN_SCHEMA_VERSION",
    "ShardError",
    "build_plan",
    "load_plan",
    "shard_indices",
    "merge_records",
    "merge_journals",
    "merge_status",
]

SHARD_PLAN_KIND = "repro.shard.plan"
SHARD_PLAN_SCHEMA_VERSION = 1


class ShardError(RuntimeError):
    """A shard plan or merge input is invalid or incomplete."""


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------


def build_plan(
    ids: Sequence[str],
    digests: Sequence[str],
    n_shards: int,
    fingerprint: Dict[str, Any],
) -> Dict[str, Any]:
    """Deterministic shard manifest for one campaign.

    ``ids``/``digests`` are the campaign's items in submission order;
    ``fingerprint`` is the unsharded campaign fingerprint (audit flag,
    code version, items digest).  Assignment is round-robin so
    it needs no size estimates and is stable under re-planning.
    """
    if n_shards <= 0:
        raise ShardError("n_shards must be positive")
    if len(ids) != len(digests):
        raise ShardError("ids and digests must align")
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if list(ids).count(i) > 1})
        raise ShardError(
            f"duplicate item ids {dupes[:5]}: sharded merge matches records "
            f"by id, so every item needs a unique one"
        )
    return {
        "kind": SHARD_PLAN_KIND,
        "schema": SHARD_PLAN_SCHEMA_VERSION,
        "n_shards": int(n_shards),
        "n_items": len(ids),
        "fingerprint": dict(fingerprint),
        "items": [
            {
                "index": i,
                "id": str(ids[i]),
                "digest": digests[i],
                "shard": i % n_shards,
            }
            for i in range(len(ids))
        ],
    }


def load_plan(path: str) -> Dict[str, Any]:
    """Read + validate a shard plan written by ``repro shard plan``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            plan = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ShardError(f"cannot read shard plan {path!r}: {exc}") from exc
    if not isinstance(plan, dict) or plan.get("kind") != SHARD_PLAN_KIND:
        raise ShardError(f"{path!r} is not a {SHARD_PLAN_KIND} file")
    if plan.get("schema") != SHARD_PLAN_SCHEMA_VERSION:
        raise ShardError(
            f"shard plan {path!r} has schema {plan.get('schema')!r}; this "
            f"version reads schema {SHARD_PLAN_SCHEMA_VERSION}"
        )
    items = plan.get("items")
    n_shards = plan.get("n_shards")
    if not isinstance(items, list) or not isinstance(n_shards, int):
        raise ShardError(f"shard plan {path!r} is malformed")
    if len(items) != plan.get("n_items"):
        raise ShardError(
            f"shard plan {path!r}: n_items={plan.get('n_items')} but "
            f"{len(items)} items listed"
        )
    for entry in items:
        shard = entry.get("shard")
        if not isinstance(shard, int) or not 0 <= shard < n_shards:
            raise ShardError(
                f"shard plan {path!r}: item {entry.get('id')!r} assigned to "
                f"shard {shard!r} of {n_shards}"
            )
    return plan


def shard_indices(plan: Dict[str, Any], shard_index: int) -> List[int]:
    """Global submission indices assigned to one shard, in order."""
    if not 0 <= shard_index < plan["n_shards"]:
        raise ShardError(
            f"shard index {shard_index} out of range for "
            f"{plan['n_shards']} shards"
        )
    return [e["index"] for e in plan["items"] if e["shard"] == shard_index]


def check_plan_matches(
    plan: Dict[str, Any], digests: Sequence[str], plan_path: str = "<plan>"
) -> None:
    """Refuse a plan whose per-index digests disagree with the campaign.

    The comparison is positional (index -> digest): a reordered, edited
    or differently-optioned item list must not silently run under a
    stale plan, for exactly the reasons a journal refuses a stale
    fingerprint.
    """
    if len(digests) != plan["n_items"]:
        raise ShardError(
            f"shard plan {plan_path!r} covers {plan['n_items']} items but "
            f"the campaign has {len(digests)}"
        )
    for entry in plan["items"]:
        want = digests[entry["index"]]
        if entry["digest"] != want:
            raise ShardError(
                f"shard plan {plan_path!r}: item {entry['id']!r} (index "
                f"{entry['index']}) has digest {want} in this campaign but "
                f"{entry['digest']} in the plan; re-run 'repro shard plan'"
            )


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------


def merge_records(
    plan: Dict[str, Any], record_paths: Sequence[str]
) -> List[str]:
    """Shard JSONL record lines reassembled in submission order.

    Lines are matched to plan slots by their ``id`` field and re-emitted
    *verbatim* (no re-serialization), so the merged output preserves the
    shard runs' exact bytes.  Missing ids, duplicate ids and ids foreign
    to the plan are hard errors.
    """
    by_id: Dict[str, str] = {}
    for path in record_paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ShardError(f"cannot read shard records {path!r}: {exc}")
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ShardError(
                    f"{path!r} line {lineno}: invalid JSON record: {exc}"
                )
            rec_id = str(obj.get("id"))
            if rec_id in by_id:
                raise ShardError(
                    f"item id {rec_id!r} appears in more than one shard "
                    f"output (second: {path!r} line {lineno})"
                )
            by_id[rec_id] = line
    merged: List[str] = []
    missing: List[str] = []
    for entry in plan["items"]:
        line = by_id.pop(entry["id"], None)
        if line is None:
            missing.append(entry["id"])
        else:
            merged.append(line)
    if missing:
        raise ShardError(
            f"{len(missing)} plan item(s) missing from the shard outputs "
            f"(first: {missing[:5]})"
        )
    if by_id:
        raise ShardError(
            f"{len(by_id)} record(s) not in the plan "
            f"(first ids: {sorted(by_id)[:5]})"
        )
    return merged


def merge_journals(
    plan: Dict[str, Any], journal_paths: Sequence[str], out_path: str
) -> int:
    """Combine shard journals into one unsharded-campaign journal.

    Entries are matched to plan slots by content digest (duplicate
    digests consume entries first-come-first-served, mirroring journal
    resume) and rewritten with the plan's global submission indices under
    the full-campaign fingerprint header; each record is copied as the
    text it was journaled as.  The merged journal is resumable by the
    unsharded campaign.  Returns the entry count.
    """
    fingerprint = plan["fingerprint"]
    buckets: Dict[str, List[JournalEntry]] = {}
    for path in journal_paths:
        header, entries, _good, _total = BatchJournal.scan_text(path)
        for key in ("audit", "code_version"):
            if header.get(key) != fingerprint.get(key):
                raise ShardError(
                    f"shard journal {path!r} was written with "
                    f"{key}={header.get(key)!r}; the plan expects "
                    f"{fingerprint.get(key)!r}"
                )
        for entry in entries:
            buckets.setdefault(entry.digest, []).append(entry)
    if os.path.exists(out_path):
        raise ShardError(
            f"merged journal {out_path!r} already exists; refusing to clobber"
        )
    ordered: List[Tuple[int, str, str]] = []
    missing: List[str] = []
    for entry in plan["items"]:
        bucket = buckets.get(entry["digest"])
        if not bucket:
            missing.append(entry["id"])
            continue
        ordered.append((entry["index"], entry["digest"], bucket.pop(0).text))
    if missing:
        raise ShardError(
            f"{len(missing)} plan item(s) have no journal entry "
            f"(first: {missing[:5]})"
        )
    leftovers = sum(len(b) for b in buckets.values())
    if leftovers:
        raise ShardError(
            f"{leftovers} journal entr(ies) do not match any plan item "
            f"(foreign or doubly-analyzed digests)"
        )
    journal = BatchJournal(out_path)
    try:
        journal.create(fingerprint)
        for index, digest, text in ordered:
            journal.append(digest, index, text)
    finally:
        journal.close()
    return len(ordered)


def merge_status(
    status_paths: Sequence[str],
    out_path: Optional[str] = None,
    campaign: str = "batch",
) -> Dict[str, Any]:
    """Fold shard status documents into one terminal campaign document.

    Counts sum; ``by_status`` maps merge; ``elapsed_seconds`` is the max
    (shards run concurrently); embedded metrics snapshots merge via
    :meth:`MetricsRegistry.merge`.  Every shard must have reached state
    ``done`` -- merging a half-finished campaign is refused.
    """
    docs: List[Dict[str, Any]] = []
    for path in status_paths:
        doc = read_status(path)
        if doc is None:
            raise ShardError(f"status file {path!r} is missing or unreadable")
        if doc.get("state") != "done":
            raise ShardError(
                f"status file {path!r} is in state {doc.get('state')!r}; "
                f"merge requires every shard to be done"
            )
        docs.append(doc)
    if not docs:
        raise ShardError("no status files to merge")

    def total(key: str) -> int:
        return sum(int(d.get(key) or 0) for d in docs)

    by_status: Dict[str, int] = {}
    workers: Dict[str, Any] = {}
    registry = MetricsRegistry()
    have_metrics = False
    for doc in docs:
        for status, count in (doc.get("by_status") or {}).items():
            by_status[status] = by_status.get(status, 0) + int(count)
        workers.update(doc.get("workers") or {})
        if isinstance(doc.get("metrics"), dict):
            registry.merge(doc["metrics"])
            have_metrics = True
    elapsed = max(float(d.get("elapsed_seconds") or 0.0) for d in docs)
    done = total("done")
    merged: Dict[str, Any] = {
        "schema": STATUS_SCHEMA_VERSION,
        "kind": STATUS_KIND,
        "campaign": campaign,
        "state": "done",
        "pid": os.getpid(),
        "started_at": min(float(d.get("started_at") or 0.0) for d in docs),
        "updated_at": max(float(d.get("updated_at") or 0.0) for d in docs),
        "elapsed_seconds": elapsed,
        "total": total("total"),
        "done": done,
        "ok": total("ok"),
        "failed": total("failed"),
        "retried": total("retried"),
        "quarantined": total("quarantined"),
        "resumed": total("resumed"),
        "cached": total("cached"),
        "by_status": dict(sorted(by_status.items())),
        "throughput": (done / elapsed) if elapsed > 0 else None,
        "eta_seconds": None,
        "n_workers": total("n_workers"),
        "workers": workers,
        "journal": None,
        "n_shards": len(docs),
    }
    if have_metrics:
        merged["metrics"] = registry.snapshot()
    if out_path is not None:
        write_json_atomic(out_path, merged)
    return merged
