"""Persistent cross-run caching and sharded campaigns.

One cache tier over a content-addressed, self-verifying on-disk store
(:class:`~repro.cache.store.DiskCacheStore`):
:class:`~repro.cache.results.ResultCache` holds whole batch-item
records, keyed by item content digest x audit flag x convergence flag x
code version (:func:`~repro.cache.results.result_key`).  Each analysis
is a pure function of its item, so whole records capture all cross-run
reuse; memoized curves stay in memory (:mod:`repro.curves.memo`).

Plus the sharded-campaign machinery (:mod:`repro.cache.shard`):
deterministic shard plans fingerprint-compatible with
:class:`repro.batch.journal.BatchJournal`, and merge helpers that
reassemble shard records/journals/status/metrics into one campaign
result identical to an unsharded run.
"""

from .results import RESULTS_KIND, ResultCache, result_key
from .shard import (
    SHARD_PLAN_KIND,
    SHARD_PLAN_SCHEMA_VERSION,
    ShardError,
    build_plan,
    check_plan_matches,
    load_plan,
    merge_journals,
    merge_records,
    merge_status,
    shard_indices,
)
from .store import CACHE_SCHEMA_VERSION, DiskCacheStore

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "RESULTS_KIND",
    "SHARD_PLAN_KIND",
    "SHARD_PLAN_SCHEMA_VERSION",
    "DiskCacheStore",
    "ResultCache",
    "ShardError",
    "build_plan",
    "check_plan_matches",
    "load_plan",
    "merge_journals",
    "merge_records",
    "merge_status",
    "result_key",
    "shard_indices",
]
