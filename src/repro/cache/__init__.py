"""Persistent cross-run caching and sharded campaigns.

Two cache tiers over one content-addressed, self-verifying on-disk store
(:class:`~repro.cache.store.DiskCacheStore`):

* :class:`~repro.cache.results.ResultCache` -- whole batch-item records,
  keyed by item content digest x audit flag x convergence flag x code
  version (:func:`~repro.cache.results.result_key`);
* :class:`~repro.cache.spill.CurveSpill` -- disk spill behind the
  in-process :class:`repro.curves.memo.CurveCache` for the hot
  ``service_transform`` / ``sum_curves`` kernels.

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
from .spill import CURVES_KIND, CurveSpill
from .store import CACHE_SCHEMA_VERSION, DiskCacheStore

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CURVES_KIND",
    "RESULTS_KIND",
    "SHARD_PLAN_KIND",
    "SHARD_PLAN_SCHEMA_VERSION",
    "CurveSpill",
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
