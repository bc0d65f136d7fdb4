"""Tier 1: whole-result memoization for batch work items.

A batch item's outcome is a pure function of its *content digest* (see
:func:`repro.batch.journal.item_digest`: system + method + horizon +
analysis options) in a given execution context.  :func:`result_key`
narrows the digest to one context by mixing in everything that can
legitimately change the emitted record without changing the item:

* the **audit flag** -- audited records carry a ``violations`` block;
* the **convergence flag** -- ``AnalysisOptions.convergence`` attaches a
  ``convergence`` block to the result, yet the item digest leaves it out
  because it never changes a bound;
* the **code version** -- any release may change bounds or the record
  schema, so entries written by other versions simply never match.

The cached value is the item's full JSONL record as the text ``repro
batch`` prints (:meth:`~repro.batch.engine.ItemResult.to_json`), stored
byte for byte and re-emitted verbatim on a hit -- exactly the mechanism
journal resume uses -- so a warm re-run's unchanged records are
byte-identical to the run that populated the cache.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

from .store import DiskCacheStore

__all__ = ["RESULTS_KIND", "ResultCache", "result_key"]

#: Store namespace for whole-result entries.
RESULTS_KIND = "results"


def result_key(
    item_digest: str,
    audit: bool,
    convergence: bool = False,
    code_version: Optional[str] = None,
) -> str:
    """Cache key for one item in one execution context (hex, 32 chars)."""
    if code_version is None:
        # Imported lazily: repro/__init__ binds __version__ after pulling
        # in subpackages, so a module-level import would be circular.
        from .. import __version__

        code_version = __version__
    flags = f"{int(bool(audit))}:{int(bool(convergence))}"
    payload = f"{item_digest}:{flags}:{code_version}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class ResultCache:
    """Whole-record cache over a :class:`~repro.cache.store.DiskCacheStore`.

    Thin by design: keys are computed by the caller (the batch engine,
    which owns the audit/convergence context), values are record JSON
    texts, and every integrity concern lives in the store.
    """

    def __init__(self, store: DiskCacheStore) -> None:
        self.store = store

    def get_text(self, key: str) -> Optional[str]:
        """The stored record's JSON text, verified; ``None`` on a miss."""
        return self.store.get_text(RESULTS_KIND, key)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record, parsed; ``None`` on a miss."""
        return self.store.get(RESULTS_KIND, key)

    def put(self, key: str, text: str) -> bool:
        """Store a record's JSON text; False when the write failed."""
        return self.store.put_text(RESULTS_KIND, key, text)
