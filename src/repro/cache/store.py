"""Content-addressed on-disk cache store: atomic, self-verifying.

:class:`DiskCacheStore` is the persistence primitive behind the
whole-result cache of :mod:`repro.cache` (:mod:`repro.cache.results`).
One entry is one file::

    <root>/<kind>/<digest[:2]>/<digest>.json

where ``kind`` namespaces the entries (``"results"``) and ``digest``
is the caller's content digest -- the *key already names the content*,
so a cache can only ever return what was stored under exactly the same
inputs.  The two-character fan-out directory keeps any single
directory from growing unbounded on 100k-entry campaigns.

Safety properties, in order of importance:

* **Never a wrong answer.**  Every entry embeds the CRC-32 of its
  canonical body plus its kind and digest; :meth:`~DiskCacheStore.get`
  re-verifies all three on every read.  A tampered, torn or truncated
  entry -- or a foreign file that happens to sit at the right path --
  is counted in ``repro_cache_corrupt_total``, unlinked (best effort)
  and reported as a miss, so the caller silently recomputes.
* **Concurrent writers are safe.**  Writes go through
  :func:`repro.ioutil.write_text_atomic` (tmp file in the destination
  directory + ``os.replace``), so two workers racing on the same digest
  each publish a complete file and the last rename wins; readers see one
  complete entry or none, never a partial write.  Both racers computed
  the same pure function of the same digest, so last-writer-wins is
  semantically a no-op.
* **Writes never fail a campaign.**  A full disk, a permission error or
  a vanished cache directory degrade to an uncached run (the error is
  swallowed and counted), because the cache is an accelerator, not a
  correctness dependency.

Durability is deliberately *not* promised: entries are written with
``durable=False`` (no fsync barrier on the hot path).  A machine crash
can lose recent entries -- which only costs recomputation.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, Optional

from ..ioutil import write_text_atomic
from ..obs import metrics as _obs_metrics

__all__ = ["CACHE_SCHEMA_VERSION", "DiskCacheStore"]

#: Version of the on-disk entry envelope; bumping it invalidates
#: (ignores) every entry written by older code.
CACHE_SCHEMA_VERSION = 1


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


class DiskCacheStore:
    """File-per-digest store under one cache root; see the module docs.

    Instances are cheap (no open handles, no locks); the batch engine
    creates one per process that touches the cache directory.  Counters
    (``hits`` / ``misses`` / ``writes`` / ``corrupt``) accumulate per
    instance and are mirrored into the active metrics registry as
    ``repro_cache_{hits,misses,writes,corrupt}_total{tier=<kind>}``.
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0

    # ------------------------------------------------------------------

    def path_for(self, kind: str, digest: str) -> str:
        """Entry path for ``digest`` under the ``kind`` namespace."""
        if not digest or any(c in digest for c in "/\\."):
            raise ValueError(f"invalid cache digest {digest!r}")
        return os.path.join(self.root, kind, digest[:2], digest + ".json")

    # ------------------------------------------------------------------

    def get(self, kind: str, digest: str) -> Optional[Any]:
        """Verified body stored under ``digest``, or ``None`` (a miss).

        Corrupt entries (bad JSON, wrong kind/digest, CRC mismatch) are
        removed and reported as misses after counting ``corrupt`` -- the
        caller recomputes and overwrites, so damage never propagates.
        """
        path = self.path_for(kind, digest)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            self._count("misses", kind)
            return None
        body = self._verify(raw, kind, digest)
        if body is None:
            self._count("corrupt", kind)
            self._count("misses", kind)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._count("hits", kind)
        return body

    def put(self, kind: str, digest: str, body: Any) -> bool:
        """Store ``body`` under ``digest``; returns False on I/O failure.

        The write is atomic (tmp file + rename): concurrent writers of
        the same digest are last-writer-wins with no partial reads.
        """
        path = self.path_for(kind, digest)
        entry = {
            "v": CACHE_SCHEMA_VERSION,
            "k": kind,
            "d": digest,
            "c": zlib.crc32(_canonical(body).encode("utf-8")),
            "b": body,
        }
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_text_atomic(
                path,
                json.dumps(entry, separators=(",", ":"), allow_nan=False),
                durable=False,
            )
        except (OSError, ValueError):
            return False
        self._count("writes", kind)
        return True

    # ------------------------------------------------------------------

    @staticmethod
    def _verify(raw: bytes, kind: str, digest: str) -> Optional[Any]:
        """Parse + self-verify one entry; ``None`` when damaged/foreign."""
        try:
            # Bytes in: tampering can damage the UTF-8 encoding itself,
            # which must read as corruption, not raise past the caller.
            entry = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or "b" not in entry:
            return None
        if entry.get("v") != CACHE_SCHEMA_VERSION:
            return None
        if entry.get("k") != kind or entry.get("d") != digest:
            return None
        body = entry["b"]
        if zlib.crc32(_canonical(body).encode("utf-8")) != entry.get("c"):
            return None
        return body

    def _count(self, counter: str, kind: str) -> None:
        setattr(self, counter, getattr(self, counter) + 1)
        registry = _obs_metrics.active_metrics()
        if registry is not None:
            registry.inc(f"repro_cache_{counter}_total", tier=kind)

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Per-instance counters (JSON-ready)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }
