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

* **Never a wrong answer.**  An entry is one sealed JSON object
  (:func:`repro.ioutil.seal`), schema 2::

      {"v":2,"k":"<kind>","d":"<digest>","c":<crc>,"b":<body>}

  where ``c`` is the CRC-32 of the body's bytes exactly as written.
  :meth:`~DiskCacheStore.get_text` checks the version, kind, digest and
  CRC of the bytes it read on every read, without re-encoding anything.
  A tampered, torn or truncated entry -- or a foreign file that happens
  to sit at the right path, or an entry of another schema -- is counted
  in ``repro_cache_corrupt_total``, unlinked (best effort) and reported
  as a miss, so the caller silently recomputes.
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
from typing import Any, Dict, Optional

from ..ioutil import seal, unseal, write_text_atomic
from ..obs import metrics as _obs_metrics

__all__ = ["CACHE_SCHEMA_VERSION", "DiskCacheStore"]

#: Version of the on-disk entry envelope; bumping it invalidates
#: (recomputes) every entry written by older code.
CACHE_SCHEMA_VERSION = 2


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

    def get_text(self, kind: str, digest: str) -> Optional[str]:
        """Verified body text stored under ``digest``, or ``None`` (a miss).

        Corrupt entries (a damaged seal, another schema, kind or digest,
        a CRC mismatch) are removed and reported as misses after
        counting ``corrupt`` -- the caller recomputes and overwrites, so
        damage never propagates.
        """
        path = self.path_for(kind, digest)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            self._count("misses", kind)
            return None
        text = unseal(raw, "b", self._head(kind, digest))
        if text is None:
            self._count("corrupt", kind)
            self._count("misses", kind)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._count("hits", kind)
        return text

    def get(self, kind: str, digest: str) -> Optional[Any]:
        """The body stored under ``digest``, parsed; ``None`` on a miss."""
        text = self.get_text(kind, digest)
        return None if text is None else json.loads(text)

    def put_text(self, kind: str, digest: str, text: str) -> bool:
        """Store the JSON ``text`` under ``digest``; False on I/O failure.

        The text is written byte for byte and sealed by its CRC.  The
        write is atomic (tmp file + rename): concurrent writers of the
        same digest are last-writer-wins with no partial reads.
        """
        path = self.path_for(kind, digest)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_text_atomic(
                path, seal("b", text, self._head(kind, digest)), durable=False
            )
        except (OSError, ValueError):
            return False
        self._count("writes", kind)
        return True

    def put(self, kind: str, digest: str, body: Any) -> bool:
        """Store ``body`` as strict JSON; False when it cannot be stored."""
        try:
            text = json.dumps(body, allow_nan=False)
        except ValueError:
            return False
        return self.put_text(kind, digest, text)

    # ------------------------------------------------------------------

    @staticmethod
    def _head(kind: str, digest: str) -> str:
        """The members an entry carries before its seal."""
        return (
            f'"v":{CACHE_SCHEMA_VERSION},"k":{json.dumps(kind)},'
            f'"d":{json.dumps(digest)},'
        )

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
