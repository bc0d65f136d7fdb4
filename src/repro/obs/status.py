"""Live campaign status files: atomic, schema-versioned, torn-read safe.

A long campaign (``repro batch`` / ``audit`` / ``chaos``) is opaque until
it exits unless it publishes progress somewhere.  :class:`StatusWriter`
periodically serializes a small JSON document -- counts of items done /
failed / retried / quarantined / resumed, an EWMA throughput estimate
with an ETA, per-worker liveness, the write-ahead-journal position and an
optional metrics snapshot -- to a status file via
:func:`repro.ioutil.write_json_atomic` (tmp file + ``os.replace``), so a
reader never sees a half-written document on POSIX.  Writes are throttled
to one per ``interval`` seconds; the terminal write (``finish``) is
always emitted and fsynced.

:func:`read_status` is the tolerant counterpart: a missing, torn or
otherwise unparseable file yields ``None`` instead of raising, because a
watcher polling mid-rename (or over a non-atomic network filesystem) must
simply try again.  ``python -m repro obs watch`` builds on it.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Dict, Optional

from ..ioutil import write_json_atomic
from . import metrics as _metrics

__all__ = [
    "STATUS_SCHEMA_VERSION",
    "STATUS_KIND",
    "StatusWriter",
    "read_status",
]

#: Version of the status-file JSON schema.
STATUS_SCHEMA_VERSION = 1
#: Discriminator so readers can reject unrelated JSON files.
STATUS_KIND = "repro.status"

#: Smoothing factor for the inter-completion-time EWMA (higher = snappier).
_EWMA_ALPHA = 0.2
#: A worker is reported alive when seen within this many seconds.
_LIVENESS_WINDOW = 30.0


def _json_sanitize(value: Any) -> Any:
    """Replace non-finite floats (strict JSON rejects them) recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    return value


class StatusWriter:
    """Throttled publisher of one campaign's live status file.

    Parameters
    ----------
    path:
        Destination file; every write replaces it atomically.
    campaign:
        Free-form campaign kind shown by the watcher (``batch``,
        ``audit``, ...).
    interval:
        Minimum seconds between two non-forced writes.  ``0`` writes on
        every update (useful in tests).

    Each status document embeds a snapshot of the active
    :class:`MetricsRegistry` when one is enabled.
    """

    def __init__(
        self,
        path: str,
        campaign: str = "batch",
        interval: float = 1.0,
    ) -> None:
        if interval < 0:
            raise ValueError("interval must be >= 0")
        self.path = path
        self.campaign = campaign
        self.interval = float(interval)
        self.total = 0
        self.n_workers = 0
        self.by_status: Dict[str, int] = {}
        self.done = 0
        self.failed = 0
        self.retried = 0
        self.quarantined = 0
        self.resumed = 0
        self.cached = 0
        self.state = "starting"
        self._journal: Optional[Any] = None
        self._workers: Dict[int, float] = {}
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self._last_write_mono: Optional[float] = None
        self._last_done_mono: Optional[float] = None
        self._ewma_dt: Optional[float] = None

    # ------------------------------------------------------------------
    # producer API
    # ------------------------------------------------------------------

    def begin(
        self,
        total: int,
        n_workers: int = 0,
        journal: Optional[Any] = None,
    ) -> None:
        """Publish the initial document (always written, never throttled)."""
        self.total = int(total)
        self.n_workers = int(n_workers)
        self._journal = journal
        self.state = "running"
        if not n_workers:  # serial: the campaign process is the worker
            self.worker_seen(os.getpid())
        self.write(force=True)

    def item_done(
        self,
        status: str,
        resumed: bool = False,
        retried: bool = False,
        cached: bool = False,
    ) -> None:
        """Count one finished item and maybe publish."""
        now = time.monotonic()
        self.done += 1
        self.by_status[status] = self.by_status.get(status, 0) + 1
        if status != "ok":
            self.failed += 1
        if status == "quarantined":
            self.quarantined += 1
        if resumed:
            self.resumed += 1
        elif cached:
            self.cached += 1
        elif retried:
            self.retried += 1
        if not resumed and not cached:
            # EWMA over inter-completion gaps; resumed/cached items are
            # replayed in one burst and would skew the rate.
            if self._last_done_mono is not None:
                dt = max(1e-9, now - self._last_done_mono)
                if self._ewma_dt is None:
                    self._ewma_dt = dt
                else:
                    self._ewma_dt += _EWMA_ALPHA * (dt - self._ewma_dt)
            self._last_done_mono = now
        self.write()

    def worker_seen(self, pid: Optional[int]) -> None:
        """Note a liveness signal (any traffic) from worker ``pid``."""
        if pid is not None:
            self._workers[int(pid)] = time.monotonic()

    def finish(self, state: str = "done") -> None:
        """Publish the terminal document (durable, never throttled)."""
        self.state = state
        self.write(force=True, durable=True)

    # ------------------------------------------------------------------

    def throughput(self) -> Optional[float]:
        """EWMA completion rate in items/second (``None`` until warmed)."""
        if self._ewma_dt is None or self._ewma_dt <= 0:
            return None
        return 1.0 / self._ewma_dt

    def eta_seconds(self) -> Optional[float]:
        rate = self.throughput()
        remaining = self.total - self.done
        if rate is None or remaining <= 0:
            return None
        return remaining / rate

    def payload(self) -> Dict[str, Any]:
        """The status document (JSON-safe, schema-versioned)."""
        now_mono = time.monotonic()
        journal_block = None
        if self._journal is not None:
            journal_block = {
                "path": str(getattr(self._journal, "path", "")),
                "appended": int(getattr(self._journal, "n_appended", 0)),
            }
        doc: Dict[str, Any] = {
            "schema": STATUS_SCHEMA_VERSION,
            "kind": STATUS_KIND,
            "campaign": self.campaign,
            "state": self.state,
            "pid": os.getpid(),
            "started_at": self._started_wall,
            "updated_at": time.time(),
            "elapsed_seconds": now_mono - self._started_mono,
            "total": self.total,
            "done": self.done,
            "ok": self.by_status.get("ok", 0),
            "failed": self.failed,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "resumed": self.resumed,
            "cached": self.cached,
            "by_status": dict(sorted(self.by_status.items())),
            "throughput": self.throughput(),
            "eta_seconds": self.eta_seconds(),
            "n_workers": self.n_workers,
            "workers": {
                str(pid): round(now_mono - seen, 3)
                for pid, seen in sorted(self._workers.items())
            },
            "journal": journal_block,
        }
        registry = _metrics.active_metrics()
        if registry is not None:
            doc["metrics"] = _json_sanitize(registry.snapshot())
        return doc

    def write(self, force: bool = False, durable: bool = False) -> bool:
        """Atomically publish the document; returns True when written."""
        now = time.monotonic()
        if (
            not force
            and self._last_write_mono is not None
            and now - self._last_write_mono < self.interval
        ):
            return False
        write_json_atomic(self.path, self.payload(), durable=durable)
        self._last_write_mono = now
        return True


def read_status(path: str) -> Optional[Dict[str, Any]]:
    """Parse a status file; ``None`` on missing/torn/foreign content.

    The writer replaces the file atomically, but a reader must still
    survive the file not existing yet, being truncated by a non-atomic
    transport, or being some other JSON entirely.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("kind") != STATUS_KIND:
        return None
    if not isinstance(doc.get("schema"), int):
        return None
    return doc
