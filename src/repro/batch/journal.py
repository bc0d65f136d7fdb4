"""Write-ahead journal for resumable batch campaigns.

A :class:`BatchJournal` is an append-only JSON-lines file that records
the *final* outcome of every batch item as soon as it is known, so a
campaign killed at any point -- scheduler preemption, OOM kill, power
loss -- can be resumed without re-analyzing a single completed item::

    engine = BatchEngine(n_workers=8, journal="campaign.wal")
    engine.run(items)            # killed at item 1400 of 2000...
    engine = BatchEngine(n_workers=8, journal="campaign.wal", resume=True)
    engine.run(items)            # ...resumes: 1400 skipped, 600 analyzed

File format (one JSON object per line):

* **Header** (first line): ``{"c": <crc32>, "h": {...}}`` where ``h``
  carries the schema version and the *campaign fingerprint* -- a digest
  over every item's content digest plus the audit flag and code
  version.  Resuming against a journal whose fingerprint does not match
  the submitted campaign is refused: a journal never silently "resumes"
  a different sweep.
* **Entries**: ``{"c": <crc32>, "e": {"digest": ..., "index": ...,
  "record": {...}}}`` -- ``record`` is the item's
  :meth:`~repro.batch.engine.ItemResult.to_dict` payload, ``digest`` the
  content digest of the work item (system + method + horizon + options),
  ``index`` its submission index.

Each line's ``c`` is the CRC-32 of the canonical JSON of its body.  On
open, the journal is scanned front to back; a final line that is
truncated, fails to parse or fails its CRC is a *torn tail* -- the
expected signature of a mid-``write`` kill -- and is dropped (the file is
truncated back to the last good line).  A bad line *followed by good
lines* is genuine corruption and raises :class:`JournalError` instead of
being papered over.

Durability: every append is flushed to the OS immediately (a crashed
*process* loses nothing) and fsynced whenever ``fsync_interval`` seconds
have elapsed since the last sync (bounding what a crashed *machine* can
lose) plus once on close.  ``fsync_interval=0`` fsyncs every record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import time
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..analysis.horizon import HorizonConfig
from ..analysis.options import AnalysisOptions
from ..model.io import system_to_dict
from ..model.system import System

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "BatchJournal",
    "JournalError",
    "campaign_fingerprint",
    "item_digest",
]

JOURNAL_SCHEMA_VERSION = 1

#: Marker distinguishing a batch journal from any other JSONL file.
JOURNAL_KIND = "repro.batch.journal"


class JournalError(RuntimeError):
    """A journal could not be created, parsed or safely resumed."""


def _code_version() -> str:
    # Imported lazily: repro/__init__ pulls in repro.batch before binding
    # its own __version__, so a module-level import would be circular.
    from .. import __version__

    return __version__


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def item_digest(
    system: System,
    method: str = "SPP/Exact",
    horizon: Optional[HorizonConfig] = None,
    options: Optional[AnalysisOptions] = None,
) -> str:
    """Content digest of one work item.

    Two items get the same digest iff they are guaranteed the same
    analysis outcome: same system (canonical dict form), method, horizon
    tuning and analysis options.  Item ids and submission order do *not*
    enter the digest -- renaming or reordering a campaign keeps its
    journal valid.
    """
    opts_payload = None
    if options is not None:
        # The telemetry-only convergence flag never enters the digest, so
        # turning it on keeps a journal resumable; options that differ
        # from the defaults in nothing else hash like no options.
        options = dataclasses.replace(options, convergence=False)
        if options != AnalysisOptions():
            opts_payload = dataclasses.asdict(options)
            opts_payload.pop("convergence")
    payload = {
        "system": system_to_dict(system),
        "method": method,
        "horizon": dataclasses.asdict(horizon) if horizon is not None else None,
        "options": opts_payload,
    }
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()[:32]


def campaign_fingerprint(digests: List[str], audit: bool = False) -> Dict[str, Any]:
    """Fingerprint sealing a journal to one campaign.

    Covers the multiset of item digests (order-independently), whether
    audit mode was on (it changes record payloads), and the code version.
    Everything that can change an item's *outcome* is already inside the
    per-item digests; the fingerprint adds the campaign-level context
    worth refusing a resume over.
    """
    h = hashlib.sha256()
    for digest in sorted(digests):
        h.update(digest.encode("ascii"))
    return {
        "kind": JOURNAL_KIND,
        "schema": JOURNAL_SCHEMA_VERSION,
        "code_version": _code_version(),
        "audit": bool(audit),
        "n_items": len(digests),
        "items_digest": h.hexdigest()[:32],
    }


# ----------------------------------------------------------------------
# line framing
# ----------------------------------------------------------------------


def _frame(key: str, body: Dict[str, Any]) -> str:
    crc = zlib.crc32(_canonical(body).encode("utf-8"))
    return json.dumps({"c": crc, key: body}, separators=(",", ":"),
                      allow_nan=False) + "\n"


def _unframe(line: str, key: str) -> Optional[Dict[str, Any]]:
    """Body of a framed line, or ``None`` when the line is damaged."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict) or key not in obj or "c" not in obj:
        return None
    body = obj[key]
    if zlib.crc32(_canonical(body).encode("utf-8")) != obj["c"]:
        return None
    return body


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------


class BatchJournal:
    """Append-only outcome journal for one batch campaign.

    Use through :class:`~repro.batch.engine.BatchEngine` (``journal=`` /
    ``resume=``); the methods below are the contract the engine -- and
    the chaos harness -- rely on.
    """

    def __init__(self, path: str, fsync_interval: float = 1.0) -> None:
        self.path = os.fspath(path)
        self.fsync_interval = float(fsync_interval)
        self._fh: Optional[io.TextIOWrapper] = None
        self._last_sync = 0.0
        #: Entries appended or recovered in this process (for reporting).
        self.n_appended = 0
        self.n_recovered = 0
        self.torn_tail_dropped = False

    # -- lifecycle -----------------------------------------------------

    def create(self, fingerprint: Dict[str, Any]) -> None:
        """Start a fresh journal; refuses to clobber an existing one."""
        if os.path.exists(self.path):
            raise JournalError(
                f"journal {self.path!r} already exists; pass resume=True to "
                f"continue it (or delete it to start over)"
            )
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(_frame("h", fingerprint))
        self._sync(force=True)

    def open_resume(self, fingerprint: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Scan an existing journal, drop a torn tail, reopen for append.

        Returns the recovered entries (``{"digest", "index", "record"}``)
        in journal order.  Raises :class:`JournalError` when the file is
        missing, was written by a different campaign, or is corrupt in
        the middle.
        """
        header, entries, good_bytes, total_bytes = self.scan(self.path)
        self._check_fingerprint(header, fingerprint)
        if good_bytes < total_bytes:
            # Torn tail from a mid-write kill: truncate back to the last
            # intact line so the append stream stays well-formed.
            with open(self.path, "r+b") as fh:
                fh.truncate(good_bytes)
            self.torn_tail_dropped = True
        self._fh = open(self.path, "a", encoding="utf-8")
        self.n_recovered = len(entries)
        return entries

    def close(self) -> None:
        if self._fh is not None:
            self._sync(force=True)
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- writing -------------------------------------------------------

    def append(self, digest: str, index: int, record: Dict[str, Any]) -> None:
        """Journal one item's final outcome (write-ahead of the report)."""
        if self._fh is None:
            raise JournalError("journal is not open for appending")
        entry = {"digest": digest, "index": index, "record": record}
        self._fh.write(_frame("e", entry))
        self._fh.flush()
        self.n_appended += 1
        self._sync()

    def _sync(self, force: bool = False) -> None:
        if self._fh is None:
            return
        now = time.monotonic()
        if force or now - self._last_sync >= self.fsync_interval:
            self._fh.flush()
            try:
                os.fsync(self._fh.fileno())
            except OSError:  # pragma: no cover - exotic filesystems
                pass
            self._last_sync = now

    # -- reading -------------------------------------------------------

    @staticmethod
    def scan(
        path: str,
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]], int, int]:
        """Parse a journal file, tolerating exactly one torn final line.

        Returns ``(header, entries, good_bytes, total_bytes)`` where
        ``good_bytes`` is the offset just past the last intact line.
        ``good_bytes < total_bytes`` means a torn tail was detected (and
        should be truncated before appending).
        """
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path!r}: {exc}") from exc
        header: Optional[Dict[str, Any]] = None
        entries: List[Dict[str, Any]] = []
        good_bytes = 0
        for start, end, line in _iter_lines(raw):
            body = None
            complete = end > start and raw[end - 1 : end] == b"\n"
            if complete:
                key = "h" if header is None and not entries else "e"
                body = _unframe(line, key)
            if body is None:
                # Damaged or unterminated line: legal only at the very
                # end of the file (the torn-tail signature).
                if end < len(raw):
                    raise JournalError(
                        f"journal {path!r} is corrupt at byte {start} "
                        f"(damaged line followed by more data)"
                    )
                break
            if header is None and not entries:
                header = body
            else:
                entries.append(body)
            good_bytes = end
        if header is None:
            raise JournalError(
                f"journal {path!r} has no intact header "
                f"(not a batch journal, or torn before the first sync)"
            )
        if header.get("kind") != JOURNAL_KIND:
            raise JournalError(f"{path!r} is not a {JOURNAL_KIND} file")
        if header.get("schema") != JOURNAL_SCHEMA_VERSION:
            raise JournalError(
                f"journal {path!r} has schema {header.get('schema')!r}; "
                f"this version reads schema {JOURNAL_SCHEMA_VERSION}"
            )
        return header, entries, good_bytes, len(raw)

    # ------------------------------------------------------------------

    @staticmethod
    def _check_fingerprint(
        header: Dict[str, Any], fingerprint: Dict[str, Any]
    ) -> None:
        stale = {
            k: (header.get(k), fingerprint[k])
            for k in ("items_digest", "n_items", "audit", "code_version")
            if header.get(k) != fingerprint[k]
        }
        if stale:
            detail = ", ".join(
                f"{k}: journal={a!r} campaign={b!r}" for k, (a, b) in
                sorted(stale.items())
            )
            raise JournalError(
                f"journal fingerprint does not match the submitted campaign "
                f"({detail}); refusing to resume"
            )


def _iter_lines(raw: bytes) -> Iterator[Tuple[int, int, str]]:
    """Yield ``(start, end, text)`` per newline-delimited chunk of ``raw``.

    The final chunk is yielded even without a trailing newline so the
    caller can classify it as torn.
    """
    start = 0
    n = len(raw)
    while start < n:
        nl = raw.find(b"\n", start)
        end = n if nl == -1 else nl + 1
        yield start, end, raw[start:end].decode("utf-8", errors="replace")
        start = end
