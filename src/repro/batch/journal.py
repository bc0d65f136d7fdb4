"""Write-ahead journal for resumable batch campaigns.

A :class:`BatchJournal` is an append-only JSON-lines file that records
the *final* outcome of every batch item as soon as it is known, so a
campaign killed at any point -- scheduler preemption, OOM kill, power
loss -- can be resumed without re-analyzing a single completed item::

    engine = BatchEngine(n_workers=8, journal="campaign.wal")
    engine.run(items)            # killed at item 1400 of 2000...
    engine = BatchEngine(n_workers=8, journal="campaign.wal", resume=True)
    engine.run(items)            # ...resumes: 1400 skipped, 600 analyzed

File format, schema 2 (one sealed JSON object per line, see
:func:`repro.ioutil.seal`):

* **Header** (first line): ``{"c":<crc32>,"h":{...}}`` where ``h``
  carries the schema version and the *campaign fingerprint* -- a digest
  over every item's content digest plus the audit flag and code
  version.  Resuming against a journal whose fingerprint does not match
  the submitted campaign is refused: a journal never silently "resumes"
  a different sweep, and a journal of another schema is refused by name.
* **Entries**: ``{"c":<crc32>,"e":{"digest":...,"index":...,
  "record":{...}}}`` -- ``record`` is the item's record exactly as
  ``repro batch`` prints it (:meth:`~repro.batch.engine.ItemResult.to_json`),
  ``digest`` the content digest of the work item (system + method +
  horizon + options), ``index`` its submission index.

Each line's ``c`` is the CRC-32 of its body's bytes exactly as written
(the text after ``"h":``/``"e":`` up to the closing brace), so a reader
checks the bytes it read and a record is journaled, resumed and
re-emitted without being encoded again.  On open, the journal is scanned
front to back; damaged lines at the very end of the file -- a final line
that is truncated or fails its seal -- are a *torn tail*, the expected
signature of a mid-``write`` kill, and are dropped (the file is
truncated back to the last good line).  A bad line *followed by good
lines* is genuine corruption and raises :class:`JournalError` instead
of being papered over.

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
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..analysis.horizon import HorizonConfig
from ..analysis.options import AnalysisOptions
from ..ioutil import seal, unseal
from ..model.io import system_to_dict
from ..model.system import System

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "BatchJournal",
    "JournalEntry",
    "JournalError",
    "campaign_fingerprint",
    "item_digest",
]

JOURNAL_SCHEMA_VERSION = 2

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
    # Digests name content, so they hash a canonical encoding.
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


class JournalEntry(NamedTuple):
    """One journaled outcome, its record kept as the text it was read as."""

    digest: str
    index: int
    text: str  #: the record's JSON text


def _entry_line(digest: str, index: int, text: str) -> str:
    body = f'{{"digest":{json.dumps(digest)},"index":{int(index)},"record":{text}}}'
    return seal("e", body) + "\n"


def _read_entry(line: bytes) -> Optional[JournalEntry]:
    """The entry a line holds, or ``None`` when the line is damaged."""
    body = unseal(line, "e")
    if body is None:
        return None
    # The digest is a JSON string, so `,"record":` first appears after it.
    head, sep, text = body.partition(',"record":')
    if not sep:
        return None
    try:
        meta = json.loads(head + "}")
        return JournalEntry(meta["digest"], meta["index"], text[:-1])
    except (ValueError, TypeError, KeyError):
        return None


def _read_header(line: bytes, path: str) -> Optional[Dict[str, Any]]:
    """The header a journal's first line holds; ``None`` when damaged.

    Kind and schema are checked before the seal, so a journal of another
    schema (which sealed its lines differently) is refused by name.
    """
    try:
        header = json.loads(line)["h"]
    except (ValueError, TypeError, KeyError):
        return None
    if not isinstance(header, dict):
        return None
    if header.get("kind") != JOURNAL_KIND:
        raise JournalError(f"{path!r} is not a {JOURNAL_KIND} file")
    if header.get("schema") != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"journal {path!r} has schema {header.get('schema')!r}; "
            f"this version reads schema {JOURNAL_SCHEMA_VERSION}"
        )
    return header if unseal(line, "h") is not None else None


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
        self._fh.write(seal("h", json.dumps(fingerprint, separators=(",", ":"))) + "\n")
        self._sync(force=True)

    def open_resume(self, fingerprint: Dict[str, Any]) -> List[JournalEntry]:
        """Scan an existing journal, drop a torn tail, reopen for append.

        Returns the recovered entries in journal order, each record kept
        as its text.  Raises :class:`JournalError` when the file is
        missing, was written by a different campaign or schema, or is
        corrupt in the middle.
        """
        header, entries, good_bytes, total_bytes = self.scan_text(self.path)
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

    def append(
        self, digest: str, index: int, record: Union[str, Dict[str, Any]]
    ) -> None:
        """Journal one item's final outcome (write-ahead of the report).

        ``record`` is the record's JSON text, written byte for byte, or a
        JSON-ready dict, encoded here as ``repro batch`` prints it.
        """
        if self._fh is None:
            raise JournalError("journal is not open for appending")
        if not isinstance(record, str):
            record = json.dumps(record, allow_nan=False)
        self._fh.write(_entry_line(digest, index, record))
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
        """:meth:`scan_text`, each entry a dict with its record parsed.

        Entries are ``{"digest", "index", "record"}`` dicts, for readers
        that inspect records rather than re-emit them.
        """
        header, entries, good_bytes, total_bytes = BatchJournal.scan_text(path)
        parsed = [
            {"digest": e.digest, "index": e.index, "record": json.loads(e.text)}
            for e in entries
        ]
        return header, parsed, good_bytes, total_bytes

    @staticmethod
    def scan_text(
        path: str,
    ) -> Tuple[Dict[str, Any], List[JournalEntry], int, int]:
        """Read a journal file, tolerating a torn tail.

        Returns ``(header, entries, good_bytes, total_bytes)`` where
        ``good_bytes`` is the offset just past the last intact line.
        ``good_bytes < total_bytes`` means a torn tail was detected (and
        should be truncated before appending).  No record is parsed.
        """
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path!r}: {exc}") from exc
        header: Optional[Dict[str, Any]] = None
        entries: List[JournalEntry] = []
        good_bytes = 0
        damaged: Optional[int] = None  # offset of the first damaged line
        for start, end in _line_spans(raw):
            line = raw[start:end]
            intact: Any = None
            if line.endswith(b"\n"):
                if start == 0:
                    intact = header = _read_header(line[:-1], path)
                else:
                    intact = _read_entry(line[:-1])
            if intact is None:
                # Damaged or unterminated: legal only as part of the
                # torn tail, which no intact line may follow.
                if damaged is None:
                    damaged = start
                continue
            if damaged is not None:
                raise JournalError(
                    f"journal {path!r} is corrupt at byte {damaged} "
                    f"(damaged line followed by an intact one)"
                )
            if start > 0:
                entries.append(intact)
            good_bytes = end
        if header is None:
            raise JournalError(
                f"journal {path!r} has no intact header "
                f"(not a batch journal, or torn before the first sync)"
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


def _line_spans(raw: bytes) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, end)`` per newline-delimited chunk of ``raw``.

    The final chunk is yielded even without a trailing newline so the
    caller can classify it as torn.
    """
    start = 0
    n = len(raw)
    while start < n:
        nl = raw.find(b"\n", start)
        end = n if nl == -1 else nl + 1
        yield start, end
        start = end
