"""Parallel batch-analysis engine with fault tolerance.

The engine fans ``(system, method)`` work items across a process pool
with chunking, per-item timeouts and graceful degradation: an analysis
error, a timed-out item or even a crashed worker process yields a
structured failure record in the :class:`BatchReport` -- a sweep never
loses items.  Each worker process keeps a persistent curve cache (see
:mod:`repro.curves.memo`) so the hot min-plus kernel is memoized across
items, and every item carries metrics (wall time, horizon doublings,
cache hits/misses) in its record.

On top of that baseline the engine layers three opt-in robustness
mechanisms (see ``docs/robustness.md``):

* **Write-ahead journal** (``journal=`` / ``resume=``): each item's
  final outcome is appended to a crash-safe JSONL journal
  (:class:`~repro.batch.journal.BatchJournal`) as soon as it is known;
  a resumed run skips every journaled item without re-analyzing it.
* **Retry with backoff + quarantine** (``retry=``): transient failures
  (timeouts, worker crashes, listed transient errors) are retried under
  a :class:`~repro.batch.retry.RetryPolicy` with deterministic
  exponential backoff; items that keep killing fresh pools or exhaust
  their attempts are *quarantined* with a reproduction payload instead
  of being retried forever.
* **Degradation ladder**: repeated failures re-run the item with
  cheaper analysis options (tighter certified compaction); a result
  obtained that way is marked ``degraded`` with the rung that succeeded.

Determinism: analysis is a pure function of ``(system, method,
horizon)``, items never share mutable state, and the report lists results
in submission order -- a batch run is bit-identical to analyzing the same
items sequentially, with or without the cache (the kernel is a pure
function of its hashed inputs).  The default configuration (no journal,
no retry policy) is byte-identical to the pre-robustness engine.

Typical use::

    from repro.batch import BatchEngine, BatchItem, RetryPolicy

    engine = BatchEngine(
        n_workers=4, timeout=30.0,
        retry=RetryPolicy(max_attempts=3),
        journal="campaign.wal", resume=True,
    )
    report = engine.run(
        [BatchItem(system, method) for system in systems for method in methods]
    )
    for rec in report:
        print(rec.item_id, rec.status, rec.schedulable)
    print(report.summary())
"""

from __future__ import annotations

import copy
import math
import os
import signal
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..analysis.admission import make_analyzer
from ..analysis.base import AnalysisResult
from ..analysis.horizon import HorizonConfig
from ..analysis.options import AnalysisOptions
from ..cache import CurveSpill, DiskCacheStore, ResultCache, result_key
from ..curves import memo
from ..model.system import System
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from ..obs.status import StatusWriter
from ..obs.trace import trace_span
from .journal import BatchJournal, campaign_fingerprint, item_digest
from .retry import (
    RetryPolicy,
    degradation_rungs,
    escalate_rung,
    quarantine_payload,
)

__all__ = [
    "BatchEngine",
    "BatchItem",
    "BatchReport",
    "ItemResult",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
    "STATUS_CRASH",
    "STATUS_QUARANTINED",
]

#: Item analyzed successfully (the result may still be unschedulable).
STATUS_OK = "ok"
#: The analyzer raised (model rejected, unknown method, ...).
STATUS_ERROR = "error"
#: The per-item timeout expired before the analysis finished.
STATUS_TIMEOUT = "timeout"
#: The worker process died; the item's chunk-mates were retried elsewhere.
STATUS_CRASH = "crash"
#: Poison item: kept killing fresh pools or exhausted its retry budget
#: with transient failures.  Carries a reproduction payload.
STATUS_QUARANTINED = "quarantined"


@dataclass(frozen=True)
class BatchItem:
    """One unit of work: analyze ``system`` with ``method``.

    ``item_id`` is an optional caller-chosen label carried through to the
    result record; it defaults to the item's submission index.
    """

    system: System
    method: str = "SPP/Exact"
    item_id: Optional[str] = None
    horizon: Optional[HorizonConfig] = None
    #: Per-item analysis options (compaction, warm start); ``None`` falls
    #: back to the engine-wide default passed to :class:`BatchEngine`.
    options: Optional[AnalysisOptions] = None


@dataclass
class ItemResult:
    """Outcome of one batch item -- success or structured failure."""

    index: int  #: submission index within the batch
    item_id: str
    method: str
    status: str  #: one of the STATUS_* constants
    result: Optional[AnalysisResult] = None  #: present iff status == "ok"
    error: Optional[str] = None  #: human-readable failure description
    wall_time: float = 0.0  #: seconds spent analyzing this item
    rounds: int = 0  #: adaptive-horizon rounds used (0 for horizon-free)
    cache_hits: int = 0  #: curve-cache hits attributable to this item
    cache_misses: int = 0
    #: Curve-cache evictions / disk-spill hits attributable to this item
    #: (report-level telemetry; not part of the JSONL record).
    cache_evictions: int = 0
    cache_disk_hits: int = 0
    audited: bool = False  #: soundness audit ran for this item
    violations: List[Dict[str, Any]] = field(default_factory=list)  #: audit findings
    #: Span snapshot captured in the worker process (pool runs with the
    #: parent tracing); ``None`` when tracing was off or the item ran
    #: serially (serial spans nest directly into the parent collector).
    trace: Optional[List[Dict[str, Any]]] = None
    #: Worker-side :meth:`MetricsRegistry.snapshot`, merged into the
    #: parent registry by :meth:`BatchEngine.run`; ``None`` as above.
    metrics: Optional[Dict[str, Any]] = None
    #: Attempt history (one dict per attempt) -- populated only when the
    #: item was retried or quarantined, so default records are unchanged.
    attempts: List[Dict[str, Any]] = field(default_factory=list)
    #: The result was obtained on a degradation rung > 0 (cheaper
    #: options than requested); ``rung`` records which one.
    degraded: bool = False
    rung: int = 0
    #: ``False`` when a per-item timeout was requested but could not be
    #: enforced on this platform/thread; ``None`` when not applicable.
    timeout_enforced: Optional[bool] = None
    #: Reproduction payload attached to quarantined items.
    quarantine: Optional[Dict[str, Any]] = None
    #: Verbatim journal record this result was resumed from (set by
    #: :meth:`from_journal`); when present, :meth:`to_dict` re-emits it
    #: unchanged so resumed reports are byte-equal to original ones.
    journal_payload: Optional[Dict[str, Any]] = None
    #: The item was skipped on resume (outcome recovered from a journal).
    resumed: bool = False
    #: The item was served from the persistent result cache
    #: (``cache_dir``) instead of being re-analyzed.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def schedulable(self) -> bool:
        """Admission verdict; a failed item conservatively rejects."""
        if self.journal_payload is not None:
            return bool(self.journal_payload.get("schedulable"))
        return bool(self.result is not None and self.result.schedulable)

    @property
    def cache_hit_rate(self) -> float:
        n = self.cache_hits + self.cache_misses
        return self.cache_hits / n if n else 0.0

    @classmethod
    def from_journal(cls, payload: Dict[str, Any], index: int) -> "ItemResult":
        """Rehydrate a result from its journal record (resume path)."""
        rec = cls(
            index=index,
            item_id=str(payload.get("id", index)),
            method=str(payload.get("method", "")),
            status=str(payload.get("status", STATUS_ERROR)),
            error=payload.get("error"),
            wall_time=float(payload.get("wall_time") or 0.0),
            rounds=int(payload.get("rounds") or 0),
            cache_hits=int(payload.get("cache_hits") or 0),
            cache_misses=int(payload.get("cache_misses") or 0),
            audited="violations" in payload,
            violations=list(payload.get("violations") or []),
            attempts=list(payload.get("attempts") or []),
            degraded=bool(payload.get("degraded")),
            rung=int(payload.get("rung") or 0),
            quarantine=payload.get("quarantine"),
        )
        rec.journal_payload = copy.deepcopy(payload)
        rec.resumed = True
        return rec

    @classmethod
    def from_cache(cls, payload: Dict[str, Any], index: int) -> "ItemResult":
        """Rehydrate a result from the persistent result cache.

        Identical to :meth:`from_journal` -- the cached value *is* the
        item's JSONL record, re-emitted verbatim -- except the item is
        flagged ``cached`` rather than ``resumed``.
        """
        rec = cls.from_journal(payload, index)
        rec.resumed = False
        rec.cached = True
        return rec

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record (the ``batch`` CLI emits one per line).

        The ``violations`` key appears only on audited items, and the
        robustness keys (``attempts``, ``degraded``/``rung``,
        ``timeout_enforced``, ``quarantine``) only when the corresponding
        mechanism actually fired -- the baseline record schema is
        unchanged for ordinary batch runs.  A resumed record re-emits its
        journal payload verbatim.
        """
        if self.journal_payload is not None:
            return copy.deepcopy(self.journal_payload)
        payload = {
            "id": self.item_id,
            "method": self.method,
            "status": self.status,
            "schedulable": self.schedulable if self.ok else None,
            "error": self.error,
            "wall_time": round(self.wall_time, 6),
            "rounds": self.rounds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "result": self.result.to_dict() if self.result is not None else None,
        }
        if self.audited:
            payload["violations"] = list(self.violations)
        if self.trace is not None:
            payload["trace"] = list(self.trace)
        if self.metrics is not None:
            payload["metrics"] = dict(self.metrics)
        if self.attempts:
            payload["attempts"] = list(self.attempts)
        if self.degraded:
            payload["degraded"] = True
            payload["rung"] = self.rung
        if self.timeout_enforced is False:
            payload["timeout_enforced"] = False
        if self.quarantine is not None:
            payload["quarantine"] = dict(self.quarantine)
        return payload


@dataclass
class BatchReport:
    """Results of one :meth:`BatchEngine.run`, in submission order."""

    results: List[ItemResult] = field(default_factory=list)
    wall_time: float = 0.0  #: end-to-end batch wall time (seconds)
    n_workers: int = 0  #: 0 = analyzed serially in the calling process

    def __iter__(self) -> Iterator[ItemResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> ItemResult:
        return self.results[index]

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def n_failed(self) -> int:
        return len(self.results) - self.n_ok

    @property
    def n_resumed(self) -> int:
        """Items recovered from the journal instead of being re-analyzed."""
        return sum(1 for r in self.results if r.resumed)

    @property
    def n_cached(self) -> int:
        """Items served from the persistent result cache."""
        return sum(1 for r in self.results if r.cached)

    @property
    def n_retried(self) -> int:
        """Items that needed more than one attempt."""
        return sum(1 for r in self.results if len(r.attempts) > 1)

    @property
    def n_quarantined(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_QUARANTINED)

    @property
    def n_degraded(self) -> int:
        return sum(1 for r in self.results if r.degraded)

    def failures(self) -> List[ItemResult]:
        return [r for r in self.results if not r.ok]

    def by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    @property
    def n_violations(self) -> int:
        """Total soundness violations found by audited items."""
        return sum(len(r.violations) for r in self.results)

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.results)

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.results)

    @property
    def cache_hit_rate(self) -> float:
        n = self.cache_hits + self.cache_misses
        return self.cache_hits / n if n else 0.0

    @property
    def cache_evictions(self) -> int:
        return sum(r.cache_evictions for r in self.results)

    @property
    def cache_disk_hits(self) -> int:
        """Curve-cache lookups served from the disk spill."""
        return sum(r.cache_disk_hits for r in self.results)

    @property
    def items_per_second(self) -> float:
        return len(self.results) / self.wall_time if self.wall_time > 0 else math.inf

    def summary(self) -> str:
        status = " ".join(f"{k}={v}" for k, v in sorted(self.by_status().items()))
        text = (
            f"batch: {len(self.results)} items in {self.wall_time:.2f}s "
            f"({self.items_per_second:.1f} items/s, "
            f"workers={self.n_workers or 'serial'}) [{status}] "
            f"cache hit rate {100.0 * self.cache_hit_rate:.1f}% "
            f"({self.cache_hits} hits / {self.cache_misses} misses)"
        )
        extras = []
        if self.cache_evictions:
            extras.append(f"evictions={self.cache_evictions}")
        if self.cache_disk_hits:
            extras.append(f"disk_hits={self.cache_disk_hits}")
        if self.n_resumed:
            extras.append(f"resumed={self.n_resumed}")
        if self.n_cached:
            extras.append(f"cached={self.n_cached}")
        if self.n_retried:
            extras.append(f"retried={self.n_retried}")
        if self.n_degraded:
            extras.append(f"degraded={self.n_degraded}")
        if extras:
            text += " " + " ".join(extras)
        return text


# ----------------------------------------------------------------------
# worker-side machinery (module level so it pickles by reference)
# ----------------------------------------------------------------------

#: (index, item_id, system, method, horizon, options, audit) -- the
#: picklable record (AnalysisOptions is a frozen dataclass of scalars, so
#: it pickles cheaply by value).
_Record = Tuple[
    int, str, Any, str, Optional[HorizonConfig], Optional[AnalysisOptions], bool
]


class _ItemTimeout(Exception):
    """Internal: raised inside a work item when its time budget expires."""


#: One warning per process when a requested timeout cannot be enforced.
_TIMEOUT_WARNED = False


@contextmanager
def _item_timeout(seconds: Optional[float]):
    """Arm a wall-clock alarm for one item (POSIX main thread only).

    Analysis code is pure Python/numpy, so SIGALRM is delivered between
    bytecodes and surfaces here as :class:`_ItemTimeout`.  Yields an info
    dict whose ``"enforced"`` key is ``None`` when no timeout was
    requested, ``True`` when the alarm is armed, and ``False`` when a
    timeout *was* requested but cannot be enforced here (no
    ``setitimer``, or off the main thread) -- in which case a one-time
    warning is emitted and the caller records the diagnostic instead of
    silently running unbounded.
    """
    global _TIMEOUT_WARNED
    if not seconds or seconds <= 0:
        yield {"enforced": None}
        return
    if (
        not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        if not _TIMEOUT_WARNED:
            _TIMEOUT_WARNED = True
            warnings.warn(
                "per-item timeouts cannot be enforced here (setitimer "
                "unavailable or not on the main thread); items will run "
                "unbounded and carry timeout_enforced=false",
                RuntimeWarning,
                stacklevel=3,
            )
        yield {"enforced": False}
        return

    def _on_alarm(signum, frame):
        raise _ItemTimeout()

    # Restore the previous handler even when arming the timer fails or
    # the analysis raises before the alarm fires: the inner finally
    # always disarms the timer first, the outer always reinstalls.
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield {"enforced": True}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _analyze_one(
    record: _Record,
    timeout: Optional[float],
    cache: Optional[memo.CurveCache],
    capture: Optional[Dict[str, bool]] = None,
    injector: Optional[Any] = None,
    attempt: int = 1,
    options_override: Optional[AnalysisOptions] = None,
) -> ItemResult:
    index, item_id, system, method, horizon, options, audit = record
    if options_override is not None:
        options = options_override
    # Worker processes have no ambient observability state; when the
    # parent ran with tracing/metrics on, ``capture`` asks for a fresh
    # per-item collector/registry whose snapshots travel back across the
    # pool boundary in the ItemResult.  Serially ``capture`` is None and
    # spans/metrics flow straight into the parent's collectors.
    collector = registry = None
    if capture:
        if capture.get("trace"):
            collector = _obs_trace.enable_tracing(
                detail=bool(capture.get("detail"))
            )
        if capture.get("metrics"):
            registry = _obs_metrics.enable_metrics()
    try:
        before = cache.stats() if cache is not None else None
        t0 = time.perf_counter()
        result: Optional[AnalysisResult] = None
        error: Optional[str] = None
        audited = False
        timeout_enforced: Optional[bool] = None
        violations: List[Dict[str, Any]] = []
        with trace_span("batch.item", item=item_id, method=method) as span:
            try:
                with _item_timeout(timeout) as t_info:
                    timeout_enforced = t_info["enforced"]
                    if injector is not None:
                        injector.before_item(item_id, attempt, _ItemTimeout)
                    result = make_analyzer(
                        method, horizon, options=options
                    ).analyze(system)
                    if audit:
                        # Cross-validate this item's method against the
                        # simulator; findings ride along as structured
                        # violation records.
                        from ..audit.checks import cross_validate

                        outcome = cross_validate(
                            system, methods=(method,), horizon=horizon
                        )
                        audited = True
                        violations = [v.to_dict() for v in outcome.violations]
                status = STATUS_OK
            except _ItemTimeout:
                status = STATUS_TIMEOUT
                error = (
                    f"analysis exceeded the {timeout:g}s item timeout"
                    if timeout
                    else "analysis timed out"
                )
            except Exception as exc:  # AnalysisError, ValueError, ...
                status = STATUS_ERROR
                error = f"{type(exc).__name__}: {exc}"
            span.set_attrs(status=status)
        wall = time.perf_counter() - t0
        delta = cache.stats().delta(before) if cache is not None else None
        if delta is not None and result is not None:
            result.cache_stats = delta.to_dict()
        item = ItemResult(
            index=index,
            item_id=item_id,
            method=method,
            status=status,
            result=result,
            error=error,
            wall_time=wall,
            rounds=result.rounds if result is not None else 0,
            cache_hits=delta.hits if delta is not None else 0,
            cache_misses=delta.misses if delta is not None else 0,
            cache_evictions=delta.evictions if delta is not None else 0,
            cache_disk_hits=delta.disk_hits if delta is not None else 0,
            audited=audited,
            violations=violations,
            timeout_enforced=timeout_enforced,
        )
    finally:
        if collector is not None:
            _obs_trace.disable_tracing()
        if registry is not None:
            _obs_metrics.disable_metrics()
    if collector is not None:
        item.trace = collector.snapshot()
    if registry is not None:
        item.metrics = registry.snapshot()
    return item


def _worker_chunk(payload) -> Dict[str, Any]:
    """Pool entry point: analyze one chunk of records in a worker process.

    The worker enables a process-persistent curve cache on first use, so
    memoized kernels survive across chunks dispatched to the same worker
    -- this is where cross-item curve reuse pays off.  The return value
    carries the chunk's pool queue wait (submit-to-start, wall clock)
    alongside the per-item results.
    """
    (
        records,
        timeout,
        use_cache,
        cache_size,
        capture,
        submitted_at,
        injector,
        attempt,
        options_override,
        cache_dir,
    ) = payload
    queue_wait = (
        max(0.0, time.time() - submitted_at) if submitted_at is not None else None
    )
    cache = memo.enable_curve_cache(cache_size) if use_cache else None
    if cache is not None and cache_dir is not None and cache.spill is None:
        # First chunk in this worker: attach the disk spill once; it (and
        # its store counters) then persists with the cache across chunks.
        cache.spill = CurveSpill(DiskCacheStore(cache_dir))
    return {
        "queue_wait": queue_wait,
        "pid": os.getpid(),
        "results": [
            _analyze_one(
                rec,
                timeout,
                cache,
                capture,
                injector=injector,
                attempt=attempt,
                options_override=options_override,
            )
            for rec in records
        ],
    }


@dataclass
class _Pending:
    """Supervision state for one record in the retry phase."""

    record: _Record
    attempt: int = 0  #: individual attempts completed so far
    rung: int = 0  #: current degradation-ladder rung
    pool_kills: int = 0  #: dedicated pools this record has killed
    log: List[Dict[str, Any]] = field(default_factory=list)

    def note(self, status: str, error: Optional[str], wall: float) -> None:
        self.log.append(
            {
                "attempt": self.attempt,
                "status": status,
                "error": error,
                "wall_time": round(wall, 6),
                "rung": self.rung,
            }
        )


class BatchEngine:
    """Fan batch items across a process pool; degrade gracefully.

    Parameters
    ----------
    n_workers:
        Worker processes.  ``None``, 0 or 1 analyze serially in the
        calling process (no pickling, still cached and timed out).
    chunksize:
        Items per pool task; ``None`` picks ``ceil(n / (4 * workers))``
        capped at 32 -- large enough to amortize pickling, small enough
        to balance stragglers.
    timeout:
        Per-item wall-clock budget in seconds (``None`` = unlimited).
        Enforced inside the worker via an interval timer, so one slow
        item is cut off without losing its chunk-mates.
    use_cache:
        Memoize the min-plus kernel per worker process (and, serially,
        per engine) via :mod:`repro.curves.memo`.
    cache_size:
        LRU capacity of each per-process curve cache.  ``None`` (the
        default) falls back to ``options.cache_size`` when set, else to
        :data:`repro.curves.memo.DEFAULT_CACHE_SIZE`.
    cache_dir:
        Root of a persistent cross-run cache (see :mod:`repro.cache`).
        Enables both tiers: whole-item records are served from /
        written to the ``results`` tier (a hit skips the analysis
        entirely and re-emits the stored record verbatim), and every
        per-process curve cache spills memoized kernels to the
        ``curves`` tier.  ``None`` (the default) touches no disk and is
        byte-identical to the pre-cache engine.
    audit:
        Cross-validate every successfully analyzed item against the
        simulator (:func:`repro.audit.checks.cross_validate`); findings
        land in :attr:`ItemResult.violations` and in the JSONL records.
    options:
        Engine-wide default :class:`~repro.analysis.AnalysisOptions`
        (compaction budget, warm start); an item's own ``options`` field
        takes precedence when set.
    retry:
        Optional :class:`~repro.batch.retry.RetryPolicy`.  ``None``
        keeps the legacy single-shot semantics (one isolation retry for
        suspects of a pool crash, nothing else) byte-identically.
    journal:
        Write-ahead journal for this campaign -- a path or a
        :class:`~repro.batch.journal.BatchJournal`.  ``None`` disables
        journaling.
    resume:
        With ``journal``: when the journal file already exists, validate
        its fingerprint against this campaign and skip every journaled
        item.  Without an existing file, a fresh journal is started.
    max_pool_restarts:
        Bound on fresh dedicated pools built during the supervised retry
        phase; beyond it, remaining suspect items are recorded as
        crashes rather than restarting pools forever.
    fault_injector:
        Chaos hook (see :mod:`repro.chaos`): a picklable object whose
        ``before_item(item_id, attempt, timeout_exc)`` runs in the worker
        ahead of each analysis.  Production runs leave this ``None``.
    status:
        Path of a live status file (see :mod:`repro.obs.status`): the
        engine atomically rewrites it at most every ``status_interval``
        seconds with progress counts, throughput/ETA, worker liveness
        and the journal position.  ``None`` (the default) publishes
        nothing.
    status_interval:
        Minimum seconds between two status-file writes.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        timeout: Optional[float] = None,
        use_cache: bool = True,
        cache_size: Optional[int] = None,
        cache_dir: Optional[str] = None,
        audit: bool = False,
        options: Optional[AnalysisOptions] = None,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[Any] = None,
        resume: bool = False,
        max_pool_restarts: int = 8,
        fault_injector: Optional[Any] = None,
        status: Optional[str] = None,
        status_interval: float = 1.0,
    ) -> None:
        if chunksize is not None and chunksize <= 0:
            raise ValueError("chunksize must be positive")
        if max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")
        if resume and journal is None:
            raise ValueError("resume=True requires a journal")
        if status_interval < 0:
            raise ValueError("status_interval must be >= 0")
        self.n_workers = int(n_workers) if n_workers else 0
        self.chunksize = chunksize
        self.timeout = timeout
        self.use_cache = use_cache
        if cache_size is None and options is not None:
            cache_size = options.cache_size
        if cache_size is None:
            cache_size = memo.DEFAULT_CACHE_SIZE
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.cache_size = int(cache_size)
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self.audit = audit
        self.options = options
        self.retry = retry
        self.journal = journal
        self.resume = resume
        self.max_pool_restarts = max_pool_restarts
        self.fault_injector = fault_injector
        self.status_path = status
        self.status_interval = status_interval
        #: Live :class:`~repro.obs.status.StatusWriter` while run() is
        #: active (the pool path feeds worker liveness through it).
        self._status: Optional[StatusWriter] = None
        # Persistent-cache plumbing: one store per engine (workers build
        # their own against the same directory).
        self._store: Optional[DiskCacheStore] = (
            DiskCacheStore(self.cache_dir) if self.cache_dir is not None else None
        )
        self._result_cache: Optional[ResultCache] = (
            ResultCache(self._store) if self._store is not None else None
        )
        # Serial-mode cache persists across run() calls, mirroring the
        # per-worker persistent caches of the pool path.
        self._serial_cache: Optional[memo.CurveCache] = (
            memo.CurveCache(
                self.cache_size,
                spill=CurveSpill(self._store)
                if self._store is not None
                else None,
            )
            if use_cache
            else None
        )

    # ------------------------------------------------------------------

    def run(self, items: Sequence[BatchItem]) -> BatchReport:
        """Analyze every item; returns a report in submission order."""
        items = list(items)
        records: List[_Record] = [
            (
                i,
                item.item_id if item.item_id is not None else str(i),
                item.system,
                item.method,
                item.horizon,
                item.options if item.options is not None else self.options,
                self.audit,
            )
            for i, item in enumerate(items)
        ]
        t0 = time.perf_counter()
        journal, digests, resumed = self._prepare_journal(records)
        pending = (
            records
            if not resumed
            else [r for r in records if r[0] not in resumed]
        )
        # Persistent result cache: serve still-pending items whose full
        # record is already stored, exactly like journal resume (the
        # cached value *is* the record, re-emitted verbatim).
        cache_keys: Optional[Dict[int, str]] = None
        cached: Optional[Dict[int, ItemResult]] = None
        if self._result_cache is not None and pending:
            cache_keys = self._cache_keys(pending, digests)
            cached = self._load_cached(pending, cache_keys)
            if cached:
                pending = [r for r in pending if r[0] not in cached]
        status = self._make_status()
        self._status = status
        try:
            with trace_span(
                "batch.run", n_items=len(records), n_workers=self.n_workers
            ) as span:
                journal_sink = self._journal_sink(journal, digests)
                on_final = self._status_sink(
                    self._result_sink(journal_sink, cache_keys), status
                )
                if status is not None:
                    status.begin(
                        total=len(records),
                        n_workers=self.n_workers,
                        journal=journal,
                    )
                    for r in (resumed or {}).values():
                        status.item_done(r.status, resumed=True)
                if cached:
                    # Journal cache hits up front (in submission order) so
                    # the journal stays complete for later resumes.
                    for index in sorted(cached):
                        r = cached[index]
                        if journal_sink is not None:
                            journal_sink(r)
                        if status is not None:
                            status.item_done(r.status, cached=True)
                if self.n_workers > 1 and len(pending) > 1:
                    results = self._run_pool(pending, on_final)
                    n_workers = self.n_workers
                else:
                    results = self._run_serial(pending, on_final)
                    n_workers = 0
                if cached:
                    results.extend(cached.values())
                if resumed:
                    results.extend(resumed.values())
                results.sort(key=lambda r: r.index)
                self._merge_observability(results)
                span.set_attrs(n_ok=sum(1 for r in results if r.ok))
        finally:
            self._status = None
            if status is not None:
                status.finish()
            if journal is not None:
                journal.close()
        return BatchReport(
            results=results,
            wall_time=time.perf_counter() - t0,
            n_workers=n_workers,
        )

    def run_systems(
        self,
        systems: Iterable[System],
        method: str = "SPP/Exact",
        horizon: Optional[HorizonConfig] = None,
        options: Optional[AnalysisOptions] = None,
    ) -> BatchReport:
        """Convenience wrapper: one item per system, a single method."""
        return self.run(
            [
                BatchItem(system=s, method=method, horizon=horizon, options=options)
                for s in systems
            ]
        )

    # ------------------------------------------------------------------
    # journal plumbing
    # ------------------------------------------------------------------

    def _prepare_journal(
        self, records: List[_Record]
    ) -> Tuple[
        Optional[BatchJournal],
        Optional[Dict[int, str]],
        Optional[Dict[int, ItemResult]],
    ]:
        """Open/create the journal; returns (journal, digests, resumed).

        ``digests`` maps record index -> content digest, ``resumed`` maps
        record index -> rehydrated result for items recovered from an
        existing journal.  All three are ``None`` when journaling is off.
        """
        if self.journal is None:
            return None, None, None
        journal = (
            self.journal
            if isinstance(self.journal, BatchJournal)
            else BatchJournal(self.journal)
        )
        digests = {
            index: item_digest(system, method, horizon, options)
            for index, _id, system, method, horizon, options, _audit in records
        }
        fingerprint = campaign_fingerprint(list(digests.values()), audit=self.audit)
        if self.resume and os.path.exists(journal.path):
            with trace_span("batch.resume", journal=journal.path) as span:
                entries = journal.open_resume(fingerprint)
                by_digest: Dict[str, List[Dict[str, Any]]] = {}
                for entry in entries:
                    by_digest.setdefault(entry["digest"], []).append(entry)
                resumed: Dict[int, ItemResult] = {}
                for index, _id, *_rest in records:
                    bucket = by_digest.get(digests[index])
                    if bucket:
                        entry = bucket.pop(0)
                        resumed[index] = ItemResult.from_journal(
                            entry["record"], index
                        )
                span.set_attrs(
                    n_entries=len(entries),
                    n_skipped=len(resumed),
                    torn_tail=journal.torn_tail_dropped,
                )
            registry = _obs_metrics.active_metrics()
            if registry is not None:
                registry.inc(
                    "repro_batch_resume_skipped_total", value=len(resumed)
                )
                if journal.torn_tail_dropped:
                    registry.inc("repro_batch_journal_torn_tails_total")
            return journal, digests, resumed
        journal.create(fingerprint)
        return journal, digests, None

    def _journal_sink(
        self,
        journal: Optional[BatchJournal],
        digests: Optional[Dict[int, str]],
    ) -> Optional[Callable[[ItemResult], None]]:
        if journal is None or digests is None:
            return None

        registry = _obs_metrics.active_metrics()

        def sink(item: ItemResult) -> None:
            journal.append(digests[item.index], item.index, item.to_dict())
            if registry is not None:
                registry.inc("repro_batch_journal_records_total")

        return sink

    # ------------------------------------------------------------------
    # persistent result-cache plumbing
    # ------------------------------------------------------------------

    def _cache_keys(
        self, records: List[_Record], digests: Optional[Dict[int, str]]
    ) -> Dict[int, str]:
        """Result-cache key per record index (content digest x context).

        Journal digests are reused when journaling is on, so the two
        mechanisms share one key space by construction.
        """
        keys: Dict[int, str] = {}
        for record in records:
            index, _id, system, method, horizon, options, audit = record
            digest = (
                digests[index]
                if digests is not None
                else item_digest(system, method, horizon, options)
            )
            keys[index] = result_key(
                digest,
                audit=audit,
                convergence=options is not None and options.convergence,
            )
        return keys

    def _load_cached(
        self, records: List[_Record], keys: Dict[int, str]
    ) -> Dict[int, ItemResult]:
        """Records whose full result is already in the persistent cache."""
        assert self._result_cache is not None
        cached: Dict[int, ItemResult] = {}
        for record in records:
            index = record[0]
            payload = self._result_cache.get(keys[index])
            if payload is not None:
                cached[index] = ItemResult.from_cache(payload, index)
        return cached

    def _result_sink(
        self,
        on_final: Optional[Callable[[ItemResult], None]],
        keys: Optional[Dict[int, str]],
    ) -> Optional[Callable[[ItemResult], None]]:
        """Compose ``on_final`` with result-cache write-through.

        Only clean first-try successes are stored: a retried, degraded,
        unenforced-timeout or failed record reflects this run's
        environment, not the item.  Worker trace/metrics snapshots are
        stripped before storing -- they describe this run, not the item,
        and would replay stale observability.  Resumed/cached records
        (``journal_payload`` set) are already in the cache.
        """
        if self._result_cache is None or keys is None:
            return on_final
        result_cache = self._result_cache

        def sink(item: ItemResult) -> None:
            if on_final is not None:
                on_final(item)
            if (
                item.ok
                and not item.degraded
                and not item.attempts
                and item.journal_payload is None
                and item.timeout_enforced is not False
                and item.index in keys
            ):
                record = item.to_dict()
                record.pop("trace", None)
                record.pop("metrics", None)
                result_cache.put(keys[item.index], record)

        return sink

    # ------------------------------------------------------------------
    # live status plumbing
    # ------------------------------------------------------------------

    def _make_status(self) -> Optional[StatusWriter]:
        if self.status_path is None:
            return None
        return StatusWriter(
            self.status_path,
            campaign="batch",
            interval=self.status_interval,
        )

    @staticmethod
    def _status_sink(
        on_final: Optional[Callable[[ItemResult], None]],
        status: Optional[StatusWriter],
    ) -> Optional[Callable[[ItemResult], None]]:
        """Compose the journal sink with per-item status accounting."""
        if status is None:
            return on_final

        def sink(item: ItemResult) -> None:
            if on_final is not None:
                on_final(item)
            status.item_done(item.status, retried=len(item.attempts) > 1)

        return sink

    # ------------------------------------------------------------------

    @staticmethod
    def _merge_observability(results: List[ItemResult]) -> None:
        """Fold worker-side snapshots into the parent's collectors.

        Called inside the open ``batch.run`` span, so ingested sub-traces
        re-root under it; worker metric snapshots add into the parent
        registry (counters/histograms sum, gauges overwrite).  Per-item
        status counters land either way.
        """
        collector = _obs_trace.active_collector()
        registry = _obs_metrics.active_metrics()
        for item in results:
            if collector is not None and item.trace:
                collector.ingest(item.trace)
            if registry is not None and item.metrics:
                registry.merge(item.metrics)
            if registry is not None:
                registry.inc(
                    "repro_batch_items_total",
                    status=item.status,
                    method=item.method,
                )

    # ------------------------------------------------------------------
    # serial path
    # ------------------------------------------------------------------

    def _run_serial(
        self,
        records: List[_Record],
        on_final: Optional[Callable[[ItemResult], None]] = None,
    ) -> List[ItemResult]:
        if self._serial_cache is not None:
            with memo.curve_cache(cache=self._serial_cache) as cache:
                return [
                    self._serial_item(r, cache, on_final) for r in records
                ]
        return [self._serial_item(r, None, on_final) for r in records]

    def _serial_item(
        self,
        record: _Record,
        cache: Optional[memo.CurveCache],
        on_final: Optional[Callable[[ItemResult], None]],
    ) -> ItemResult:
        policy = self.retry
        injector = self.fault_injector
        item = _analyze_one(
            record, self.timeout, cache, injector=injector, attempt=1
        )
        if policy is not None and policy.should_retry(1, item.status, item.error):
            pending = _Pending(record=record, attempt=1)
            pending.note(item.status, item.error, item.wall_time)
            rungs = (
                degradation_rungs(record[5]) if policy.degrade else [record[5]]
            )
            while policy.should_retry(pending.attempt, item.status, item.error):
                pending.rung = escalate_rung(
                    pending.rung, len(rungs), pending.attempt
                )
                self._backoff(policy, pending)
                with trace_span(
                    "batch.retry",
                    item=record[1],
                    attempt=pending.attempt + 1,
                    rung=pending.rung,
                ):
                    item = _analyze_one(
                        record,
                        self.timeout,
                        cache,
                        injector=injector,
                        attempt=pending.attempt + 1,
                        options_override=rungs[pending.rung],
                    )
                pending.attempt += 1
                pending.note(item.status, item.error, item.wall_time)
                self._count_retry(item.status)
            item = self._finalize_pending(pending, item)
        if on_final is not None:
            on_final(item)
        return item

    # ------------------------------------------------------------------
    # pool path
    # ------------------------------------------------------------------

    def _chunk(self, records: List[_Record]) -> List[List[_Record]]:
        size = self.chunksize
        if size is None:
            size = max(1, min(32, -(-len(records) // (4 * self.n_workers))))
        return [records[i : i + size] for i in range(0, len(records), size)]

    def _payload(
        self,
        chunk: List[_Record],
        capture: Optional[Dict[str, bool]],
        attempt: int = 1,
        options_override: Optional[AnalysisOptions] = None,
    ):
        return (
            chunk,
            self.timeout,
            self.use_cache,
            self.cache_size,
            capture,
            time.time(),
            self.fault_injector,
            attempt,
            options_override,
            self.cache_dir,
        )

    def _run_pool(
        self,
        records: List[_Record],
        on_final: Optional[Callable[[ItemResult], None]] = None,
    ) -> List[ItemResult]:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        policy = self.retry
        capture: Optional[Dict[str, bool]] = {
            "trace": _obs_trace.tracing_enabled(),
            "detail": _obs_trace.detail_enabled(),
            "metrics": _obs_metrics.metrics_enabled(),
        }
        if not (capture["trace"] or capture["metrics"]):
            capture = None

        results: List[ItemResult] = []
        pending: List[_Pending] = []
        registry = _obs_metrics.active_metrics()

        def finish(item: ItemResult) -> None:
            results.append(item)
            if on_final is not None:
                on_final(item)

        def take(chunk_payload: Dict[str, Any]) -> None:
            if chunk_payload.get("queue_wait") is not None and registry is not None:
                registry.observe(
                    "repro_batch_queue_wait_seconds",
                    chunk_payload["queue_wait"],
                )
            if self._status is not None:
                self._status.worker_seen(chunk_payload.get("pid"))
            for item in chunk_payload["results"]:
                if policy is not None and policy.should_retry(
                    1, item.status, item.error
                ):
                    p = _Pending(
                        record=self._record_by_index[item.index], attempt=1
                    )
                    p.note(item.status, item.error, item.wall_time)
                    pending.append(p)
                else:
                    finish(item)

        self._record_by_index = {r[0]: r for r in records}
        with ProcessPoolExecutor(max_workers=self.n_workers) as pool:
            futures = {
                pool.submit(_worker_chunk, self._payload(chunk, capture)): chunk
                for chunk in self._chunk(records)
            }
            for fut in as_completed(futures):
                try:
                    take(fut.result())
                except Exception:  # BrokenProcessPool, result-pickling, ...
                    # A worker died (or the chunk result failed to travel
                    # back).  Innocent chunk-mates are retried one at a
                    # time below so the culprit can be pinned down.
                    pending.extend(
                        _Pending(record=rec) for rec in futures[fut]
                    )

        # Second pass: supervised isolation/retry in dedicated pools.  A
        # record that keeps breaking its pool is quarantined (with a
        # retry policy) or reported as a crash (without); everything else
        # comes back with a real result.
        self._supervise(pending, capture, finish)
        return results

    def _supervise(
        self,
        pending: List[_Pending],
        capture: Optional[Dict[str, bool]],
        finish: Callable[[ItemResult], None],
    ) -> None:
        """Drain the retry/isolation queue through dedicated pools.

        Each queue entry runs alone in a single-worker pool, so a death
        is unambiguously attributable.  Pools are rebuilt after each kill
        up to ``max_pool_restarts``; past the bound, remaining entries
        are finalized as crashes instead of thrashing.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeout

        if not pending:
            return
        policy = self.retry
        registry = _obs_metrics.active_metrics()
        restarts = 0
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while pending:
                if pool is None:
                    if restarts > self.max_pool_restarts:
                        for p in pending:
                            finish(
                                self._give_up(
                                    p,
                                    "retry pool restart budget "
                                    f"({self.max_pool_restarts}) exhausted",
                                )
                            )
                        pending.clear()
                        break
                    pool = ProcessPoolExecutor(max_workers=1)
                p = pending[0]
                rungs = (
                    degradation_rungs(p.record[5])
                    if policy is not None and policy.degrade
                    else [p.record[5]]
                )
                if p.attempt >= 1 and policy is not None:
                    self._backoff(policy, p)
                attempt = p.attempt + 1
                t_run = time.perf_counter()
                with trace_span(
                    "batch.retry",
                    item=p.record[1],
                    attempt=attempt,
                    rung=p.rung,
                ):
                    try:
                        fut = pool.submit(
                            _worker_chunk,
                            self._payload(
                                [p.record],
                                capture,
                                attempt=attempt,
                                options_override=rungs[p.rung]
                                if p.rung > 0
                                else None,
                            ),
                        )
                        hang = policy.hang_timeout if policy else None
                        try:
                            chunk_result = fut.result(timeout=hang)
                        except FuturesTimeout:
                            # Hung worker: no result within the watchdog
                            # budget.  Kill it and treat as a pool death.
                            for proc in list(pool._processes.values()):
                                proc.kill()
                            pool.shutdown(wait=True, cancel_futures=True)
                            pool = None
                            raise _PoolDied(
                                f"no result within the {hang:g}s hang "
                                f"watchdog; worker killed"
                            ) from None
                    except _PoolDied as exc:
                        died = exc
                    except Exception as exc:  # noqa: BLE001 - crash isolation
                        died = exc
                        try:
                            pool.shutdown(wait=True, cancel_futures=True)
                        except Exception:  # pragma: no cover
                            pass
                        pool = None
                    else:
                        died = None
                wall = time.perf_counter() - t_run
                if died is not None:
                    restarts += 1
                    p.pool_kills += 1
                    p.attempt = attempt
                    p.note(
                        STATUS_CRASH,
                        f"worker process died while analyzing this item "
                        f"({type(died).__name__}: {died})",
                        wall,
                    )
                    if registry is not None:
                        registry.inc("repro_batch_pool_restarts_total")
                    if policy is None:
                        # Legacy semantics: one isolation try, then a
                        # structured crash record.
                        finish(_crash_result(p.record, died, wall=wall))
                        pending.pop(0)
                    elif p.pool_kills >= policy.max_pool_kills:
                        finish(
                            self._quarantine(
                                p,
                                f"killed {p.pool_kills} dedicated pools",
                            )
                        )
                        pending.pop(0)
                    elif attempt >= policy.max_attempts:
                        finish(
                            self._quarantine(
                                p,
                                f"still crashing after {attempt} attempts",
                            )
                        )
                        pending.pop(0)
                    else:
                        self._count_retry(STATUS_CRASH)
                        p.rung = escalate_rung(p.rung, len(rungs), attempt)
                    continue  # rebuild the pool for whoever is next

                item = chunk_result["results"][0]
                p.attempt = attempt
                p.note(item.status, item.error, item.wall_time)
                if policy is not None and policy.should_retry(
                    attempt, item.status, item.error
                ):
                    self._count_retry(item.status)
                    p.rung = escalate_rung(p.rung, len(rungs), attempt)
                    continue  # same pool, next attempt
                finish(self._finalize_pending(p, item))
                pending.pop(0)
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # retry bookkeeping shared by serial and pool paths
    # ------------------------------------------------------------------

    @staticmethod
    def _backoff(policy: RetryPolicy, p: _Pending) -> None:
        delay = policy.delay(p.attempt, key=p.record[1])
        if delay > 0:
            time.sleep(delay)

    @staticmethod
    def _count_retry(status: str) -> None:
        registry = _obs_metrics.active_metrics()
        if registry is not None:
            registry.inc("repro_batch_retries_total", status=status)

    def _finalize_pending(self, p: _Pending, item: ItemResult) -> ItemResult:
        """Attach retry history to a final result; quarantine exhaustion."""
        policy = self.retry
        if (
            policy is not None
            and not item.ok
            and policy.is_transient(item.status, item.error)
        ):
            # Attempts exhausted on a transient failure: poison item.
            return self._quarantine(
                p,
                f"transient '{item.status}' persisted through "
                f"{p.attempt} attempts",
            )
        if len(p.log) > 1:
            item.attempts = list(p.log)
        if item.ok and p.rung > 0:
            item.degraded = True
            item.rung = p.rung
        return item

    def _quarantine(self, p: _Pending, reason: str) -> ItemResult:
        index, item_id, system, method, horizon, options, _audit = p.record
        registry = _obs_metrics.active_metrics()
        if registry is not None:
            registry.inc("repro_batch_quarantined_total")
        last_error = p.log[-1]["error"] if p.log else None
        return ItemResult(
            index=index,
            item_id=item_id,
            method=method,
            status=STATUS_QUARANTINED,
            error=f"quarantined: {reason}"
            + (f" (last: {last_error})" if last_error else ""),
            wall_time=sum(e.get("wall_time", 0.0) for e in p.log),
            attempts=list(p.log),
            quarantine=quarantine_payload(
                system, method, horizon, options, p.log, reason
            ),
        )

    def _give_up(self, p: _Pending, reason: str) -> ItemResult:
        index, item_id, _system, method, *_ = p.record
        return ItemResult(
            index=index,
            item_id=item_id,
            method=method,
            status=STATUS_CRASH,
            wall_time=sum(e.get("wall_time", 0.0) for e in p.log),
            attempts=list(p.log) if len(p.log) > 1 else [],
            error=f"worker supervision gave up: {reason}",
        )


class _PoolDied(RuntimeError):
    """Internal: a dedicated retry pool died or was killed by the watchdog."""


def _crash_result(record: _Record, exc: Exception, wall: float = 0.0) -> ItemResult:
    index, item_id, _system, method, _horizon, _options, _audit = record
    return ItemResult(
        index=index,
        item_id=item_id,
        method=method,
        status=STATUS_CRASH,
        wall_time=wall,
        error=f"worker process died while analyzing this item "
        f"({type(exc).__name__}: {exc})",
    )
