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

import json
import math
import os
import signal
import threading
import time
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..analysis.admission import make_analyzer
from ..analysis.base import AnalysisResult
from ..analysis.horizon import HorizonConfig
from ..analysis.options import AnalysisOptions
from ..cache import DiskCacheStore, ResultCache, result_key
from ..curves import audit_checks, memo
from ..model.system import System
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from ..obs.status import StatusWriter
from ..obs.trace import trace_span
from .journal import BatchJournal, campaign_fingerprint, item_digest
from .retry import (
    MAX_POOL_KILLS,
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

#: Bound on fresh one-worker pools built after worker deaths while items
#: run one at a time; beyond it, the remaining items are recorded as
#: crashes rather than restarting pools forever.
MAX_POOL_RESTARTS = 8


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
    #: Per-item analysis options (compaction); ``None`` falls
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
    #: Curve-cache evictions attributable to this item (report-level
    #: telemetry; not part of the JSONL record).
    cache_evictions: int = 0
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
    #: The record's JSON text, for a record read back from a journal or
    #: the result cache (:meth:`from_text`): :meth:`to_json` re-emits it
    #: verbatim, so resumed and cached records are byte-equal to the run
    #: that wrote them.
    text: Optional[str] = None
    #: Admission verdict of a record read back from text (it has no
    #: ``result``).
    verdict: bool = False
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
        return self.result.schedulable if self.result is not None else self.verdict

    @property
    def cache_hit_rate(self) -> float:
        n = self.cache_hits + self.cache_misses
        return self.cache_hits / n if n else 0.0

    @classmethod
    def from_text(cls, text: str, index: int, cached: bool = False) -> "ItemResult":
        """Rehydrate a record from its JSON text: resumed, or ``cached``.

        The text is parsed once, for the fields the report reads; the
        record keeps the text, not the parse.
        """
        payload = json.loads(text)
        return cls(
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
            text=text,
            verdict=bool(payload.get("schedulable")),
            resumed=not cached,
            cached=cached,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record (the ``batch`` CLI emits one per line).

        The ``violations`` key appears only on audited items, and the
        robustness keys (``attempts``, ``degraded``/``rung``,
        ``timeout_enforced``, ``quarantine``) only when the corresponding
        mechanism actually fired -- the baseline record schema is
        unchanged for ordinary batch runs.  A record read back from text
        returns a parse of that text.
        """
        if self.text is not None:
            return json.loads(self.text)
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

    def to_json(self) -> str:
        """The record as one strict JSON line, as ``repro batch`` prints it.

        A record read back from text returns that text unchanged.
        """
        if self.text is not None:
            return self.text
        return json.dumps(self.to_dict(), allow_nan=False)


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
        """Always 0: the curve cache has no disk tier any more.

        Kept for callers written against the two-tier cache.
        """
        return 0

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


@dataclass(frozen=True)
class _Chunk:
    """One executor task: ``(index, item)`` work and how to run it.

    Pool workers receive it by pickle, so every field must pickle.
    The capture flags ask a pool worker to record spans and metrics per
    item for the parent; in-process chunks leave them off, because their
    spans and metrics reach the parent's collectors directly.
    """

    items: Tuple[Tuple[int, BatchItem], ...]
    attempt: int
    timeout: Optional[float]
    audit: bool
    #: Capacity of the worker's curve cache; ``None`` runs uncached.
    cache_size: Optional[int]
    injector: Optional[Any]
    trace: bool
    detail: bool
    metrics: bool


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
    index: int,
    item: BatchItem,
    work: _Chunk,
    cache: Optional[memo.CurveCache],
) -> ItemResult:
    # Worker processes have no ambient observability state; when the
    # parent traces or meters, the chunk asks for a fresh per-item
    # collector/registry whose snapshots travel back across the pool
    # boundary in the ItemResult.
    collector = _obs_trace.enable_tracing(detail=work.detail) if work.trace else None
    registry = _obs_metrics.enable_metrics() if work.metrics else None
    try:
        before = cache.stats() if cache is not None else None
        t0 = time.perf_counter()
        result: Optional[AnalysisResult] = None
        error: Optional[str] = None
        audited = False
        timeout_enforced: Optional[bool] = None
        violations: List[Dict[str, Any]] = []
        with trace_span("batch.item", item=item.item_id, method=item.method) as span:
            try:
                with _item_timeout(work.timeout) as t_info:
                    timeout_enforced = t_info["enforced"]
                    if work.injector is not None:
                        work.injector.before_item(
                            item.item_id, work.attempt, _ItemTimeout
                        )
                    if work.audit:
                        # Check the item's own result against the
                        # simulator; findings ride along as structured
                        # violation records.
                        from ..audit.checks import check_results, make_audit_analyzer

                        analyzer = make_audit_analyzer(
                            item.method, item.horizon, options=item.options
                        )
                        with audit_checks():
                            result = analyzer.analyze(item.system)
                        outcome = check_results(item.system, [(analyzer, result)])
                        violations = [v.to_dict() for v in outcome.violations]
                        audited = True
                    else:
                        result = make_analyzer(
                            item.method, item.horizon, options=item.options
                        ).analyze(item.system)
                status = STATUS_OK
            except _ItemTimeout:
                status = STATUS_TIMEOUT
                error = (
                    f"analysis exceeded the {work.timeout:g}s item timeout"
                    if work.timeout
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
        out = ItemResult(
            index=index,
            item_id=item.item_id,
            method=item.method,
            status=status,
            result=result,
            error=error,
            wall_time=wall,
            rounds=result.rounds if result is not None else 0,
            cache_hits=delta.hits if delta is not None else 0,
            cache_misses=delta.misses if delta is not None else 0,
            cache_evictions=delta.evictions if delta is not None else 0,
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
        out.trace = collector.snapshot()
    if registry is not None:
        out.metrics = registry.snapshot()
    return out


def _worker_chunk(
    work: _Chunk, submitted_at: float
) -> Tuple[float, int, List[ItemResult]]:
    """Pool entry point: analyze one chunk in a worker process.

    The worker enables a process-persistent curve cache on first use, so
    memoized kernels survive across chunks dispatched to the same worker
    -- this is where cross-item curve reuse pays off.  Returns the
    chunk's pool queue wait (submit-to-start, wall clock), the worker's
    pid and the per-item results.
    """
    queue_wait = max(0.0, time.time() - submitted_at)
    cache = None
    if work.cache_size is not None:
        cache = memo.enable_curve_cache(work.cache_size)
    results = [_analyze_one(i, item, work, cache) for i, item in work.items]
    return queue_wait, os.getpid(), results


# ----------------------------------------------------------------------
# executors: run chunks, yield (chunk, results or the worker's death)
# ----------------------------------------------------------------------


class _InProcess:
    """The executor with zero workers: runs chunks in the calling process.

    It never dies: :class:`~repro.chaos.ChaosInjector` downgrades its
    kills to transient errors in the supervising process.
    """

    def __init__(self, cache: Optional[memo.CurveCache]) -> None:
        self.cache = cache

    def run(self, chunks: List[_Chunk]) -> Iterator[Tuple[_Chunk, Any]]:
        for work in chunks:
            # Not ``if self.cache``: an empty CurveCache is falsy.
            with (
                memo.curve_cache(cache=self.cache)
                if self.cache is not None
                else nullcontext()
            ):
                results = [
                    _analyze_one(i, item, work, self.cache) for i, item in work.items
                ]
            yield work, results

    def close(self) -> None:
        pass


class _Pool:
    """Executor over a pool of ``n_workers`` worker processes."""

    def __init__(self, n_workers: int, status: Optional[StatusWriter]) -> None:
        # Imported here: the pool module adds ~21 ms to ``import repro``.
        from concurrent.futures import ProcessPoolExecutor

        self.pool = ProcessPoolExecutor(max_workers=n_workers)
        self.status = status

    def run(self, chunks: List[_Chunk]) -> Iterator[Tuple[_Chunk, Any]]:
        from concurrent.futures import as_completed

        registry = _obs_metrics.active_metrics()
        futures = {
            self.pool.submit(_worker_chunk, work, time.time()): work
            for work in chunks
        }
        for fut in as_completed(futures):
            try:
                queue_wait, pid, results = fut.result()
            except Exception as exc:  # BrokenProcessPool, result pickling, ...
                yield futures[fut], exc
                continue
            if registry is not None:
                registry.observe("repro_batch_queue_wait_seconds", queue_wait)
            if self.status is not None:
                self.status.worker_seen(pid)
            yield futures[fut], results

    def close(self) -> None:
        self.pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class _Tries:
    """Supervision state of one work item across its attempts."""

    index: int
    item: BatchItem  #: with ``item_id`` filled in
    attempt: int = 0  #: attempts settled so far
    rung: int = 0  #: current degradation-ladder rung
    pool_kills: int = 0  #: one-worker pools this item has killed
    log: List[Dict[str, Any]] = field(default_factory=list)


class BatchEngine:
    """Fan batch items across a process pool; degrade gracefully.

    Parameters
    ----------
    n_workers:
        Worker processes.  ``None``, 0 or 1 analyze in the calling
        process (no pickling, still cached and timed out), and so does
        any run with fewer than two items left to analyze.
    chunksize:
        Items per pool task; ``None`` picks ``ceil(n / (4 * workers))``
        capped at 32 -- large enough to amortize pickling, small enough
        to balance stragglers.
    timeout:
        Per-item wall-clock budget in seconds (``None`` = unlimited).
        Enforced inside the worker via an interval timer, so one slow
        item is cut off without losing its chunk-mates.
    use_cache:
        Memoize the min-plus kernel per worker process (and, in process,
        per engine) via :mod:`repro.curves.memo`.
    cache_size:
        LRU capacity of each per-process curve cache.  ``None`` (the
        default) keeps :data:`repro.curves.memo.DEFAULT_CACHE_SIZE`.
        Memoized values are exact, so the capacity never changes a
        bound, a journal digest or a result-cache key.
    cache_dir:
        Root of a persistent cross-run result cache (see
        :mod:`repro.cache`): whole-item records are served from /
        written to its ``results`` directory (a hit skips the analysis
        entirely and re-emits the stored record verbatim).  ``None``
        (the default) touches no disk and is byte-identical to the
        pre-cache engine.
    audit:
        Analyze every item once with curve invariant checks on, then
        check its result against the simulator
        (:func:`repro.audit.checks.check_results`); findings land in
        :attr:`ItemResult.violations` and in the JSONL records.
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
        retry: Optional[RetryPolicy] = None,
        journal: Optional[Any] = None,
        resume: bool = False,
        fault_injector: Optional[Any] = None,
        status: Optional[str] = None,
        status_interval: float = 1.0,
    ) -> None:
        if n_workers is not None and n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        if chunksize is not None and chunksize <= 0:
            raise ValueError("chunksize must be positive")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if resume and journal is None:
            raise ValueError("resume=True requires a journal")
        if status_interval < 0:
            raise ValueError("status_interval must be >= 0")
        self.n_workers = int(n_workers) if n_workers else 0
        self.chunksize = chunksize
        self.timeout = timeout
        self.use_cache = use_cache
        if cache_size is None:
            cache_size = memo.DEFAULT_CACHE_SIZE
        if cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        self.cache_size = int(cache_size)
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self.audit = audit
        self.retry = retry
        self.journal = journal
        self.resume = resume
        self.fault_injector = fault_injector
        self.status_path = status
        self.status_interval = status_interval
        self._result_cache: Optional[ResultCache] = (
            ResultCache(DiskCacheStore(self.cache_dir))
            if self.cache_dir is not None
            else None
        )
        # The in-process curve cache persists across run() calls,
        # mirroring the per-worker persistent caches of the pool.
        self._serial_cache: Optional[memo.CurveCache] = (
            memo.CurveCache(self.cache_size) if use_cache else None
        )

    # ------------------------------------------------------------------

    def run(self, items: Sequence[BatchItem]) -> BatchReport:
        """Analyze every item; returns a report in submission order."""
        work = [
            (i, replace(item, item_id=str(i) if item.item_id is None else item.item_id))
            for i, item in enumerate(items)
        ]
        t0 = time.perf_counter()
        # Journal and result cache share one key space: content digests.
        digests: Dict[int, str] = {}
        if self.journal is not None or self._result_cache is not None:
            digests = {
                i: item_digest(item.system, item.method, item.horizon, item.options)
                for i, item in work
            }
        journal, resumed = self._open_journal(work, digests)
        pending = [w for w in work if w[0] not in resumed]
        # Persistent result cache: serve still-pending items whose full
        # record is already stored, exactly like journal resume (the
        # cached value *is* the record's text, re-emitted verbatim).
        keys: Dict[int, str] = {}
        cached: Dict[int, ItemResult] = {}
        if self._result_cache is not None:
            for i, item in pending:
                keys[i] = result_key(
                    digests[i],
                    audit=self.audit,
                    convergence=item.options is not None and item.options.convergence,
                )
                text = self._result_cache.get_text(keys[i])
                if text is not None:
                    cached[i] = ItemResult.from_text(text, i, cached=True)
            pending = [w for w in pending if w[0] not in cached]
        status = (
            StatusWriter(
                self.status_path, campaign="batch", interval=self.status_interval
            )
            if self.status_path is not None
            else None
        )
        registry = _obs_metrics.active_metrics()

        def emit(rec: ItemResult) -> None:
            """Journal, cache and count one final record, in that order.

            Resumed records are already journaled and cached records
            already cached, so each skips those steps.  A fresh record is
            encoded once; a record read back from text is journaled as
            that text.
            """
            text = None
            if journal is not None and not rec.resumed:
                text = rec.to_json()
                journal.append(digests[rec.index], rec.index, text)
                if registry is not None:
                    registry.inc("repro_batch_journal_records_total")
            if (
                rec.index in keys
                and rec.text is None
                and rec.ok
                and not rec.degraded
                and not rec.attempts
                and rec.timeout_enforced is not False
            ):
                # Only clean first-try successes describe the item rather
                # than this run's environment.  Worker trace/metrics
                # snapshots describe this run too, so they are stripped.
                if rec.trace is not None or rec.metrics is not None:
                    text = replace(rec, trace=None, metrics=None).to_json()
                elif text is None:
                    text = rec.to_json()
                self._result_cache.put(keys[rec.index], text)
            if status is not None:
                status.item_done(
                    rec.status,
                    resumed=rec.resumed,
                    cached=rec.cached,
                    retried=len(rec.attempts) > 1,
                )

        n_workers = self.n_workers if self.n_workers > 1 and len(pending) > 1 else 0
        try:
            with trace_span(
                "batch.run", n_items=len(work), n_workers=self.n_workers
            ) as span:
                if status is not None:
                    status.begin(
                        total=len(work), n_workers=self.n_workers, journal=journal
                    )
                # Cache hits are journaled up front, in submission order,
                # so the journal stays complete for later resumes.
                for rec in [*resumed.values(), *(cached[i] for i in sorted(cached))]:
                    emit(rec)
                results = self._execute(pending, n_workers, status, emit)
                results.extend(cached.values())
                results.extend(resumed.values())
                results.sort(key=lambda r: r.index)
                self._merge_observability(results)
                span.set_attrs(n_ok=sum(1 for r in results if r.ok))
        finally:
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

    def _open_journal(
        self, work: List[Tuple[int, BatchItem]], digests: Dict[int, str]
    ) -> Tuple[Optional[BatchJournal], Dict[int, ItemResult]]:
        """Open or create the journal; returns (journal, resumed).

        ``resumed`` maps work index -> rehydrated result for items
        recovered from an existing journal.  Without journaling it is
        ``(None, {})``.
        """
        if self.journal is None:
            return None, {}
        journal = (
            self.journal
            if isinstance(self.journal, BatchJournal)
            else BatchJournal(self.journal)
        )
        fingerprint = campaign_fingerprint(list(digests.values()), audit=self.audit)
        if not (self.resume and os.path.exists(journal.path)):
            journal.create(fingerprint)
            return journal, {}
        with trace_span("batch.resume", journal=journal.path) as span:
            entries = journal.open_resume(fingerprint)
            by_digest: Dict[str, List[str]] = {}
            for entry in entries:
                by_digest.setdefault(entry.digest, []).append(entry.text)
            resumed: Dict[int, ItemResult] = {}
            for index, _item in work:
                bucket = by_digest.get(digests[index])
                if bucket:
                    resumed[index] = ItemResult.from_text(bucket.pop(0), index)
            span.set_attrs(
                n_entries=len(entries),
                n_skipped=len(resumed),
                torn_tail=journal.torn_tail_dropped,
            )
        registry = _obs_metrics.active_metrics()
        if registry is not None:
            registry.inc("repro_batch_resume_skipped_total", value=len(resumed))
            if journal.torn_tail_dropped:
                registry.inc("repro_batch_journal_torn_tails_total")
        return journal, resumed

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
    # the supervisor
    # ------------------------------------------------------------------

    def _execute(
        self,
        work: List[Tuple[int, BatchItem]],
        n_workers: int,
        status: Optional[StatusWriter],
        emit: Callable[[ItemResult], None],
    ) -> List[ItemResult]:
        """Run ``work`` to final records, emitting each as it settles.

        A first pass runs every item once, chunked on the pool (one item
        per chunk in process, so records are emitted as they finish).
        Items whose attempt the retry policy accepts, and every item of a
        chunk whose worker died, then run one at a time: on the pool each
        runs alone in a one-worker pool, so a death is attributable.  That
        pool is rebuilt after each death, up to :data:`MAX_POOL_RESTARTS`;
        past the bound, the remaining items are recorded as crashes.
        """
        pooled = n_workers > 0
        template = _Chunk(
            items=(),
            attempt=1,
            timeout=self.timeout,
            audit=self.audit,
            cache_size=self.cache_size if self.use_cache else None,
            injector=self.fault_injector,
            trace=pooled and _obs_trace.tracing_enabled(),
            detail=pooled and _obs_trace.detail_enabled(),
            metrics=pooled and _obs_metrics.metrics_enabled(),
        )

        def executor(workers: int) -> _InProcess | _Pool:
            if workers:
                return _Pool(workers, status)
            return _InProcess(self._serial_cache)

        results: List[ItemResult] = []

        def finish(final: Optional[ItemResult]) -> bool:
            """Collect and emit a final record; ``False`` when there is none."""
            if final is None:
                return False
            results.append(final)
            emit(final)
            return True

        size = 1
        if pooled:
            size = self.chunksize or max(1, min(32, -(-len(work) // (4 * n_workers))))
        queue: List[_Tries] = []
        first = executor(n_workers)
        try:
            for chunk, outcome in first.run(
                [
                    replace(template, items=tuple(work[i : i + size]))
                    for i in range(0, len(work), size)
                ]
            ):
                # When a worker died, any chunk-mate may be the culprit:
                # each runs again alone, and this try does not count.
                dead = isinstance(outcome, Exception)
                for k, (i, item) in enumerate(chunk.items):
                    t = _Tries(i, item)
                    if dead or not finish(self._settle(t, outcome[k])):
                        queue.append(t)
        finally:
            first.close()

        solo = None
        restarts = 0
        try:
            while queue:
                t = queue[0]
                if solo is None:
                    if restarts > MAX_POOL_RESTARTS:
                        for rest in queue:
                            finish(
                                self._failure(
                                    rest,
                                    STATUS_CRASH,
                                    "worker supervision gave up: retry pool "
                                    f"restart budget ({MAX_POOL_RESTARTS}) "
                                    "exhausted",
                                )
                            )
                        break
                    solo = executor(min(n_workers, 1))
                if t.attempt and self.retry is not None:
                    delay = self.retry.delay(t.attempt, key=t.item.item_id)
                    if delay > 0:
                        time.sleep(delay)
                attempt = t.attempt + 1
                item = t.item
                if t.rung:  # a lower ladder rung replaces the item's options
                    rungs = degradation_rungs(item.options)
                    item = replace(item, options=rungs[t.rung])
                t_run = time.perf_counter()
                with trace_span(
                    "batch.retry", item=item.item_id, attempt=attempt, rung=t.rung
                ):
                    ((_chunk, outcome),) = solo.run(
                        [replace(template, items=((t.index, item),), attempt=attempt)]
                    )
                if isinstance(outcome, Exception):
                    wall = time.perf_counter() - t_run
                    solo.close()
                    solo = None
                    restarts += 1
                    registry = _obs_metrics.active_metrics()
                    if registry is not None:
                        registry.inc("repro_batch_pool_restarts_total")
                    died = (
                        "worker process died while analyzing this item "
                        f"({type(outcome).__name__}: {outcome})"
                    )
                    done = finish(self._settle(t, None, died, wall))
                else:
                    done = finish(self._settle(t, outcome[0]))
                if done:
                    queue.pop(0)
        finally:
            if solo is not None:
                solo.close()
        return results

    def _settle(
        self,
        t: _Tries,
        result: Optional[ItemResult],
        died: str = "",
        wall: float = 0.0,
    ) -> Optional[ItemResult]:
        """Settle one attempt of ``t``: its final record, or ``None`` to retry.

        ``result`` is ``None`` when the worker died running the item
        alone; ``died`` says how and ``wall`` how long the attempt took.
        Every decision is made here: finish, retry (walking the
        degradation ladder), quarantine, or record a crash.
        """
        policy = self.retry
        t.attempt += 1
        if result is not None:
            status, error, wall = result.status, result.error, result.wall_time
        else:
            status, error = STATUS_CRASH, died
        t.log.append(
            {
                "attempt": t.attempt,
                "status": status,
                "error": error,
                "wall_time": round(wall, 6),
                "rung": t.rung,
            }
        )
        if result is None:
            t.pool_kills += 1
            if policy is None:  # one isolation try, then a crash record
                return self._failure(t, STATUS_CRASH, died)
            if t.pool_kills >= MAX_POOL_KILLS:
                return self._quarantine(t, f"killed {t.pool_kills} dedicated pools")
            if t.attempt >= policy.max_attempts:
                return self._quarantine(
                    t, f"still crashing after {t.attempt} attempts"
                )
        elif policy is None or not policy.should_retry(t.attempt, status, error):
            # A transient failure is quarantined only once it was retried:
            # with max_attempts=1 it is reported as it is.
            if (
                policy is not None
                and t.attempt > 1
                and not result.ok
                and policy.is_transient(status, error)
            ):
                return self._quarantine(
                    t, f"transient '{status}' persisted through {t.attempt} attempts"
                )
            if len(t.log) > 1:
                result.attempts = list(t.log)
            if result.ok and t.rung:
                result.degraded = True
                result.rung = t.rung
            return result
        registry = _obs_metrics.active_metrics()
        if registry is not None:
            registry.inc("repro_batch_retries_total", status=status)
        n_rungs = len(degradation_rungs(t.item.options)) if policy.degrade else 1
        t.rung = escalate_rung(t.rung, n_rungs, t.attempt)
        return None

    def _quarantine(self, t: _Tries, reason: str) -> ItemResult:
        registry = _obs_metrics.active_metrics()
        if registry is not None:
            registry.inc("repro_batch_quarantined_total")
        last_error = t.log[-1]["error"]
        item = t.item
        return self._failure(
            t,
            STATUS_QUARANTINED,
            f"quarantined: {reason}" + (f" (last: {last_error})" if last_error else ""),
            quarantine_payload(
                item.system, item.method, item.horizon, item.options, t.log, reason
            ),
        )

    @staticmethod
    def _failure(
        t: _Tries,
        status: str,
        error: str,
        quarantine: Optional[Dict[str, Any]] = None,
    ) -> ItemResult:
        """A record for an item the engine gave up on, without a result."""
        return ItemResult(
            index=t.index,
            item_id=t.item.item_id,
            method=t.item.method,
            status=status,
            error=error,
            wall_time=sum(e["wall_time"] for e in t.log),
            attempts=list(t.log) if quarantine is not None or len(t.log) > 1 else [],
            quarantine=quarantine,
        )
