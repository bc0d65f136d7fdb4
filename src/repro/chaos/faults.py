"""Deterministic fault injectors for the batch engine.

Chaos runs must be *reproducible*: the same seed injects the same faults
into the same items, so a failing chaos campaign is a regression you can
replay, not a flake you shrug at.  Every injector here draws its faults
from a keyed hash -- no global random state, no time dependence.

:class:`ChaosInjector` is the in-band injector: the batch engine calls
``before_item(item_id, attempt, timeout_exc)`` inside the worker, right
where a real analysis would start, and the injector either returns
(no fault), raises a synthetic timeout or transient error, or SIGKILLs
the worker process mid-chunk.  The module-level helpers tamper with a
journal file *out of band*, simulating what a machine crash can do to
the last write.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "ChaosInjector",
    "ChaosTransientError",
    "corrupt_journal_tail",
    "tamper_cache_entries",
    "truncate_journal_tail",
]


class ChaosTransientError(RuntimeError):
    """Synthetic transient failure (the kind a retry should absorb).

    The class name doubles as the retry-classification key: it is listed
    in :data:`repro.batch.retry.TRANSIENT_ERRORS`, so an injected error
    is retried exactly like a real flaky I/O error.
    """


@dataclass(frozen=True)
class ChaosInjector:
    """Seed-keyed fault injector for batch work items.

    Each ``(item, attempt)`` pair gets one uniform draw in ``[0, 1)``
    from ``blake2b(seed:item:attempt)``; the draw selects at most one of
    the mutually exclusive faults by rate:

    * ``u < kill_rate`` -- SIGKILL the current worker process mid-chunk
      (downgraded to a :class:`ChaosTransientError` when running serially
      in the supervising process itself, which must survive);
    * next ``timeout_rate`` slice -- raise the engine's item-timeout
      exception, exactly as an expired SIGALRM would;
    * next ``error_rate`` slice -- raise :class:`ChaosTransientError`.

    ``max_attempt`` bounds injection to the first N attempts of an item
    (default 1): retries of a faulted item then run clean, which keeps a
    chaos campaign's *final* outcomes identical to an uninjected run --
    the equivalence the harness asserts.  Raise it to exercise the
    quarantine path instead.

    The injector is a frozen dataclass of scalars, so it pickles across
    the pool boundary unchanged.
    """

    seed: int = 0
    kill_rate: float = 0.0
    timeout_rate: float = 0.0
    error_rate: float = 0.0
    max_attempt: int = 1
    #: PID of the process that built the injector -- never SIGKILLed.
    parent_pid: int = field(default_factory=os.getpid)

    def __post_init__(self) -> None:
        total = self.kill_rate + self.timeout_rate + self.error_rate
        if min(self.kill_rate, self.timeout_rate, self.error_rate) < 0 or total > 1:
            raise ValueError("fault rates must be >= 0 and sum to <= 1")
        if self.max_attempt < 1:
            raise ValueError("max_attempt must be >= 1")

    def draw(self, item_id: str, attempt: int) -> float:
        """The uniform variate deciding item ``item_id``'s fate."""
        digest = hashlib.blake2b(
            f"{self.seed}:{item_id}:{attempt}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def fault_for(self, item_id: str, attempt: int) -> Optional[str]:
        """Which fault (``kill``/``timeout``/``error``/None) will fire.

        Pure function of the injector and its arguments -- the harness
        uses it to predict a campaign's fault schedule without running it.
        """
        if attempt > self.max_attempt:
            return None
        u = self.draw(item_id, attempt)
        if u < self.kill_rate:
            return "kill"
        if u < self.kill_rate + self.timeout_rate:
            return "timeout"
        if u < self.kill_rate + self.timeout_rate + self.error_rate:
            return "error"
        return None

    def before_item(self, item_id: str, attempt: int, timeout_exc: type) -> None:
        """Engine hook: maybe fault instead of letting the item run."""
        fault = self.fault_for(item_id, attempt)
        if fault is None:
            return
        if fault == "kill":
            if os.getpid() != self.parent_pid and hasattr(signal, "SIGKILL"):
                os.kill(os.getpid(), signal.SIGKILL)
            # Serial fallback: killing the only process would end the
            # campaign itself, so the fault degrades to a transient error.
            raise ChaosTransientError(
                f"injected worker kill for item {item_id!r} "
                f"(downgraded: running in the supervising process)"
            )
        if fault == "timeout":
            raise timeout_exc()
        raise ChaosTransientError(
            f"injected transient failure for item {item_id!r} "
            f"(attempt {attempt})"
        )


# ----------------------------------------------------------------------
# out-of-band journal tampering
# ----------------------------------------------------------------------


def truncate_journal_tail(path: str, n_bytes: int = 24) -> int:
    """Chop ``n_bytes`` off the end of a journal: a torn final write.

    Returns the number of bytes actually removed.  The resulting file
    ends mid-record, exactly like a kill between ``write`` and ``fsync``;
    a resuming engine must drop the torn record and re-analyze that item.
    """
    size = os.path.getsize(path)
    removed = min(n_bytes, size)
    with open(path, "r+b") as fh:
        fh.truncate(size - removed)
    return removed


def corrupt_journal_tail(path: str, flip: int = 5) -> int:
    """Flip bytes inside the final record without changing its length.

    Simulates a partially flushed page: the last line still *looks* like
    a line (newline intact) but fails its CRC.  Returns the file offset
    of the first corrupted byte, or -1 when the file has no final record
    to corrupt.
    """
    with open(path, "r+b") as fh:
        raw = fh.read()
        # Find the start of the last non-empty line.
        end = len(raw)
        if end and raw[end - 1 : end] == b"\n":
            end -= 1
        start = raw.rfind(b"\n", 0, end) + 1
        if start >= end:
            return -1
        target = start + (end - start) // 2
        fh.seek(target)
        original = raw[target : target + flip]
        fh.write(bytes((b ^ 0xA5) for b in original))
    return target


def tamper_cache_entries(
    cache_dir: str, seed: int = 0, fraction: float = 0.3, flip: int = 3
) -> int:
    """Flip bytes inside a deterministic subset of cache entry files.

    Simulates silent disk corruption of the persistent cache
    (:mod:`repro.cache`): the ``n`` entries under ``cache_dir`` are
    ranked by a seed-keyed hash of their filenames (stable across runs
    and directory orderings), and ``flip`` bytes in the middle of each of
    the first ``ceil(fraction * n)`` are XOR-scrambled in place -- so any
    ``fraction > 0`` tampers at least one entry of a non-empty cache.
    The store's CRC self-verification must turn every tampered entry
    into a counted miss -- recomputed, never served.  Returns the number
    of entries tampered.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    ranked = []
    for dirpath, _dirnames, filenames in os.walk(cache_dir):
        for name in filenames:
            if name.endswith(".json"):
                rank = hashlib.blake2b(
                    f"{seed}:{name}".encode("utf-8"), digest_size=8
                ).digest()
                ranked.append((rank, os.path.join(dirpath, name)))
    ranked.sort()
    tampered = 0
    for _rank, path in ranked[: math.ceil(fraction * len(ranked))]:
        with open(path, "r+b") as fh:
            raw = fh.read()
            if not raw:
                continue
            target = len(raw) // 2
            fh.seek(target)
            original = raw[target : target + flip]
            fh.write(bytes((b ^ 0xA5) for b in original))
        tampered += 1
    return tampered
