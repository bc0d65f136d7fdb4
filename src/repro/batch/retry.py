"""Retry, backoff, quarantine and graceful degradation for batch items.

The batch engine treats three failure statuses as *transient*: a
``timeout`` (the item may have been starved by a noisy neighbour), a
``crash`` (the worker may have died from memory pressure unrelated to
the item) and an ``error`` whose exception type is listed in
:data:`TRANSIENT_ERRORS`.  A :class:`RetryPolicy` bounds how
often such items are retried, spaces the retries with deterministic
exponential backoff + jitter, and decides when an item is *poison* --
one that keeps killing fresh pools or keeps timing out -- and must be
quarantined with a reproduction payload instead of being retried
forever.

Degradation ladder
------------------

Retrying a timed-out item with the same options usually times out again.
:func:`degradation_rungs` builds a ladder of progressively cheaper
:class:`~repro.analysis.options.AnalysisOptions` for an item:

* **rung 0** -- the item's own options, untouched;
* **rung 1** -- certified curve compaction tightened (budget halved, or
  enabled at :data:`DEGRADED_BUDGET` when it was off) -- bounds stay
  sound, they only get looser.

:func:`escalate_rung` maps an attempt's failure onto the next rung: the
first retry repeats the current rung (the fault may have been
environmental), and repeated failures step down one rung at a time.
A result that succeeds on rung > 0 is marked ``degraded`` with the rung
recorded, so looser-than-usual bounds are always attributable.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.horizon import HorizonConfig
from ..analysis.options import AnalysisOptions
from ..curves.compact import MIN_BUDGET
from ..model.io import system_to_dict
from ..model.system import System

__all__ = [
    "DEGRADED_BUDGET",
    "JITTER",
    "JITTER_SEED",
    "MAX_DELAY",
    "MAX_POOL_KILLS",
    "QUARANTINE_SCHEMA_VERSION",
    "RETRY_STATUSES",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "degradation_rungs",
    "escalate_rung",
    "quarantine_payload",
]

#: Compaction budget applied on the first degradation rung when the
#: item's own options do not compact at all.
DEGRADED_BUDGET = 64

QUARANTINE_SCHEMA_VERSION = 1

#: Statuses a :class:`RetryPolicy` retries.
RETRY_STATUSES: Tuple[str, ...] = ("timeout", "crash")

#: Exception type names whose ``error`` records are treated as transient
#: (retried like a crash) even though the worker survived.  Matched
#: against the leading ``TypeName:`` of the error string.
TRANSIENT_ERRORS: Tuple[str, ...] = ("ChaosTransientError", "OSError")

#: Relative jitter amplitude of a backoff sleep: the delay is scaled by a
#: factor drawn deterministically from ``[1 - JITTER, 1 + JITTER]`` keyed
#: on ``(JITTER_SEED, item, attempt)``, so a thundering herd of retried
#: items spreads out while runs stay reproducible.
JITTER = 0.1
JITTER_SEED = 0

#: Upper bound on a single backoff sleep (seconds).
MAX_DELAY = 30.0

#: Quarantine an item after it has killed this many one-worker pools
#: (pools running only that item) -- the unambiguous poison signature.
MAX_POOL_KILLS = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    Parameters
    ----------
    max_attempts:
        Total attempts per item, first try included.  An item never runs
        more than ``max_attempts`` times, whatever mix of timeouts,
        crashes and transient errors it produces.
    base_delay:
        Backoff before the first retry (seconds).  Retry *k* (1-based)
        waits ``base_delay * 2**(k-1)``, capped at :data:`MAX_DELAY`,
        then scaled by the :data:`JITTER` factor.  ``0`` disables
        sleeping entirely (tests, chaos runs).
    degrade:
        Walk the degradation ladder on repeated failures (see
        :func:`degradation_rungs`).  When off, every retry reuses the
        item's own options.
    """

    max_attempts: int = 3
    base_delay: float = 0.25
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")

    # ------------------------------------------------------------------

    def is_transient(self, status: str, error: Optional[str] = None) -> bool:
        """Is this outcome worth retrying at all?"""
        if status in RETRY_STATUSES:
            return True
        if status == "error" and error:
            head = error.split(":", 1)[0].strip()
            return head in TRANSIENT_ERRORS
        return False

    def should_retry(
        self, attempt: int, status: str, error: Optional[str] = None
    ) -> bool:
        """May attempt ``attempt`` (1-based) be followed by another?"""
        return attempt < self.max_attempts and self.is_transient(status, error)

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before the retry that follows attempt ``attempt``."""
        if self.base_delay <= 0:
            return 0.0
        raw = min(MAX_DELAY, self.base_delay * (2.0 ** (attempt - 1)))
        h = hashlib.blake2b(
            f"{JITTER_SEED}:{key}:{attempt}".encode("utf-8"), digest_size=8
        ).digest()
        unit = int.from_bytes(h, "big") / float(1 << 64)  # [0, 1)
        return raw * (1.0 - JITTER + 2.0 * JITTER * unit)


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------


def degradation_rungs(
    base: Optional[AnalysisOptions],
) -> List[Optional[AnalysisOptions]]:
    """The ladder of fallback options for one item, cheapest last.

    Rung 0 is always ``base`` itself (possibly ``None`` -- the exact
    default pipeline).  Later rungs are only added when they genuinely
    change something: a ladder over options that already compact at the
    floor budget is just ``[base]``.
    """
    rungs: List[Optional[AnalysisOptions]] = [base]
    opts = base if base is not None else AnalysisOptions()

    # Rung 1: a certified breakpoint budget, tighter than whatever is
    # running.
    if opts.compact_budget is None:
        budget = DEGRADED_BUDGET
    else:
        budget = max(MIN_BUDGET, opts.compact_budget // 2)
    if budget != opts.compact_budget:
        rungs.append(
            dataclasses.replace(
                opts, compact_budget=budget, compact_max_error=None
            )
        )
    return rungs


def escalate_rung(rung: int, n_rungs: int, attempt: int) -> int:
    """Rung for the retry that follows a failed ``attempt`` (1-based).

    The first retry repeats the current rung -- a lone timeout or crash
    is as likely environmental as inherent.  From the second failure on,
    each further failure steps one rung down.
    """
    if n_rungs <= 1:
        return rung
    if attempt >= 2:
        return min(rung + 1, n_rungs - 1)
    return rung


# ----------------------------------------------------------------------
# quarantine
# ----------------------------------------------------------------------


def quarantine_payload(
    system: System,
    method: str,
    horizon: Optional[HorizonConfig],
    options: Optional[AnalysisOptions],
    attempts: List[Dict[str, Any]],
    reason: str,
) -> Dict[str, Any]:
    """Self-contained reproduction payload for a quarantined item.

    Everything needed to replay the poison item offline: the system in
    its canonical (minimal) dict form -- loadable straight back through
    :func:`repro.model.io.system_from_dict` -- the exact method/horizon/
    options it ran under, the full attempt history and the quarantine
    reason.  The payload is what ``repro batch`` items are made of, so a
    quarantine record doubles as a regression-corpus entry.
    """
    try:
        system_payload: Any = system_to_dict(system)
    except Exception as exc:  # exotic/poisoned system objects
        system_payload = {
            "unserializable": f"{type(exc).__name__}: {exc}",
            "repr": repr(system)[:500],
        }
    return {
        "schema": QUARANTINE_SCHEMA_VERSION,
        "kind": "repro.batch.quarantine",
        "reason": reason,
        "method": method,
        "horizon": dataclasses.asdict(horizon) if horizon is not None else None,
        "options": dataclasses.asdict(options) if options is not None else None,
        "attempts": list(attempts),
        "system": system_payload,
    }
