"""Chaos harness: run a batch campaign under fault injection and prove
that crash-resume reproduces the uninterrupted run.

The harness is the executable argument for the robustness layer
(``docs/robustness.md``): it generates a deterministic campaign, runs it
once in-process with *no* faults (the baseline), then runs the same
campaign in child processes under a :class:`~repro.chaos.faults.ChaosInjector`
with a write-ahead journal -- SIGKILLing each child after a configured
number of journal appends, optionally tearing or corrupting the journal
tail between runs -- and finally resumes to completion.  It then asserts:

* **Equivalence**: the journaled outcomes match the baseline record for
  record (statuses, schedulability verdicts, response-time bounds),
  modulo timings and attempt counts.
* **No re-analysis**: the final journal holds exactly one record per
  item (unique content digests), i.e. resuming never re-ran a journaled
  item.
* **Bounded retries**: no surviving record used more attempts than the
  retry policy allows.

Campaign systems are built with :mod:`random` (stdlib) from the seed
alone, so the same seed always yields the same campaign.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..batch import BatchEngine, BatchItem, BatchJournal, JournalError, RetryPolicy
from ..model.io import system_from_dict
from ..obs.status import read_status
from .faults import (
    ChaosInjector,
    corrupt_journal_tail,
    tamper_cache_entries,
    truncate_journal_tail,
)

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "generate_campaign",
    "normalize_record",
    "run_chaos",
    "run_campaign",
]


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos experiment, fully determined by its fields."""

    n_items: int = 50
    seed: int = 7
    method: str = "SPP/Exact"
    workers: int = 2
    kill_rate: float = 0.02
    timeout_rate: float = 0.04
    error_rate: float = 0.04
    #: SIGKILL the campaign after this many journal appends, once per
    #: listed point (each subsequent run resumes before being killed).
    kill_points: Tuple[int, ...] = (7, 19)
    #: Tamper applied to the journal tail after the first kill:
    #: ``none``, ``truncate`` (torn final write) or ``corrupt`` (CRC rot).
    tamper: str = "truncate"
    max_attempts: int = 4
    #: Persistent cache root used by the injected runs (``None`` = no
    #: cache).  When set, the harness also scrambles a deterministic
    #: subset of cache entries after the first kill -- the equivalence
    #: check then proves cache corruption never propagates into results.
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # Refuse what the runs would refuse before the baseline starts.
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        self.policy()
        self.injector()

    def policy(self) -> RetryPolicy:
        """Retry policy for both the baseline and the injected runs.

        Backoff is disabled (chaos campaigns measure correctness, not
        patience) and so is the degradation ladder: every retry reruns
        the item with its own options, which is what makes the injected
        run's final bounds provably identical to the baseline's.
        """
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_delay=0.0,
            degrade=False,
        )

    def injector(self) -> ChaosInjector:
        return ChaosInjector(
            seed=self.seed,
            kill_rate=self.kill_rate,
            timeout_rate=self.timeout_rate,
            error_rate=self.error_rate,
        )


def generate_campaign(n_items: int, seed: int) -> List[Dict[str, Any]]:
    """Deterministic list of work items (``{"id", "system"}`` dicts).

    Systems are small single-resource SPP job sets mixing periodic and
    bursty arrivals, sized so a few hundred analyze in seconds; deadlines
    straddle the feasible/infeasible boundary so both verdicts appear.
    """
    rng = random.Random(seed)
    campaign = []
    for i in range(n_items):
        n_jobs = rng.randint(1, 3)
        jobs = []
        for j in range(n_jobs):
            period = rng.choice([4.0, 5.0, 6.0, 8.0, 10.0]) * (1.0 + 0.5 * j)
            wcet = round(rng.uniform(0.3, 0.2 * period), 3)
            if rng.random() < 0.3:
                arrivals: Dict[str, Any] = {
                    "type": "bursty",
                    "x": round(rng.uniform(0.05, 0.3), 3),
                }
            else:
                arrivals = {"type": "periodic", "period": period}
            jobs.append(
                {
                    "id": f"job{i}_{j}",
                    "deadline": round(rng.uniform(0.8, 3.0) * period, 3),
                    "arrivals": arrivals,
                    "route": [["cpu", wcet]],
                }
            )
        campaign.append(
            {
                "id": f"item{i}",
                # ``i`` is folded into a job id above, so every item's
                # system differs and content digests stay unique.
                "system": {"policies": {"cpu": "spp"}, "jobs": jobs},
            }
        )
    return campaign


def _build_items(campaign: List[Dict[str, Any]], method: str) -> List[BatchItem]:
    return [
        BatchItem(
            system=system_from_dict(entry["system"]),
            method=method,
            item_id=entry["id"],
        )
        for entry in campaign
    ]


class _KillAfterJournal(BatchJournal):
    """Journal that SIGKILLs its own process after N appends.

    The kill lands *after* the record is durably written, modelling a
    crash between two items -- the torn-tail case is produced separately
    by tampering with the file.
    """

    def __init__(self, path: str, kill_after: Optional[int]) -> None:
        super().__init__(path, fsync_interval=0.0)
        self._kill_after = kill_after

    def append(
        self, digest: str, index: int, record: Union[str, Dict[str, Any]]
    ) -> None:
        super().append(digest, index, record)
        if self._kill_after is not None and self.n_appended >= self._kill_after:
            os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


def run_campaign(
    config: ChaosConfig,
    journal_path: str,
    kill_after: Optional[int] = None,
    status: Optional[str] = None,
) -> None:
    """Run (or resume) the campaign in *this* process.

    This is the child side of the harness: it opens/creates the journal,
    arms the fault injector and runs to completion -- unless
    ``kill_after`` journal appends happen first, in which case the
    process SIGKILLs itself mid-campaign.  With ``status`` the campaign
    additionally publishes a live status file, which the parent verifies
    against the uninterrupted baseline.
    """
    items = _build_items(
        generate_campaign(config.n_items, config.seed), config.method
    )
    engine = BatchEngine(
        n_workers=config.workers,
        retry=config.policy(),
        journal=_KillAfterJournal(journal_path, kill_after),
        resume=os.path.exists(journal_path),
        fault_injector=config.injector(),
        status=status,
        # Chaos campaigns are short, and the final status document is
        # what the parent verifies: write it after every item.
        status_interval=0.0,
        cache_dir=config.cache_dir,
    )
    engine.run(items)


def normalize_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Strip the run-dependent fields before comparing records.

    Timings, cache statistics and attempt histories legitimately differ
    between an uninterrupted run and a crash-resumed one; everything else
    -- status, verdict, bounds -- must match exactly.
    """
    rec = copy.deepcopy(record)
    for key in (
        "wall_time",
        "cache_hits",
        "cache_misses",
        "attempts",
        "trace",
        "metrics",
        "timeout_enforced",
    ):
        rec.pop(key, None)
    if isinstance(rec.get("result"), dict):
        rec["result"].pop("cache", None)
    return rec


@dataclass
class ChaosReport:
    """Outcome of one chaos experiment (see :func:`run_chaos`)."""

    config: ChaosConfig
    ok: bool = False
    stages: List[Dict[str, Any]] = field(default_factory=list)
    n_items: int = 0
    n_journal_entries: int = 0
    n_unique_digests: int = 0
    n_mismatches: int = 0
    mismatches: List[Dict[str, Any]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "config": dataclasses.asdict(self.config),
            "stages": list(self.stages),
            "n_items": self.n_items,
            "n_journal_entries": self.n_journal_entries,
            "n_unique_digests": self.n_unique_digests,
            "n_mismatches": self.n_mismatches,
            "mismatches": list(self.mismatches),
            "errors": list(self.errors),
        }

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"chaos: {verdict} -- {self.n_items} items, "
            f"{len(self.stages)} stage(s), "
            f"{self.n_journal_entries} journal entries "
            f"({self.n_unique_digests} unique), "
            f"{self.n_mismatches} mismatch(es)"
            + (f"; {'; '.join(self.errors)}" if self.errors else "")
        )


#: A campaign child: :func:`run_campaign` on the JSON list in ``argv[1]``.
_CHILD = """
import json, sys
from repro.chaos.harness import ChaosConfig, run_campaign
config, journal_path, kill_after, status = json.loads(sys.argv[1])
config["kill_points"] = tuple(config["kill_points"])
run_campaign(ChaosConfig(**config), journal_path, kill_after, status)
"""


def _run_child(
    config: ChaosConfig,
    journal_path: str,
    kill_after: Optional[int],
    status: Optional[str],
    timeout: float = 600.0,
) -> Tuple[int, str]:
    """Run the campaign in a child; return ``(returncode, stderr_text)``.

    The child gets ``config`` as JSON and calls :func:`run_campaign`.  A
    SIGKILLed child leaves orphaned pool workers behind that inherit
    its stdio, so pipes + ``communicate()`` would block until the
    orphans exit.  Instead the child gets devnull stdio with stderr to a
    temp file, runs in its own session, and the whole process group is
    killed after it exits -- reaping any orphans promptly.
    """
    payload = [dataclasses.asdict(config), journal_path, kill_after, status]
    with tempfile.TemporaryFile(mode="w+", encoding="utf-8") as errfh:
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, json.dumps(payload)],
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=errfh,
            start_new_session=True,
        )
        try:
            returncode = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            returncode = -signal.SIGKILL
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # already gone
                pass
            proc.wait()
        errfh.seek(0)
        return returncode, errfh.read()


def _child_env() -> Dict[str, str]:
    """Child env with this repro package importable, however we were run."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    current = env.get("PYTHONPATH", "")
    if src_dir not in current.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + current if current else "")
        )
    return env


def run_chaos(
    config: ChaosConfig,
    journal_path: str,
    status_path: Optional[str] = None,
) -> ChaosReport:
    """Run the full chaos experiment; the report says whether it held up.

    Stages: baseline (in-process, no faults, no journal), one killed
    child per kill point (the first followed by the configured journal
    tampering), a final child that resumes to completion, then
    verification against the baseline.  With ``status_path`` every child
    also publishes a live status file, and verification additionally
    requires the final (killed-then-resumed) status document to report
    the same item counts as the uninterrupted baseline.
    """
    report = ChaosReport(config=config, n_items=config.n_items)

    # -- baseline: the ground truth this campaign must reproduce --------
    items = _build_items(
        generate_campaign(config.n_items, config.seed), config.method
    )
    baseline_engine = BatchEngine(
        n_workers=config.workers, retry=config.policy()
    )
    baseline = {
        rec.item_id: normalize_record(rec.to_dict())
        for rec in baseline_engine.run(items)
    }
    report.stages.append({"stage": "baseline", "n_records": len(baseline)})

    if os.path.exists(journal_path):
        os.unlink(journal_path)

    # -- killed runs ----------------------------------------------------
    for stage_no, kill_after in enumerate(config.kill_points):
        returncode, _err = _run_child(
            config, journal_path, kill_after, status_path
        )
        stage = {
            "stage": f"kill@{kill_after}",
            "returncode": returncode,
            "journal_bytes": (
                os.path.getsize(journal_path)
                if os.path.exists(journal_path)
                else 0
            ),
        }
        if returncode == 0:
            # The campaign finished before reaching the kill point --
            # legal (late kill point), but the stage injected no crash.
            stage["completed_early"] = True
        report.stages.append(stage)
        if stage_no == 0 and config.tamper != "none":
            if not os.path.exists(journal_path):
                report.errors.append(
                    f"no journal to tamper with after stage {stage['stage']}"
                )
            elif config.tamper == "truncate":
                stage["tampered_bytes"] = truncate_journal_tail(journal_path)
            elif config.tamper == "corrupt":
                stage["tampered_at"] = corrupt_journal_tail(journal_path)
            else:
                report.errors.append(f"unknown tamper mode {config.tamper!r}")
        if (
            stage_no == 0
            and config.cache_dir is not None
            and os.path.isdir(config.cache_dir)
        ):
            # Scramble part of the persistent cache mid-campaign: the
            # store must detect every damaged entry and recompute.
            stage["cache_tampered"] = tamper_cache_entries(
                config.cache_dir, seed=config.seed
            )

    # -- final resume to completion ------------------------------------
    returncode, err = _run_child(config, journal_path, None, status_path)
    report.stages.append({"stage": "final", "returncode": returncode})
    if returncode != 0:
        report.errors.append(
            f"final resume exited {returncode}: {err.strip()[-500:]}"
        )
        return report

    # -- verification ---------------------------------------------------
    try:
        _header, entries, _good, _total = BatchJournal.scan(journal_path)
    except JournalError as exc:
        report.errors.append(f"final journal unreadable: {exc}")
        return report
    report.n_journal_entries = len(entries)
    report.n_unique_digests = len({e["digest"] for e in entries})
    if report.n_journal_entries != config.n_items:
        report.errors.append(
            f"journal holds {report.n_journal_entries} entries for "
            f"{config.n_items} items (resume re-analyzed journaled items)"
        )
    if report.n_unique_digests != report.n_journal_entries:
        report.errors.append("duplicate item digests in the final journal")

    policy = config.policy()
    for entry in entries:
        rec = entry["record"]
        attempts = rec.get("attempts") or []
        if len(attempts) > policy.max_attempts:
            report.errors.append(
                f"item {rec.get('id')!r} used {len(attempts)} attempts "
                f"(policy allows {policy.max_attempts})"
            )
        got = normalize_record(rec)
        want = baseline.get(str(rec.get("id")))
        if want is None:
            report.errors.append(f"item {rec.get('id')!r} not in baseline")
        elif got != want:
            report.n_mismatches += 1
            if len(report.mismatches) < 5:
                report.mismatches.append(
                    {"id": rec.get("id"), "baseline": want, "chaos": got}
                )
    if report.n_mismatches:
        report.errors.append(
            f"{report.n_mismatches} record(s) differ from the baseline"
        )

    # -- status-file verification --------------------------------------
    if status_path is not None:
        doc = read_status(status_path)
        if doc is None:
            report.errors.append(
                f"final status file {status_path!r} is missing or unreadable"
            )
        else:
            by_status: Dict[str, int] = {}
            for rec in baseline.values():
                key = str(rec.get("status"))
                by_status[key] = by_status.get(key, 0) + 1
            stage = {
                "stage": "status",
                "state": doc.get("state"),
                "done": doc.get("done"),
                "resumed": doc.get("resumed"),
                "by_status": doc.get("by_status"),
            }
            report.stages.append(stage)
            if doc.get("state") != "done":
                report.errors.append(
                    f"final status state is {doc.get('state')!r}, not 'done'"
                )
            if doc.get("done") != config.n_items:
                report.errors.append(
                    f"final status counts {doc.get('done')} done items "
                    f"for a {config.n_items}-item campaign"
                )
            if doc.get("by_status") != dict(sorted(by_status.items())):
                report.errors.append(
                    "final status by_status "
                    f"{doc.get('by_status')} != baseline {by_status}"
                )
    report.ok = not report.errors
    return report
