"""The benchmark's three workloads: inputs, one timed request, output checks.

Every workload is one closed-loop caller: it issues a request, waits for
the reply, and only then issues the next one.  A *request* is the unit the
caller waits for; it is made of *items*, the smaller replies inside it:

============  ======================================  =============
workload      request                                 item
============  ======================================  =============
shop_sweep    one sweep: 72 job shops, every method   one analysis
trace_burst   the five analyses of the 16x2000 trace  one analysis
campaign      cold pass plus eight one-edit re-runs   one pass
============  ======================================  =============

Inputs are a pure function of the seed.  The benchmark drives each layer
through its public entry points (``system_from_dict``,
``make_analyzer(m).analyze``, ``AnalysisResult.to_json`` and
``BatchEngine.run``) and times those calls itself; around each call it
opens a span tagged with the item id, which is a no-op unless the traced
run has tracing on.  Why each workload exists is written in ``NOTES.md``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import AnalysisOptions, HorizonConfig, make_analyzer
from repro.batch import BatchEngine, BatchItem
from repro.curves.memo import curve_cache
from repro.experiments.admission import system_for_method
from repro.model import (
    Job,
    JobSet,
    System,
    TraceArrivals,
    assign_priorities_proportional_deadline,
    system_from_dict,
    system_to_dict,
)
from repro.obs.trace import trace_span
from repro.workloads import (
    ShopTopology,
    generate_aperiodic_jobset,
    generate_periodic_jobset,
)

#: The seed whose outputs are pinned in ``reference/``.
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PERIODIC_METHODS = ("SPP/Exact", "SPP/S&L", "SPNP/App", "FCFS/App")
BURSTY_METHODS = ("SPP/Exact", "SPNP/App", "FCFS/App")
#: Relative tolerance when comparing bounds with the reference or each other.
REL_TOL = 1e-9


@dataclass
class Request:
    """What the caller measured for one request."""

    wall: float  #: seconds from issuing the request to its last reply
    items: List[float]  #: seconds the caller waited for each item


def _close(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _at_most(a: Optional[float], b: Optional[float]) -> bool:
    """``a <= b`` for bounds where ``None`` is an infinite bound."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b + REL_TOL * max(1.0, abs(b))


def _bounds(payload: Dict[str, Any]) -> Dict[str, Optional[float]]:
    return {job: rec["wcrt"] for job, rec in payload["jobs"].items()}


def summary(payload: Dict[str, Any]) -> List[Any]:
    """Verdict and per-job bounds, the part of a result the reference pins."""
    return [payload["schedulable"], _bounds(payload)]


def same_summary(got: List[Any], want: Optional[List[Any]]) -> bool:
    if want is None or got[0] != want[0] or set(got[1]) != set(want[1]):
        return False
    return all(_close(got[1][j], want[1][j]) for j in want[1])


def _parse(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError:
        return None


def _valid_result(payload: Any, job_ids: Sequence[str]) -> bool:
    """A reply is a result only if it names a bound for every job."""
    if not isinstance(payload, dict) or not isinstance(payload.get("jobs"), dict):
        return False
    if sorted(payload["jobs"]) != sorted(job_ids):
        return False
    for rec in payload["jobs"].values():
        wcrt = rec.get("wcrt")
        if wcrt is not None and not (isinstance(wcrt, (int, float)) and wcrt >= 0):
            return False
    return isinstance(payload.get("schedulable"), bool)


def write_reference(name: str, items: Dict[str, Any]) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"items": items}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path


class Workload:
    """Seed, pinned reference and defaults shared by the three workloads."""

    name = ""
    MIN_REQUESTS = 1  #: fewest requests a run makes, whatever ``--seconds``

    def __init__(self, seed: int, pinned: bool = True) -> None:
        """``pinned=False`` skips the reference (used while re-pinning it)."""
        self.seed = seed
        self.reference: Optional[Dict[str, Any]] = None
        if pinned and seed == DEFAULT_SEED:
            with open(REFERENCE_DIR / f"{self.name}.json", encoding="utf-8") as fh:
                self.reference = json.load(fh)["items"]

    def setup(self, work_dir: Path) -> None:
        """Build the inputs (and any directories under ``work_dir``)."""

    def cleanup(self) -> None:
        """Remove what ``setup`` and the requests left on disk."""

    def pinned(self, key: str) -> Optional[List[Any]]:
        return None if self.reference is None else self.reference.get(key)


# ----------------------------------------------------------------------
# shop_sweep
# ----------------------------------------------------------------------


class ShopSweep(Workload):
    """Section 5 admission sweep: random job shops through ``analyze --json``.

    One request is one sweep of the 18-cell design grid (1, 2 or 4 stages
    of 2 processors x utilization 0.3/0.6/0.9 x periodic Eq. 25 / bursty
    Eq. 27 arrivals), four sets per cell: 72 sets, 252 analyses.  Each
    analysis goes from JSON text through ``system_from_dict``, ``analyze``
    and ``to_json`` with no curve memo, as ``repro analyze --json`` does,
    except that the horizon may double at most ``MAX_ROUNDS`` times (see
    ``NOTES.md``: at the default 12, one periodic set whose bounds keep
    creeping takes 10 s and 250 MB, so run length and peak memory would
    depend on which seed drew it).
    """

    name = "shop_sweep"
    SETS_PER_SWEEP = 72
    SWEEPS = 8  #: sweeps generated per run; the stream repeats after them
    MIN_REQUESTS = 3  #: wall_s averages at least three different sweeps
    MAX_ROUNDS = 6

    def __init__(self, seed: int, pinned: bool = True) -> None:
        super().__init__(seed, pinned)
        #: (set id, periodic, job ids, [(method, system JSON)])
        self.sets: List[Tuple[str, bool, List[str], List[Tuple[str, str]]]] = []
        self.outputs: List[Tuple[int, str, str]] = []  #: (set index, method, reply)

    def setup(self, work_dir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        for _sweep in range(self.SWEEPS):
            for rep in range(4):
                for stages in (1, 2, 4):
                    topo = ShopTopology(stages, 2)
                    for u in (0.3, 0.6, 0.9):
                        for periodic in (True, False):
                            if periodic:
                                js = generate_periodic_jobset(
                                    topo, 4, u, (2.0, 4.0)[rep % 2], rng,
                                    x_range=(0.1, 1.0), normalization="exact",
                                )
                                methods = PERIODIC_METHODS
                            else:
                                mean, var = ((2.0, 2.0), (4.0, 8.0))[rep % 2]
                                js = generate_aperiodic_jobset(
                                    topo, 4, u, mean, var, rng,
                                    x_range=(0.1, 1.0), normalization="exact",
                                )
                                methods = BURSTY_METHODS
                            set_id = (
                                f"s{len(self.sets):04d}-{'pb'[not periodic]}"
                                f"{stages}u{round(10 * u)}"
                            )
                            texts = [
                                (m, json.dumps(system_to_dict(system_for_method(js, m))))
                                for m in methods
                            ]
                            self.sets.append(
                                (set_id, periodic, [j.job_id for j in js], texts)
                            )

    def request(self, k: int) -> Request:
        sweep = k % self.SWEEPS
        horizon = HorizonConfig(max_rounds=self.MAX_ROUNDS)
        items: List[float] = []
        t_start = time.perf_counter()
        for index in range(
            sweep * self.SETS_PER_SWEEP, (sweep + 1) * self.SETS_PER_SWEEP
        ):
            set_id, _periodic, _jobs, texts = self.sets[index]
            for method, text in texts:
                item_id = f"{set_id}/{method}"
                t0 = time.perf_counter()
                try:
                    with trace_span("bench.load", item=item_id):
                        system = system_from_dict(json.loads(text))
                    with trace_span("bench.analyze", item=item_id, method=method):
                        result = make_analyzer(method, horizon).analyze(system)
                    with trace_span("bench.to_json", item=item_id):
                        out = result.to_json()
                except Exception as exc:  # a raising item fails; the run goes on
                    out = f"{type(exc).__name__}: {exc}"
                items.append(time.perf_counter() - t0)
                self.outputs.append((index, method, out))
        return Request(time.perf_counter() - t_start, items)

    def summaries(self) -> Dict[str, List[Any]]:
        return {
            f"{self.sets[i][0]}/{m}": summary(json.loads(out))
            for i, m, out in self.outputs
        }

    def check(self) -> Tuple[int, int, List[str]]:
        """Returns (items attempted, items failed, problems)."""
        problems: List[str] = []
        failed = set()
        parsed: Dict[Tuple[int, str], Tuple[int, Dict[str, Any]]] = {}
        for n, (index, method, out) in enumerate(self.outputs):
            set_id, _periodic, jobs, _texts = self.sets[index]
            label = f"{set_id}/{method}"
            payload = _parse(out)
            if not _valid_result(payload, jobs):
                failed.add(n)
                problems.append(f"{label}: no valid result: {out[:200]}")
                continue
            parsed[(index, method)] = (n, payload)
            if self.reference is not None and not same_summary(
                summary(payload), self.pinned(label)
            ):
                failed.add(n)
                problems.append(f"{label}: differs from reference")
        # Oracle: the exact SPP bound never exceeds the holistic S&L bound.
        for (index, method), (n, holistic) in parsed.items():
            if method != "SPP/S&L" or (index, "SPP/Exact") not in parsed:
                continue
            set_id, _periodic, jobs, _texts = self.sets[index]
            exact = parsed[(index, "SPP/Exact")][1]
            for job in jobs:
                if not _at_most(exact["jobs"][job]["wcrt"], holistic["jobs"][job]["wcrt"]):
                    failed.add(n)
                    problems.append(f"{set_id}: SPP/Exact above SPP/S&L for {job}")
        return len(self.outputs), len(failed), problems


# ----------------------------------------------------------------------
# trace_burst
# ----------------------------------------------------------------------

#: (method, compaction budget) of the five analyses.
TRACE_ANALYSES: Tuple[Tuple[str, Optional[int]], ...] = (
    ("SPP/Exact", None),
    ("SPNP/App", None),
    ("FCFS/App", None),
    ("Fixpoint/App", None),
    ("Fixpoint/App", 64),
)


def trace_fixture(seed: int, n_jobs: int = 16, n_inst: int = 2000,
                  spacing: float = 0.06, wcet: float = 0.1) -> System:
    """The breakpoint-heavy 16 x 2000 two-hop ``TraceArrivals`` system.

    On the default seed this is exactly the fixture of
    ``benchmarks/bench_analysis.py`` (job ``j`` bursts from ``0.013 j``);
    other seeds shift each burst's start by up to 4 ms, which keeps its
    size and shape but changes every bound.
    """
    phases = 0.013 * np.arange(n_jobs)
    if seed != DEFAULT_SEED:
        phases = phases + np.random.default_rng(seed).uniform(0.0, 0.004, n_jobs)
    jobs = [
        Job.build(
            f"b{j:02d}",
            [("P0", wcet), ("P1", wcet)],
            TraceArrivals((phases[j] + spacing * np.arange(n_inst)).tolist()),
            deadline=8000.0,
        )
        for j in range(n_jobs)
    ]
    system = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(system)
    return system


def _label(method: str, budget: Optional[int]) -> str:
    return f"{method}/{'exact' if budget is None else f'c{budget}'}"


class TraceBurst(Workload):
    """Five analyses of the 16 x 2000 trace fixture, as ``repro trace`` runs them.

    Each analysis runs inside a fresh ``curve_cache()``.
    """

    name = "trace_burst"
    MIN_REQUESTS = 4  #: 20 analyses, so that p50 has ten samples beyond it

    def __init__(self, seed: int, pinned: bool = True) -> None:
        super().__init__(seed, pinned)
        self.system: Optional[System] = None
        self.outputs: List[Tuple[int, int, str]] = []  #: (request, analysis, reply)

    def setup(self, work_dir: Path) -> None:
        self.system = trace_fixture(self.seed)

    def request(self, k: int) -> Request:
        items: List[float] = []
        t_start = time.perf_counter()
        for a, (method, budget) in enumerate(TRACE_ANALYSES):
            options = None if budget is None else AnalysisOptions(compact_budget=budget)
            item_id = f"r{k}/{_label(method, budget)}"
            t0 = time.perf_counter()
            try:
                with curve_cache():
                    with trace_span(
                        "bench.analyze", item=item_id, method=method,
                        variant="exact" if budget is None else f"c{budget}",
                    ):
                        result = make_analyzer(method, options=options).analyze(
                            self.system
                        )
                with trace_span("bench.to_json", item=item_id):
                    out = result.to_json()
            except Exception as exc:  # a raising item fails; the run goes on
                out = f"{type(exc).__name__}: {exc}"
            items.append(time.perf_counter() - t0)
            self.outputs.append((k, a, out))
        return Request(time.perf_counter() - t_start, items)

    def summaries(self) -> Dict[str, List[Any]]:
        return {
            _label(*TRACE_ANALYSES[a]): summary(json.loads(out))
            for k, a, out in self.outputs
            if k == 0
        }

    def check(self) -> Tuple[int, int, List[str]]:
        problems: List[str] = []
        failed = set()
        jobs = [j.job_id for j in self.system.job_set]
        first: Dict[int, str] = {}
        by_request: Dict[int, Dict[int, Tuple[int, Dict[str, Any]]]] = {}
        for n, (k, a, out) in enumerate(self.outputs):
            label = _label(*TRACE_ANALYSES[a])
            payload = _parse(out)
            if not _valid_result(payload, jobs):
                failed.add(n)
                problems.append(f"request {k} {label}: no valid result: {out[:200]}")
                continue
            by_request.setdefault(k, {})[a] = (n, payload)
            # Every request analyses the same system: replies must not drift.
            if first.setdefault(a, out) != out:
                failed.add(n)
                problems.append(f"request {k} {label}: differs from request 0")
            if self.reference is not None and not same_summary(
                summary(payload), self.pinned(label)
            ):
                failed.add(n)
                problems.append(f"request {k} {label}: differs from reference")
        # Oracle: compaction only loosens Fixpoint/App bounds.
        exact_i = TRACE_ANALYSES.index(("Fixpoint/App", None))
        compact_i = TRACE_ANALYSES.index(("Fixpoint/App", 64))
        for k, replies in by_request.items():
            if exact_i in replies and compact_i in replies:
                exact = _bounds(replies[exact_i][1])
                n, compacted = replies[compact_i]
                for job in jobs:
                    if not _at_most(exact[job], _bounds(compacted)[job]):
                        failed.add(n)
                        problems.append(
                            f"request {k}: compacted Fixpoint/App below exact for {job}"
                        )
        return len(self.outputs), len(failed), problems


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


def dir_size(path: Path) -> Tuple[int, int]:
    """(files, bytes) under ``path``."""
    files = size = 0
    for root, _dirs, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


@dataclass
class PassStats:
    """What one ``BatchEngine.run`` reported, kept instead of the report."""

    index: int  #: 0 for the cold pass, p for the p-th re-run
    run_s: float  #: seconds inside ``BatchEngine.run``
    items: int
    cached: int
    disk_hits: int
    item_s: float  #: sum of ``ItemResult.wall_time``
    memo_hit_rate: float


class Campaign(Workload):
    """``repro batch --workers 2 --journal --status --cache-dir``, cold then warm.

    One request is one campaign against a fresh cache directory: a cold
    pass over 505 single-stage items (202 sets: SPP/Exact, SPP/S&L and
    FCFS/App on periodic sets, SPP/Exact and FCFS/App on bursty ones),
    then eight warm re-runs, each with a different single item edited
    (one WCET scaled by 0.97).  Every pass parses its JSON lines with
    ``system_from_dict``, runs a fresh ``BatchEngine`` with its own
    journal, and serializes every record as the CLI prints it.  Replies
    are checked after each request, outside its timers, and dropped, so
    the process does not grow with the run.
    """

    name = "campaign"
    N_SETS = 202
    WARM_PASSES = 8
    MIN_REQUESTS = 3  #: 27 passes, so that p50 has ten samples beyond it
    TRACED_WARM_PASSES = 2
    WORKERS = 2

    def __init__(self, seed: int, pinned: bool = True) -> None:
        super().__init__(seed, pinned)
        self.lines: List[str] = []  #: the campaign's JSON lines
        self.ids: List[str] = []
        self.job_ids: List[List[str]] = []
        self.edits: List[Tuple[int, str]] = []  #: (line index, edited line) per re-run
        self.work_dir: Optional[Path] = None
        self.passes: List[PassStats] = []
        #: (curve entries, cache bytes) after request 0's cold pass
        self.cold_disk: Optional[Tuple[int, int]] = None
        self.first: List[List[str]] = []  #: request 0's printed records, per pass
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._direct: Dict[int, List[Any]] = {}

    def setup(self, work_dir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        topo = ShopTopology(1, 2)
        for k in range(self.N_SETS):
            u = (0.3, 0.6, 0.9)[k % 3]
            if k % 2 == 0:
                js = generate_periodic_jobset(
                    topo, 4, u, 2.0, rng, x_range=(0.1, 1.0), normalization="exact"
                )
                methods: Sequence[str] = ("SPP/Exact", "SPP/S&L", "FCFS/App")
            else:
                js = generate_aperiodic_jobset(
                    topo, 4, u, 2.0, 2.0, rng, x_range=(0.1, 1.0),
                    normalization="exact",
                )
                methods = ("SPP/Exact", "FCFS/App")
            for m in methods:
                item_id = f"c{k:03d}-{'pb'[k % 2]}u{round(10 * u)}/{m}"
                system = system_to_dict(system_for_method(js, m))
                self.lines.append(
                    json.dumps({"id": item_id, "method": m, "system": system})
                )
                self.ids.append(item_id)
                self.job_ids.append([j["id"] for j in system["jobs"]])
        for index in rng.choice(len(self.lines), size=self.WARM_PASSES, replace=False):
            obj = json.loads(self.lines[int(index)])
            obj["system"]["jobs"][0]["route"][0][1] *= 0.97
            self.edits.append((int(index), json.dumps(obj)))
        self.work_dir = Path(tempfile.mkdtemp(prefix="campaign-", dir=work_dir))

    def cleanup(self) -> None:
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)

    def _pass(
        self, k: int, p: int, root: Path, cache: bool = True
    ) -> Tuple[float, List[str]]:
        lines = list(self.lines)
        if p > 0:
            index, edited = self.edits[p - 1]
            lines[index] = edited
        t0 = time.perf_counter()
        with trace_span("bench.load", item=f"r{k}/pass{p}"):
            items = []
            for line in lines:
                obj = json.loads(line)
                items.append(
                    BatchItem(
                        system=system_from_dict(obj["system"]),
                        method=obj["method"],
                        item_id=obj["id"],
                    )
                )
        engine = BatchEngine(
            n_workers=self.WORKERS,
            cache_dir=str(root / "cache") if cache else None,
            journal=str(root / f"pass{p}.wal"),
            status=str(root / "status.json"),
        )
        t1 = time.perf_counter()
        with trace_span("bench.batch", item=f"r{k}/pass{p}"):
            report = engine.run(items)
        t2 = time.perf_counter()
        with trace_span("bench.to_json", item=f"r{k}/pass{p}"):
            out = [json.dumps(r.to_dict(), allow_nan=False) for r in report]
        t3 = time.perf_counter()
        self.passes.append(
            PassStats(
                p, t2 - t1, len(report), report.n_cached, report.cache_disk_hits,
                sum(r.wall_time for r in report), report.cache_hit_rate,
            )
        )
        return t3 - t0, out

    def request(self, k: int, warm_passes: Optional[int] = None) -> Request:
        root = self.work_dir / f"r{k}"
        root.mkdir()
        n_warm = self.WARM_PASSES if warm_passes is None else warm_passes
        seconds, lines = self._pass(k, 0, root)
        items, printed = [seconds], [lines]
        if k == 0:  # sized between passes, outside the pass timers
            self.cold_disk = (
                dir_size(root / "cache" / "curves")[0], dir_size(root / "cache")[1]
            )
        for p in range(1, n_warm + 1):
            seconds, lines = self._pass(k, p, root)
            items.append(seconds)
            printed.append(lines)
        shutil.rmtree(root, ignore_errors=True)
        self._check_request(k, printed)
        if k == 0:
            self.first = printed
        return Request(sum(items), items)

    def cold_run_without_cache(self) -> Tuple[float, int]:
        """``BatchEngine.run`` seconds of a cold pass with no cache directory.

        Returns (seconds, records whose bounds differ from request 0's cold
        pass); without a spill the records carry no disk counters, so they
        are compared by bounds, not bytes.
        """
        root = self.work_dir / "nocache"
        root.mkdir()
        _seconds, lines = self._pass(-1, 0, root, cache=False)
        shutil.rmtree(root, ignore_errors=True)
        stats = self.passes.pop()
        bad = sum(
            not same_summary(
                summary(json.loads(a)["result"]), summary(json.loads(b)["result"])
            )
            for a, b in zip(lines, self.first[0])
        )
        return stats.run_s, bad + abs(len(lines) - len(self.first[0]))

    def summaries(self) -> Dict[str, List[Any]]:
        """Cold-pass results by item id, edited items as ``pass<p>/<id>``."""
        out: Dict[str, List[Any]] = {}
        for p, lines in enumerate(self.first):
            for i, line in enumerate(lines):
                if p == 0:
                    out[self.ids[i]] = summary(json.loads(line)["result"])
                elif i == self.edits[p - 1][0]:
                    out[f"pass{p}/{self.ids[i]}"] = summary(json.loads(line)["result"])
        return out

    def _direct_summary(self, p: int) -> List[Any]:
        """The edited item of re-run ``p``, analysed in this process."""
        if p not in self._direct:
            obj = json.loads(self.edits[p - 1][1])
            result = make_analyzer(obj["method"]).analyze(system_from_dict(obj["system"]))
            self._direct[p] = summary(result.to_dict())
        return self._direct[p]

    def _problem(self, p: int, i: int, line: str, cold: List[str]) -> Optional[str]:
        """What is wrong with record ``i`` of pass ``p``, if anything."""
        rec = _parse(line)
        if not (
            isinstance(rec, dict)
            and rec.get("id") == self.ids[i]
            and rec.get("status") == "ok"
            and _valid_result(rec.get("result"), self.job_ids[i])
        ):
            return "no valid record"
        got = summary(rec["result"])
        if p > 0 and i != self.edits[p - 1][0]:
            # Oracle: an unedited item is served from the result cache,
            # byte-equal to what the cold pass printed.  A traced record
            # carries spans and is recomputed, so only its bounds compare.
            if "trace" in rec:
                ok = same_summary(got, summary(json.loads(cold[i])["result"]))
            else:
                ok = line == cold[i]
            return None if ok else "re-run record differs from the cold pass"
        if p > 0:
            if not same_summary(got, self._direct_summary(p)):
                return "edited item differs from a direct analysis"
            key = f"pass{p}/{self.ids[i]}"
        else:
            key = self.ids[i]
        if self.reference is not None and not same_summary(got, self.pinned(key)):
            return "differs from reference"
        if p == 0 and self.first and not same_summary(
            got, summary(json.loads(self.first[0][i])["result"])
        ):
            return "cold pass differs from request 0"
        return None

    def _check_request(self, k: int, printed: List[List[str]]) -> None:
        for p, lines in enumerate(printed):
            if len(lines) != len(self.lines):
                self.attempted += len(self.lines)
                self.failed += len(self.lines)
                self.problems.append(f"request {k} pass {p}: {len(lines)} records")
                continue
            for i, line in enumerate(lines):
                self.attempted += 1
                problem = self._problem(p, i, line, printed[0])
                if problem is not None:
                    self.failed += 1
                    self.problems.append(f"request {k} pass {p} {self.ids[i]}: {problem}")

    def check(self) -> Tuple[int, int, List[str]]:
        return self.attempted, self.failed, self.problems
