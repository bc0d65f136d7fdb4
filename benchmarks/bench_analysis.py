"""Per-method analysis latency on a representative job-shop system.

Times one full adaptive-horizon analysis per method on the same random
2-stage/2-processor, 4-job periodic system -- the unit of work the
admission-probability experiments repeat thousands of times.

Standalone mode (``python benchmarks/bench_analysis.py --json``) instead
benchmarks the *compaction layer* on a breakpoint-heavy bursty fixture:
exact analysis vs ``compact_budget=64``, run alternately, reporting
median wall times, per-job bound loosening, breakpoint/cache statistics,
and writing them into ``BENCH_analysis.json`` at the repository root for
cross-PR tracking; the file's other sections are kept.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    FcfsApproxAnalysis,
    FixpointAnalysis,
    HolisticSPPAnalysis,
    SppApproxAnalysis,
    SppExactAnalysis,
    SpnpApproxAnalysis,
)
from repro.ioutil import write_json_atomic
from repro.model import System, assign_priorities_proportional_deadline
from repro.sim import simulate
from repro.workloads import ShopTopology, generate_periodic_jobset


@pytest.fixture(scope="module")
def job_set():
    rng = np.random.default_rng(11)
    return generate_periodic_jobset(
        ShopTopology(2, 2), 4, 0.6, 2.0, rng, x_range=(0.1, 1.0),
        normalization="exact",
    )


CASES = [
    ("SPP/Exact", "spp", SppExactAnalysis),
    ("SPP/S&L", "spp", HolisticSPPAnalysis),
    ("SPP/App", "spp", SppApproxAnalysis),
    ("SPNP/App", "spnp", SpnpApproxAnalysis),
    ("FCFS/App", "fcfs", FcfsApproxAnalysis),
    ("Fixpoint/App", "spp", FixpointAnalysis),
]


@pytest.mark.parametrize("name,policy,analyzer_cls", CASES, ids=[c[0] for c in CASES])
def test_analysis_latency(benchmark, job_set, name, policy, analyzer_cls):
    system = System(job_set, policy)
    assign_priorities_proportional_deadline(system)
    result = benchmark(lambda: analyzer_cls().analyze(system))
    assert result.jobs


def test_simulation_latency(benchmark, job_set):
    system = System(job_set, "spp")
    assign_priorities_proportional_deadline(system)
    res = benchmark(lambda: simulate(system, horizon=100.0))
    assert res.completed_all


# ----------------------------------------------------------------------
# Standalone compaction benchmark (--json)
# ----------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent


def bursty_fixture(n_jobs: int = 16, n_inst: int = 2000,
                   spacing: float = 0.06, wcet: float = 0.1):
    """Breakpoint-heavy bursty system: long finite arrival bursts.

    Every job releases a dense burst of ``n_inst`` instances through a
    two-hop route, creating a transient overload whose busy window -- and
    therefore every job's response-time bound -- scales with the number
    of higher-priority bursts.  Each workload envelope carries thousands
    of breakpoints, so the exact analysis pays the full min-plus cost
    while the compacted one works on ``compact_budget``-point curves.
    """
    from repro.model import (
        Job,
        JobSet,
        System,
        TraceArrivals,
    )

    jobs = []
    for j in range(n_jobs):
        times = j * 0.013 + spacing * np.arange(n_inst)
        jobs.append(
            Job.build(
                f"b{j:02d}",
                [("P0", wcet), ("P1", wcet)],
                TraceArrivals(times.tolist()),
                deadline=8000.0,
            )
        )
    system = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(system)
    return system


def _run_once(system, method: str, options):
    """One analysis: wall time, bounds and metric/cache snapshots."""
    from repro.analysis.admission import make_analyzer
    from repro.curves.memo import curve_cache
    from repro.obs.metrics import metrics

    with curve_cache() as cache, metrics() as registry:
        t0 = time.perf_counter()
        result = make_analyzer(method, options=options).analyze(system)
        elapsed = time.perf_counter() - t0
        gauges = registry.gauges.get("repro_curve_breakpoints", {})
        return elapsed, {
            "wcrts": {job_id: r.wcrt for job_id, r in result.jobs.items()},
            "cache": cache.stats().to_dict(),
            "compactions": registry.counters.get(
                "repro_curve_compactions_total", {}
            ),
            "breakpoint_gauges": gauges,
            "horizon": result.horizon,
            "rounds": result.rounds,
        }


def run_compaction_benchmark(repeats: int = 3, budget: int = 64,
                             method: str = "Fixpoint/App"):
    from repro.analysis import AnalysisOptions

    system = bursty_fixture()
    arms = {"exact": None, "compacted": AnalysisOptions(compact_budget=budget)}
    times_s = {name: [] for name in arms}
    last = {}
    # The arms alternate run by run (exact, compacted, exact, ...), so a
    # slow phase of the machine weighs on both medians alike.
    for _ in range(repeats):
        for name, options in arms.items():
            elapsed, last[name] = _run_once(system, method, options)
            times_s[name].append(elapsed)
    exact, compacted = (
        {
            "median_s": statistics.median(times_s[name]),
            "times_s": times_s[name],
            **last[name],
        }
        for name in arms
    )

    loosening = {}
    for job_id, base in exact["wcrts"].items():
        comp = compacted["wcrts"][job_id]
        loosening[job_id] = (comp - base) / base if base > 0 else 0.0
    unsound = [
        job_id
        for job_id, base in exact["wcrts"].items()
        if compacted["wcrts"][job_id] < base - 1e-9
    ]
    speedup = exact["median_s"] / compacted["median_s"]
    return {
        "fixture": {
            "kind": "bursty-trace",
            "n_jobs": 16,
            "n_instances": 2000,
            "method": method,
        },
        "compact_budget": budget,
        "repeats": repeats,
        "exact": exact,
        "compacted": compacted,
        "speedup": speedup,
        "max_loosening": max(loosening.values()) if loosening else 0.0,
        "loosening_per_job": loosening,
        "unsound_jobs": unsound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compaction-layer analysis benchmark (exact vs compacted)"
    )
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_analysis.json at the repo root")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per arm; the median is reported")
    parser.add_argument("--budget", type=int, default=64,
                        help="compact_budget for the compacted arm")
    parser.add_argument("--method", default="Fixpoint/App",
                        help="analysis method to benchmark")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if speedup falls below this")
    args = parser.parse_args(argv)

    report = run_compaction_benchmark(
        repeats=args.repeats, budget=args.budget, method=args.method
    )
    print(
        f"{args.method}: exact median {report['exact']['median_s']:.3f}s, "
        f"compacted(budget={args.budget}) median "
        f"{report['compacted']['median_s']:.3f}s "
        f"-> speedup {report['speedup']:.2f}x, "
        f"max loosening {100 * report['max_loosening']:.2f}%"
    )
    if report["unsound_jobs"]:
        print(f"UNSOUND: compacted bound below exact for {report['unsound_jobs']}")
        return 2
    if args.json:
        # Load-modify-write: ``bench_batch.py --warm-cache`` owns the
        # ``persistent_cache`` section of the same file.
        out = REPO_ROOT / "BENCH_analysis.json"
        try:
            with open(out, "r", encoding="utf-8") as fh:
                bench = json.load(fh)
        except (OSError, ValueError):
            bench = {}
        bench.update(report)
        write_json_atomic(out, bench, indent=2, default=str)
        print(f"wrote {out}")
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {report['speedup']:.2f}x below required "
            f"{args.min_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
