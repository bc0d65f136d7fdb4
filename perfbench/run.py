"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload shop_sweep --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's closed loop runs for ``--seconds`` (and at least long enough
for its percentile to have ten samples beyond it), then every reply is
checked.  ``--trace 1`` is the separate traced run: it runs one request
of the workload untraced and once more under ``repro.obs.observe(...,
detail=True)``, and prints the per-layer ledger; spans and the ledger are
written under ``.perfbench/`` when the run ends.  ``NOTES.md`` defines
every metric.

``--write-reference`` pins the default seed's outputs in ``reference/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("shop_sweep", "trace_burst", "campaign")
#: Set-up is repeated this often per run and its median reported.
SETUP_REPEATS = 3
IMPORT_PROBES = 3
#: A percentile is refused unless this many samples lie beyond it.
MIN_BEYOND = 10
#: Cells of the grid on which the Harrell-Davis weights are integrated.
HD_CELLS = 20000

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import workloads\n"
    "print(time.perf_counter() - t)\n"
)


def hd_quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A mean of all order statistics weighted by a Beta(q (n+1), (1-q) (n+1))
    distribution.  A single order statistic jumps between the fast and the
    slow phases of a shared host as their shares in a run cross one half;
    this estimate moves smoothly with the shares (``NOTES.md``).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    mid = (np.arange(HD_CELLS) + 0.5) / HD_CELLS
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, HD_CELLS + 1), cdf)
    return float(np.dot(np.diff(edges), x))


def percentile(values, pct):
    """``(value, n_beyond)``; value is None when fewer than ten lie beyond it."""
    value = hd_quantile(values, pct / 100)
    beyond = sum(1 for v in values if v > value)
    return (value if beyond >= MIN_BEYOND else None), beyond


def describe(label, values, scale, unit):
    parts = []
    for pct in (50, 90, 99):
        value, beyond = percentile(values, pct) if len(values) > 1 else (None, 0)
        shown = "refused" if value is None else f"{value * scale:.3f} {unit}"
        parts.append(f"p{pct} {shown} (n={len(values)}, {beyond} beyond)")
    return f"  {label}: " + "; ".join(parts)


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_seconds():
    """Median import time of the benchmark's modules in fresh interpreters."""
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def make_workload(name, seed, pinned=True):
    import workloads

    cls = {
        "shop_sweep": workloads.ShopSweep,
        "trace_burst": workloads.TraceBurst,
        "campaign": workloads.Campaign,
    }[name]
    return cls(seed, pinned)


def set_up(name, seed):
    """Build the inputs ``SETUP_REPEATS`` times; returns (workload, median s)."""
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.cleanup()
        t0 = time.perf_counter()
        WORK.mkdir(exist_ok=True)
        workload = make_workload(name, seed)
        workload.setup(WORK)
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def measure(workload, seconds):
    """The closed loop: one request after another until time and samples suffice."""
    requests = []
    t0 = time.perf_counter()
    while True:
        requests.append(workload.request(len(requests)))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(requests) >= workload.MIN_REQUESTS:
            return requests, elapsed


def end_to_end(args, workload, setup_s):
    requests, elapsed = measure(workload, args.seconds)
    rss = peak_rss_mb()
    attempted, failed, problems = workload.check()
    items = [t for r in requests for t in r.items]
    p50, beyond = percentile(items, 50)
    if p50 is None:
        raise SystemExit(f"error: item p50 has only {beyond} samples beyond it")
    setup_s += import_seconds()
    print(
        f"{args.workload} seed={args.seed}: {len(requests)} requests, "
        f"{len(items)} items in {elapsed:.1f} s"
    )
    print(describe("request", [r.wall for r in requests], 1.0, "s"))
    print(describe("item", items, 1e3, "ms"))
    for problem in problems[:20]:
        print(f"  check failed: {problem}")
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(r.wall for r in requests),
        "item_p50_ms": p50 * 1e3,
        "peak_rss_mb": rss,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, failed, metrics


def traced(args, workload):
    """Untraced unit, then the same unit traced; returns the per-layer ledger."""
    import ledger
    from repro.obs import observe, write_chrome_trace

    from workloads import same_summary

    untraced = workload.request(0)
    attempted, failed, problems = workload.check()
    shadow, _ = set_up(args.workload, args.seed)
    with observe(force_trace=True, force_metrics=True, detail=True) as session:
        if args.workload == "campaign":
            run = shadow.request(0, warm_passes=shadow.TRACED_WARM_PASSES)
        else:
            run = shadow.request(0)
    shadow.cleanup()
    # Traced replies must carry the same bounds as untraced ones.
    want = workload.summaries()
    got = shadow.summaries()
    bad = [key for key in got if not same_summary(got[key], want.get(key))]
    attempted += len(got)
    failed += len(bad)
    problems += [f"traced {key}: differs from untraced" for key in bad]

    spans = session.collector.spans
    values = {name: 0.0 for name, _unit in ledger.PER_LAYER}
    values.update(ledger.span_metrics(spans))
    values.update(ledger.registry_metrics(session.registry))
    values["obs.spans_dropped"] = session.collector.dropped
    if args.workload == "campaign":
        # Batch and cache numbers come from the untraced unit: with tracing
        # on, records carry worker snapshots and the result tier refuses them.
        cold = next(ps for ps in workload.passes if ps.index == 0)
        warm = [ps for ps in workload.passes if ps.index > 0]
        values["batch.cold_run_s"] = cold.run_s
        values["batch.cold_run_nocache_s"], bad = workload.cold_run_without_cache()
        attempted += cold.items
        failed += bad
        values["batch.warm_run_s"] = sum(ps.run_s for ps in warm)
        values["batch.item_s"] = cold.item_s
        values["batch.parallel_efficiency"] = cold.item_s / (workload.WORKERS * cold.run_s)
        values["curves.memo_hit_ratio"] = cold.memo_hit_rate
        values["cache.result_hit_ratio"] = sum(ps.cached for ps in warm) / sum(
            ps.items for ps in warm
        )
        values["cache.curve_disk_hits"] = sum(ps.disk_hits for ps in warm)
        curve_files, cache_bytes = workload.cold_disk
        values["cache.curve_writes"] = curve_files
        values["cache.disk_mb"] = cache_bytes / 1e6
        traced_warm = [ps for ps in shadow.passes if ps.index > 0]
        values["cache.traced_result_hit_ratio"] = sum(
            ps.cached for ps in traced_warm
        ) / sum(ps.items for ps in traced_warm)
        base, with_obs = untraced.items[0], run.items[0]
    else:
        base, with_obs = untraced.wall, run.wall
    values["obs.overhead_pct"] = 100.0 * (with_obs - base) / base

    stem = WORK / f"{args.workload}-seed{args.seed}"
    write_chrome_trace(str(stem) + "-trace.json", session.collector)
    ledger_doc = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_s": base,
        "traced_s": with_obs,
        "metrics": values,
        "spans": ledger.span_totals(spans),
    }
    with open(str(stem) + "-ledger.json", "w", encoding="utf-8") as fh:
        json.dump(ledger_doc, fh, indent=2, sort_keys=True)
    print(f"{args.workload} seed={args.seed}: traced ledger -> {stem}-ledger.json")
    for name, unit in ledger.PER_LAYER:
        print(f"  {name:34s} {values[name]:14.6g} {unit}")
    for problem in problems[:20]:
        print(f"  check failed: {problem}")
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in ledger.PER_LAYER
    }
    return attempted, failed, metrics


def write_reference(args):
    import workloads

    workload = make_workload(args.workload, workloads.DEFAULT_SEED, pinned=False)
    WORK.mkdir(exist_ok=True)
    workload.setup(WORK)
    for k in range(getattr(workload, "SWEEPS", 1)):
        workload.request(k)
    workload.cleanup()
    items = workload.summaries()
    path = workloads.write_reference(args.workload, items)
    print(f"wrote {path} ({len(items)} items)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference(args)

    workload, setup_s = set_up(args.workload, args.seed)
    try:
        if args.trace:
            attempted, failed, metrics = traced(args, workload)
        else:
            attempted, failed, metrics = end_to_end(args, workload, setup_s)
    finally:
        workload.cleanup()
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
