"""Micro-benchmarks: curve-algebra kernels and their scaling.

These cover the numerical core every analysis is built on: the service
transform (Theorems 3/5/6/7), curve sums, the pseudo-inverse, and the
FCFS utilization/service pipeline, at increasing breakpoint counts.

Standalone mode (``python benchmarks/bench_curves.py --json``) times the
kernels on exact vs compacted inputs, records compaction in/out
breakpoint counts and certified deviations, and writes
``BENCH_curves.json`` at the repository root.  Every timing ``<name>_s``
is the median of ``--repeats`` calls, recorded next to its interquartile
range ``<name>_iqr_s``.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.curves import (
    Curve,
    fcfs_service_bounds,
    fcfs_utilization,
    identity_minus,
    min_curves,
    service_transform,
    sum_curves,
)
from repro.ioutil import write_json_atomic


def periodic_workload(n_instances: int, period: float = 1.0, tau: float = 0.4) -> Curve:
    times = period * np.arange(n_instances)
    return Curve.step_from_times(times, tau)


@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_service_transform_scaling(benchmark, n):
    c = periodic_workload(n)
    horizon = float(n + 10)
    s = benchmark(service_transform, Curve.identity(), c, 0.0, horizon)
    assert s.value(horizon) == pytest.approx(0.4 * n)


@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_step_construction_scaling(benchmark, n):
    times = np.sort(np.random.default_rng(0).uniform(0, n, n))
    c = benchmark(Curve.step_from_times, times, 0.5)
    assert c.value(float(n)) == pytest.approx(0.5 * n)


@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_first_crossing_scaling(benchmark, n):
    c = periodic_workload(n)
    levels = 0.4 * np.arange(1, n + 1)
    out = benchmark(c.first_crossing, levels)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("k", [2, 8, 32])
def test_sum_curves_width_scaling(benchmark, k):
    curves = [periodic_workload(500, period=1.0 + 0.01 * i) for i in range(k)]
    total = benchmark(sum_curves, curves)
    assert total.value(0.0) == pytest.approx(0.4 * k)


def test_priority_stack(benchmark):
    """A five-level priority stack: the exact Theorem-3 cascade."""

    def cascade():
        services = []
        for i in range(5):
            c = periodic_workload(200, period=2.0 + i, tau=0.3)
            avail = identity_minus(sum_curves(services)) if services else Curve.identity()
            services.append(service_transform(avail, c, 0.0, 500.0))
        return services[-1]

    s = benchmark(cascade)
    assert s.value(500.0) > 0


def test_fcfs_pipeline(benchmark):
    flows = [periodic_workload(300, period=1.0 + 0.1 * i, tau=0.2) for i in range(4)]
    g = sum_curves(flows)

    def pipeline():
        u = fcfs_utilization(g, t_end=400.0)
        return [fcfs_service_bounds(f, g, 0.2, 400.0, U=u) for f in flows]

    bounds = benchmark(pipeline)
    assert len(bounds) == 4


def test_min_curves_bench(benchmark):
    a = periodic_workload(2000, period=1.0)
    b = Curve.from_breakpoints([0.0], [0.0], final_slope=0.35)
    m = benchmark(min_curves, a, b)
    assert m.dominates(Curve.zero())


# ----------------------------------------------------------------------
# Standalone kernel benchmark (--json)
# ----------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent


def _timed(name: str, fn, repeats: int) -> dict:
    """Median ``<name>_s`` and interquartile range ``<name>_iqr_s`` of calls."""
    times_s = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times_s.append(time.perf_counter() - t0)
    q1, q3 = np.percentile(times_s, [25, 75])
    return {f"{name}_s": statistics.median(times_s), f"{name}_iqr_s": float(q3 - q1)}


def near_duplicate_availability(n: int) -> Curve:
    """Continuous rate-1/2 availability with breakpoint twins 1e-12 apart.

    Each unit interval holds a breakpoint at ``k + 0.9`` and its twin
    1e-12 later.  Against :func:`periodic_workload` the running-min
    branch of piece ``k`` is active from ``k + 0.8``, so both are
    candidate emissions and ``service_transform`` drops every twin
    through its EPS guard.
    """
    base = np.arange(n) + 0.9
    xs = np.concatenate(([0.0], np.sort(np.concatenate((base, base + 1e-12)))))
    ys = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(xs))))
    return Curve.from_breakpoints(xs, ys, 0.5, canonicalize=False)


def run_kernel_benchmark(repeats: int = 11, budget: int = 64):
    from repro.curves.compact import compact, max_deviation
    from repro.curves.memo import curve_cache

    sizes = [1000, 10000]
    kernels = {}
    for n in sizes:
        c = periodic_workload(n)
        horizon = float(n + 10)
        cu_step = compact(c, "upper", budget=budget)
        cu_lin = compact(c, "upper", budget=budget, shape="linear")
        kernels[f"service_transform_n{n}"] = {
            **_timed(
                "exact",
                lambda: service_transform(Curve.identity(), c, 0.0, horizon),
                repeats,
            ),
            **_timed(
                "compacted",
                lambda: service_transform(
                    Curve.identity(), cu_step, 0.0, horizon
                ),
                repeats,
            ),
            "breakpoints_in": int(c.n_breakpoints),
            "breakpoints_out_step": int(cu_step.n_breakpoints),
            "breakpoints_out_linear": int(cu_lin.n_breakpoints),
            "deviation_step": max_deviation(cu_step, c, horizon),
            "deviation_linear": max_deviation(cu_lin, c, horizon),
        }
        kernels[f"compact_n{n}"] = {
            **_timed("step", lambda: compact(c, "upper", budget=budget), repeats),
            **_timed(
                "linear",
                lambda: compact(c, "upper", budget=budget, shape="linear"),
                repeats,
            ),
        }

    curves = [periodic_workload(2000, period=1.0 + 0.01 * i) for i in range(16)]
    compacted = [compact(c, "upper", budget=budget, shape="linear")
                 for c in curves]
    kernels["sum_curves_16x2000"] = {
        **_timed("exact", lambda: sum_curves(curves), repeats),
        **_timed("compacted", lambda: sum_curves(compacted), repeats),
    }
    # The same total at 60% load, so the availability both rises and dips.
    total = sum_curves(curves).scale(0.1)
    kernels["identity_minus_16x2000"] = {
        **_timed("exact", lambda: identity_minus(total, 0.0, "upper"), repeats),
        "breakpoints_in": int(total.n_breakpoints),
    }

    B = near_duplicate_availability(2000)
    c = periodic_workload(2000)
    kernels["service_transform_guard_n2000"] = {
        **_timed("exact", lambda: service_transform(B, c, 0.0, 2010.0), repeats),
        "breakpoints_in": int(B.n_breakpoints),
    }

    a = periodic_workload(2000)
    rate = Curve.from_breakpoints([0.0], [0.0], final_slope=0.35)
    kernels["min_curves_n2000"] = {
        **_timed("exact", lambda: min_curves(a, rate), repeats),
        "breakpoints_in": int(a.n_breakpoints),
    }

    with curve_cache() as cache:
        for _ in range(3):
            c = periodic_workload(5000)
            compact(c, "upper", budget=budget, shape="linear")
        cache_stats = cache.stats().to_dict()

    return {
        "compact_budget": budget,
        "repeats": repeats,
        "kernels": kernels,
        "compaction_cache": cache_stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Curve-kernel micro-benchmark (exact vs compacted inputs)"
    )
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_curves.json at the repo root")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--budget", type=int, default=64)
    args = parser.parse_args(argv)

    report = run_kernel_benchmark(repeats=args.repeats, budget=args.budget)
    for name, row in report["kernels"].items():
        fields = ", ".join(
            f"{k}={v:.5f}s" if k.endswith("_s") else f"{k}={v}"
            for k, v in row.items()
            if not isinstance(v, dict)
        )
        print(f"{name}: {fields}")
    if args.json:
        out = REPO_ROOT / "BENCH_curves.json"
        write_json_atomic(out, report, indent=2, default=str)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
