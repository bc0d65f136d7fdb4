"""Per-layer ledger of a traced run, read from the telemetry ``repro.obs`` emits.

The traced run enables ``repro.obs.observe(force_trace=True,
force_metrics=True, detail=True)``, so the analyzers' own spans (``analyze``,
``hop``, ``horizon.round``, ``fixpoint.sweep``), the per-call kernel spans
(``curve.<op>``) and the benchmark's spans around each public call land in
one collector, and the counters and histograms in one registry.

A span's *self time* is its duration minus the durations of its children.
Kernel spans have no children, so kernel, hop, horizon-round and
fixpoint-sweep self times partition the part of ``analyze`` they cover;
what is left (the ``analyze`` and ``job`` spans' own time) is
``unattributed_s``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

#: Per-layer metrics in the order BENCHMARK.json lists them, with units.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("model.load_s", "s"),
    ("analysis.analyze_s", "s"),
    ("analysis.spp_exact_s", "s"),
    ("analysis.spp_sl_s", "s"),
    ("analysis.spnp_app_s", "s"),
    ("analysis.fcfs_app_s", "s"),
    ("analysis.fixpoint_app_s", "s"),
    ("analysis.fixpoint_app_c64_s", "s"),
    ("analysis.horizon_rounds", "count"),
    ("analysis.horizon_round_self_s", "s"),
    ("analysis.hop_self_s", "s"),
    ("analysis.fixpoint_sweeps", "count"),
    ("analysis.fixpoint_hops_skipped", "count"),
    ("analysis.fixpoint_sweep_self_s", "s"),
    ("curves.service_transform_s", "s"),
    ("curves.service_transform_calls", "count"),
    ("curves.sum_curves_s", "s"),
    ("curves.sum_curves_calls", "count"),
    ("curves.identity_minus_s", "s"),
    ("curves.identity_minus_calls", "count"),
    ("curves.memo_hit_ratio", "ratio"),
    ("curves.compactions", "count"),
    ("curves.compact_bp_ratio", "ratio"),
    ("unattributed_s", "s"),
    ("serialize.to_json_s", "s"),
    ("batch.cold_run_s", "s"),
    ("batch.cold_run_nocache_s", "s"),
    ("batch.warm_run_s", "s"),
    ("batch.item_s", "s"),
    ("batch.parallel_efficiency", "ratio"),
    ("batch.queue_wait_s", "s"),
    ("batch.journal_records", "count"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.traced_result_hit_ratio", "ratio"),
    ("cache.curve_writes", "count"),
    ("cache.curve_disk_hits", "count"),
    ("cache.disk_mb", "MB"),
    ("cache.corrupt", "count"),
    ("obs.overhead_pct", "%"),
    ("obs.spans_dropped", "count"),
)

#: ``analyze`` span method attribute -> per-method metric.
METHOD_METRIC = {
    "SPP/Exact": "analysis.spp_exact_s",
    "SPP/S&L": "analysis.spp_sl_s",
    "SPNP/App": "analysis.spnp_app_s",
    "FCFS/App": "analysis.fcfs_app_s",
    "Fixpoint/App": "analysis.fixpoint_app_s",
}

KERNELS = ("service_transform", "sum_curves", "identity_minus")

#: Spans whose self time is attributed to a layer.
ATTRIBUTED = ("hop", "horizon.round", "fixpoint.sweep") + tuple(
    f"curve.{op}" for op in KERNELS
)


def self_times(spans: Iterable[Any]) -> Tuple[Dict[str, float], List[Tuple[Any, float]]]:
    """Self time summed per span name, plus ``(span, self)`` per span."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            covered[s.parent_id] += s.duration
    per_span = [(s, max(0.0, s.duration - covered[s.span_id])) for s in spans]
    by_name: Dict[str, float] = defaultdict(float)
    for s, own in per_span:
        by_name[s.name] += own
    return dict(by_name), per_span


def span_metrics(spans: List[Any]) -> Dict[str, float]:
    """Metrics read from the span tree alone."""
    by_id = {s.span_id: s for s in spans}
    by_name, _ = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    rounds = 0
    for s in spans:
        if s.name == "analyze":
            out["analysis.analyze_s"] += s.duration
            rounds += int(s.attrs.get("rounds") or 0)
            parent = by_id.get(s.parent_id)
            c64 = parent is not None and parent.attrs.get("variant") == "c64"
            metric = (
                "analysis.fixpoint_app_c64_s"
                if c64
                else METHOD_METRIC.get(str(s.attrs.get("method")))
            )
            if metric is not None:
                out[metric] += s.duration
        elif s.name == "bench.load":
            out["model.load_s"] += s.duration
        elif s.name == "bench.to_json":
            out["serialize.to_json_s"] += s.duration
    out["analysis.horizon_rounds"] = rounds
    out["analysis.horizon_round_self_s"] = by_name.get("horizon.round", 0.0)
    out["analysis.hop_self_s"] = by_name.get("hop", 0.0)
    out["analysis.fixpoint_sweep_self_s"] = by_name.get("fixpoint.sweep", 0.0)
    out["unattributed_s"] = out["analysis.analyze_s"] - sum(
        by_name.get(name, 0.0) for name in ATTRIBUTED
    )
    return dict(out)


def registry_metrics(registry: Any) -> Dict[str, float]:
    """Metrics read from the counters, gauges and histograms."""
    out: Dict[str, float] = {}
    ops = registry.histograms.get("repro_curve_op_seconds", {})
    for op in KERNELS:
        series = [h for key, h in ops.items() if f'op="{op}"' in key]
        out[f"curves.{op}_s"] = sum(h.sum for h in series)
        out[f"curves.{op}_calls"] = sum(h.count for h in series)
    hits = registry.counter_value("repro_curve_cache_hits_total")
    misses = registry.counter_value("repro_curve_cache_misses_total")
    out["curves.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["curves.compactions"] = registry.counter_value("repro_curve_compactions_total")
    gauges = registry.gauges.get("repro_curve_breakpoints", {})
    bp_in = sum(v for key, v in gauges.items() if 'stage="in"' in key)
    bp_out = sum(v for key, v in gauges.items() if 'stage="out"' in key)
    out["curves.compact_bp_ratio"] = bp_out / bp_in if bp_in else 0.0
    out["analysis.fixpoint_sweeps"] = registry.counter_value("repro_fixpoint_sweeps_total")
    out["analysis.fixpoint_hops_skipped"] = registry.counter_value(
        "repro_fixpoint_hops_skipped_total"
    )
    waits = registry.histograms.get("repro_batch_queue_wait_seconds", {})
    out["batch.queue_wait_s"] = sum(h.sum for h in waits.values())
    out["batch.journal_records"] = registry.counter_value(
        "repro_batch_journal_records_total"
    )
    out["cache.corrupt"] = registry.counter_value("repro_cache_corrupt_total")
    return out


def span_totals(spans: Iterable[Any]) -> Dict[str, Dict[str, float]]:
    """Count, total and self seconds per span name (the ledger file's detail)."""
    _, per_span = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for s, own in per_span:
        row = totals.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return dict(sorted(totals.items()))
