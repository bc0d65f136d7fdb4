"""Tests for opt-in fixpoint convergence telemetry.

``AnalysisOptions(convergence=True)`` must attach a per-sweep/per-round
``convergence`` block without changing any bound, any default payload, or
any journal digest -- and the default path must stay byte-identical.
"""

import json
import math

from repro.analysis import AnalysisOptions, FixpointAnalysis, make_analyzer
from repro.batch.journal import item_digest
from repro.model import (
    Job,
    JobSet,
    PeriodicArrivals,
    System,
    assign_priorities_proportional_deadline,
)
from repro.obs import metrics as obs_metrics


def cyclic_system():
    a = Job.build(
        "A", [("P1", 1.0), ("P2", 1.0), ("P1", 1.0)], PeriodicArrivals(10.0), 30.0
    )
    b = Job.build("B", [("P2", 0.5), ("P1", 0.5)], PeriodicArrivals(5.0), 15.0)
    sys_ = System(JobSet([a, b]), "spp")
    assign_priorities_proportional_deadline(sys_)
    return sys_


OPTS = AnalysisOptions(convergence=True)


class TestConvergenceBlock:
    def test_absent_by_default(self):
        result = FixpointAnalysis().analyze(cyclic_system())
        assert result.convergence is None
        assert "convergence" not in result.to_dict()

    def test_opt_in_block_shape(self):
        result = FixpointAnalysis(options=OPTS).analyze(cyclic_system())
        block = result.convergence
        assert block is not None
        assert block["n_rounds"] >= 1
        assert block["total_sweeps"] == sum(
            r["n_sweeps"] for r in block["rounds"]
        )
        final = block["rounds"][-1]
        assert final["stable"] is True
        assert final["drained"] is True
        assert final["horizon"] == result.horizon
        assert len(final["sweeps"]) == final["n_sweeps"]
        for i, sweep in enumerate(final["sweeps"]):
            assert sweep["sweep"] == i + 1
            assert isinstance(sweep["bounded"], bool)
        # the first sweep of a round has no previous totals to diff
        assert final["sweeps"][0]["residual"] is None
        # the loop needs more than one sweep
        last = final["sweeps"][-1]
        assert last["residual"] is not None

    def test_block_survives_json_round_trip(self):
        result = FixpointAnalysis(options=OPTS).analyze(cyclic_system())
        payload = json.loads(result.to_json())
        assert payload["convergence"]["rounds"]
        json.dumps(payload, allow_nan=False)

    def test_telemetry_does_not_change_bounds_or_payload(self):
        plain = FixpointAnalysis().analyze(cyclic_system())
        teled = FixpointAnalysis(options=OPTS).analyze(cyclic_system())
        teled_dict = teled.to_dict()
        teled_dict.pop("convergence")
        assert teled_dict == plain.to_dict()

    def test_non_fixpoint_analyzers_unaffected(self):
        result = make_analyzer("SPP/Exact", options=OPTS).analyze(
            cyclic_system()
        )
        assert result.convergence is None

    def test_single_pass_methods_report_one_sweep_per_round(self):
        # The single-pass methods run on the same engine.
        a = Job.build("A", [("P1", 1.0), ("P2", 1.0)], PeriodicArrivals(10.0), 30.0)
        b = Job.build("B", [("P1", 0.5), ("P2", 0.5)], PeriodicArrivals(5.0), 15.0)
        sys_ = System(JobSet([a, b]), "spp")
        assign_priorities_proportional_deadline(sys_)
        for method in ("SPNP/App", "FCFS/App", "SPP/App", "Mixed/App"):
            result = make_analyzer(method, options=OPTS).analyze(sys_)
            rounds = result.convergence["rounds"]
            assert [r["n_sweeps"] for r in rounds] == [1] * result.rounds
            plain = make_analyzer(method).analyze(sys_).to_dict()
            teled = result.to_dict()
            teled.pop("convergence")
            assert teled == plain


class TestDigestStability:
    def test_convergence_flag_never_changes_item_digest(self):
        sys_ = cyclic_system()
        base = item_digest(sys_, method="Fixpoint/App")
        defaults = item_digest(
            sys_, method="Fixpoint/App", options=AnalysisOptions()
        )
        teled = item_digest(sys_, method="Fixpoint/App", options=OPTS)
        # telemetry-only knob: old journals stay resumable
        assert teled == defaults
        # options without compaction give the bounds of no options
        assert base == defaults
        compacted = item_digest(
            sys_, method="Fixpoint/App", options=AnalysisOptions(compact_budget=16)
        )
        assert compacted != base


class TestFixpointMetrics:
    def test_sweep_metrics_without_opt_in(self):
        reg = obs_metrics.enable_metrics()
        try:
            FixpointAnalysis().analyze(cyclic_system())
        finally:
            obs_metrics.disable_metrics()
        assert reg.counter_value("repro_fixpoint_sweeps_total") >= 1
        residual = reg.gauge_value("repro_fixpoint_residual")
        assert residual is not None and math.isfinite(residual)
