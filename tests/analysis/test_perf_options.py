"""Regression tests for the performance layer (AnalysisOptions).

The layer must be invisible when off (byte-identical results with
``options=None`` and with options that only change speed or telemetry)
and certified when on (compacted bounds dominate exact bounds).
"""

import json
import math

import numpy as np
import pytest

from repro.analysis import AnalysisOptions
from repro.analysis.admission import make_analyzer
from repro.analysis.fixpoint import FixpointAnalysis
from repro.curves import Curve
from repro.curves.compact import max_deviation
from repro.model import (
    Job,
    JobSet,
    PeriodicArrivals,
    System,
    TraceArrivals,
    assign_priorities_proportional_deadline,
    system_from_dict,
)
from repro.obs.metrics import metrics


def cyclic_system():
    """Two chains in opposite directions: needs the fixpoint iteration."""
    jobs = [
        Job.build("fwd", [("P0", 1.0), ("P1", 0.8)], PeriodicArrivals(6.0), 40.0),
        Job.build("rev", [("P1", 1.0), ("P0", 0.7)], PeriodicArrivals(7.0), 40.0),
        Job.build("hp", [("P0", 0.5)], PeriodicArrivals(5.0), 20.0),
    ]
    sys_ = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(sys_)
    return sys_


def bursty_system(n_jobs=6, n_inst=300):
    """Finite dense bursts: breakpoint-heavy, transient overload."""
    jobs = []
    for j in range(n_jobs):
        times = j * 0.017 + 0.06 * np.arange(n_inst)
        jobs.append(
            Job.build(
                f"b{j}",
                [("P0", 0.1), ("P1", 0.1)],
                TraceArrivals(times.tolist()),
                deadline=800.0,
            )
        )
    sys_ = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(sys_)
    return sys_


def wcrts(result):
    return {job_id: r.wcrt for job_id, r in result.jobs.items()}


# -- the layer is invisible when off ---------------------------------------


THEOREM4_METHODS = ["SPNP/App", "FCFS/App", "SPP/App", "Mixed/App", "Fixpoint/App"]

#: Seed-0 shop_sweep set ``s0043-b2u3`` under SPP.  Seeding Fixpoint/App's
#: horizons from the previous round once made it run all twelve rounds
#: unconverged (T3 1.1014 instead of 1.0804) whenever any options object
#: was passed, even one that only sized the curve cache.
S0043_B2U3 = {
    "policies": {"P1": "spp", "P4": "spp", "P2": "spp"},
    "priority_assignment": "explicit",
    "jobs": [
        {"id": "T1", "deadline": 0.5775702791582228,
         "arrivals": {"type": "bursty", "x": 0.929456216976141},
         "route": [["P1", 0.11720520368860399, 1], ["P4", 0.039912362921246766, 1]]},
        {"id": "T2", "deadline": 0.5612027922235583,
         "arrivals": {"type": "bursty", "x": 0.4029030661109865},
         "route": [["P2", 0.22201730131551697, 1], ["P4", 0.15409319768793522, 2]]},
        {"id": "T3", "deadline": 5.145086613104102,
         "arrivals": {"type": "bursty", "x": 0.787887794185894},
         "route": [["P1", 0.24250013286104136, 2], ["P4", 0.17464487939617182, 4]]},
        {"id": "T4", "deadline": 3.6884738999735025,
         "arrivals": {"type": "bursty", "x": 0.787352912485961},
         "route": [["P2", 0.26741318312459494, 2], ["P4", 0.08029184186340282, 3]]},
    ],
}


def payload(result):
    data = result.to_dict()
    data.pop("convergence", None)
    return data


def test_warm_start_matches_cold_start():
    # Options without compaction give every method the payload of
    # options=None.
    for method in THEOREM4_METHODS:
        systems = [bursty_system(n_jobs=4, n_inst=100)]
        if method == "Fixpoint/App":
            systems.append(cyclic_system())
        for sys_ in systems:
            cold = make_analyzer(method).analyze(sys_)
            warm = make_analyzer(method, options=AnalysisOptions()).analyze(sys_)
            assert warm.to_dict() == cold.to_dict(), method


@pytest.mark.parametrize(
    "opts", [AnalysisOptions(convergence=True)], ids=["convergence"]
)
def test_speed_and_telemetry_options_keep_fixpoint_bounds(opts):
    sys_ = system_from_dict(json.loads(json.dumps(S0043_B2U3)))
    plain = FixpointAnalysis().analyze(sys_)
    assert plain.converged and plain.rounds == 5
    assert plain.jobs["T3"].wcrt == 1.080351071153669
    assert payload(FixpointAnalysis(options=opts).analyze(sys_)) == payload(plain)


def test_no_hop_skipped_on_acyclic_systems():
    # Dependency order settles an acyclic system in one sweep per round.
    with metrics() as registry:
        result = FixpointAnalysis().analyze(bursty_system(n_jobs=4, n_inst=100))
        sweeps = registry.counter_value("repro_fixpoint_sweeps_total")
    assert sweeps == result.rounds >= 1


def test_cyclic_fixed_point_is_pinned():
    # The sweep rule must reach this fixed point exactly: nothing else
    # pins where the sweeps over a loop end.
    result = FixpointAnalysis().analyze(cyclic_system())
    assert wcrts(result) == {
        "fwd": 4.688888888889039,
        "hp": 1.444444444444457,
        "rev": 4.061204013378017,
    }
    assert (result.rounds, result.horizon, result.converged) == (4, 1280.0, True)


# -- compaction is certified when on ---------------------------------------


@pytest.mark.parametrize("method", ["SPP/App", "Fixpoint/App"])
def test_compacted_bounds_dominate_exact(method):
    sys_ = bursty_system()
    exact = make_analyzer(method).analyze(sys_)
    compacted = make_analyzer(
        method, options=AnalysisOptions(compact_budget=64)
    ).analyze(sys_)
    base, comp = wcrts(exact), wcrts(compacted)
    for job_id in base:
        assert comp[job_id] >= base[job_id] - 1e-9, job_id
    # ... and not uselessly loose on this fixture.
    for job_id in base:
        if math.isfinite(base[job_id]) and base[job_id] > 0:
            assert comp[job_id] <= 1.10 * base[job_id], job_id


def test_compaction_emits_metrics():
    sys_ = bursty_system(n_jobs=4, n_inst=200)
    with metrics() as registry:
        make_analyzer(
            "Fixpoint/App", options=AnalysisOptions(compact_budget=32)
        ).analyze(sys_)
        compactions = registry.counters.get("repro_curve_compactions_total", {})
        gauges = registry.gauges.get("repro_curve_breakpoints", {})
    assert sum(compactions.values()) > 0
    assert gauges  # in/out breakpoint gauges were recorded


def test_exact_analysis_reports_compaction_ignored():
    jobs = [
        Job.build("a", [("cpu", 1.0)], PeriodicArrivals(5.0), 10.0),
        Job.build("b", [("cpu", 1.5)], PeriodicArrivals(6.0), 12.0),
    ]
    sys_ = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(sys_)
    res = make_analyzer(
        "SPP/Exact", options=AnalysisOptions(compact_budget=64)
    ).analyze(sys_)
    kinds = [d.get("kind") for d in res.diagnostics]
    assert "compaction_ignored" in kinds


# -- options object and threading ------------------------------------------


def test_options_validation():
    with pytest.raises(ValueError):
        AnalysisOptions(compact_budget=2)
    with pytest.raises(ValueError):
        AnalysisOptions(compact_max_error=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="compact_max_error"):
            AnalysisOptions(compact_max_error=bad)
    assert not AnalysisOptions().compaction_enabled
    assert AnalysisOptions(compact_budget=64).compaction_enabled
    assert AnalysisOptions(compact_max_error=0.5).compaction_enabled


def test_both_compaction_values_are_refused():
    with pytest.raises(ValueError, match="at most one"):
        AnalysisOptions(compact_budget=64, compact_max_error=0.1)


def test_max_error_alone_compacts():
    # The mode follows from the value that is set: a certified error bound
    # alone compacts, within that error.
    curve = Curve.step_from_times(np.cumsum(np.full(400, 0.25)), 0.01)
    capped = AnalysisOptions(compact_max_error=0.1).cap_upper(curve)
    assert capped.n_breakpoints < curve.n_breakpoints / 5
    assert max_deviation(capped, curve, curve.x_end + 1.0) <= 0.1 + 1e-9


def test_make_analyzer_threads_options():
    opts = AnalysisOptions(compact_budget=64)
    for method in ["SPP/App", "SPNP/App", "FCFS/App", "Mixed/App",
                   "Fixpoint/App", "SPP/Exact", "SPP/S&L", "Stationary/NC"]:
        analyzer = make_analyzer(method, options=opts)
        assert analyzer.options is opts
