"""Unit tests for the fixed-point analysis (cyclic systems, Section 6)."""

import math

import numpy as np
import pytest
from test_golden import CASES, _build_system

from repro.analysis import (
    AnalysisOptions,
    CompositionalAnalysis,
    CyclicDependencyError,
    FcfsApproxAnalysis,
    FixpointAnalysis,
    HorizonConfig,
    SpnpApproxAnalysis,
    SppApproxAnalysis,
    dependency_order,
    fixpoint,
    make_analyzer,
)
from repro.model import (
    Job,
    JobSet,
    PeriodicArrivals,
    SchedulingPolicy,
    System,
    assign_priorities_explicit,
    assign_priorities_proportional_deadline,
)
from repro.sim import simulate
from repro.workloads import (
    ShopTopology,
    generate_aperiodic_jobset,
    generate_periodic_jobset,
)

THEOREM4_METHODS = ["SPNP/App", "FCFS/App", "SPP/App", "Mixed/App", "Fixpoint/App"]
#: Some periodic sets creep for all twelve default rounds; four keep the
#: engine comparisons quick without changing what they compare.
SHORT = HorizonConfig(max_rounds=4)


def spp_system(jobs, priorities=None):
    sys_ = System(JobSet(jobs), "spp")
    if priorities:
        assign_priorities_explicit(sys_.job_set, priorities)
    else:
        assign_priorities_proportional_deadline(sys_)
    return sys_


def physical_loop_system():
    """A job revisiting its first processor: P1 -> P2 -> P1."""
    a = Job.build(
        "A", [("P1", 1.0), ("P2", 1.0), ("P1", 1.0)], PeriodicArrivals(10.0), 30.0
    )
    b = Job.build("B", [("P1", 0.5)], PeriodicArrivals(5.0), 15.0)
    return spp_system([a, b])


def acyclic_systems():
    """The golden zoo plus generated job shops; none has a loop."""
    for case in CASES:
        yield case[0], _build_system(*case[1:])
    rng = np.random.default_rng(7)
    for stages in (1, 2, 3):
        topology = ShopTopology(stages, 2)
        for periodic in (True, False):
            if periodic:
                job_set = generate_periodic_jobset(topology, 4, 0.6, 3.0, rng)
            else:
                job_set = generate_aperiodic_jobset(topology, 4, 0.6, 3.0, 4.0, rng)
            assign_priorities_proportional_deadline(job_set)
            procs = sorted(job_set.processors)
            policies = {p: ("spp", "spnp", "fcfs")[i % 3] for i, p in enumerate(procs)}
            yield f"shop{stages}{'pb'[not periodic]}", System(job_set, policies)


def _payload(result):
    data = result.to_dict()
    data.pop("method")
    return data


class TestAcyclicAgreement:
    @pytest.mark.parametrize(
        "options",
        [None, AnalysisOptions(compact_budget=16), AnalysisOptions(compact_budget=64)],
        ids=["exact", "c16", "c64"],
    )
    def test_matches_single_pass_engine(self, options):
        # One engine: on an acyclic system the fixpoint is the single
        # pass, bit for bit, whatever policy is forced, compacted or not.
        policies = [
            SchedulingPolicy.SPNP, SchedulingPolicy.FCFS, SchedulingPolicy.SPP, None
        ]
        for name, sys_ in acyclic_systems():
            for policy in policies:
                fix = FixpointAnalysis(
                    SHORT, force_policy=policy, options=options
                ).analyze(sys_)
                one = CompositionalAnalysis(
                    SHORT, force_policy=policy, options=options
                ).analyze(sys_)
                assert _payload(fix) == _payload(one), (name, policy)

    @pytest.mark.parametrize("method", THEOREM4_METHODS)
    def test_one_sweep_per_round(self, method):
        # Dependency order evaluates every hop once, from final inputs,
        # so no sweep confirms the first.
        telemetry = AnalysisOptions(convergence=True)
        for name, sys_ in acyclic_systems():
            result = make_analyzer(method, SHORT, options=telemetry).analyze(sys_)
            rounds = result.convergence["rounds"]
            assert len(rounds) == result.rounds, name
            for entry in rounds:
                assert entry["n_sweeps"] == 1, name
                assert entry["stable"]

    def test_lone_job(self):
        job = Job.build("A", [("P1", 1.0)], PeriodicArrivals(4.0), 8.0)
        res = FixpointAnalysis().analyze(spp_system([job]))
        assert res.jobs["A"].wcrt == pytest.approx(1.0)


class TestPhysicalLoop:
    def test_single_pass_engine_rejects(self):
        sys_ = physical_loop_system()
        with pytest.raises(CyclicDependencyError):
            dependency_order(sys_, for_envelopes=True)

    @pytest.mark.parametrize(
        "cls",
        [SpnpApproxAnalysis, FcfsApproxAnalysis, SppApproxAnalysis, CompositionalAnalysis],
    )
    def test_single_pass_methods_raise(self, cls):
        with pytest.raises(CyclicDependencyError):
            cls().analyze(physical_loop_system())

    def test_keep_curves(self):
        res = FixpointAnalysis(keep_curves=True).analyze(physical_loop_system())
        hops = res.jobs["A"].hops
        assert [h.key for h in hops] == [("A", 0), ("A", 1), ("A", 2)]
        assert sum(h.local_delay for h in hops) == res.jobs["A"].wcrt
        for hop in hops:
            assert hop.service_lower is not None and hop.service_upper is not None
            early, late = hop.arrival_times, hop.completion_times
            assert early.size == late.size > 0
            assert np.all(early <= late)

    def test_exact_bounds_are_pinned(self):
        # The sweep rule must reach this fixed point exactly: nothing else
        # pins where the sweeps over a loop end.
        res = FixpointAnalysis().analyze(physical_loop_system())
        assert {j: r.wcrt for j, r in res.jobs.items()} == {
            "A": 3.3333333333333357,
            "B": 2.571428571428573,
        }
        assert (res.rounds, res.horizon, res.converged) == (2, 240.0, True)

    def test_fixpoint_handles_loop(self):
        sys_ = physical_loop_system()
        res = FixpointAnalysis().analyze(sys_)
        assert math.isfinite(res.jobs["A"].wcrt)
        assert res.jobs["A"].wcrt >= 3.0  # at least its own execution

    def test_loop_bound_dominates_simulation(self):
        sys_ = physical_loop_system()
        res = FixpointAnalysis().analyze(sys_)
        rep = res.horizon / 2
        sim = simulate(sys_, horizon=res.horizon, report_window=rep)
        for jid, er in res.jobs.items():
            assert sim.jobs[jid].max_response(rep) <= er.wcrt + 1e-6

    def test_spnp_loop(self):
        a = Job.build(
            "A",
            [("P1", 1.0), ("P2", 1.0), ("P1", 1.0)],
            PeriodicArrivals(10.0),
            30.0,
        )
        sys_ = System(JobSet([a]), "spnp")
        assign_priorities_proportional_deadline(sys_)
        res = FixpointAnalysis().analyze(sys_)
        rep = res.horizon / 2
        sim = simulate(sys_, horizon=res.horizon, report_window=rep)
        assert sim.jobs["A"].max_response(rep) <= res.jobs["A"].wcrt + 1e-6


class TestGuards:
    def test_overload_infinite(self):
        job = Job.build("A", [("P1", 3.0)], PeriodicArrivals(2.0), 100.0)
        res = FixpointAnalysis().analyze(spp_system([job]))
        assert math.isinf(res.jobs["A"].wcrt)

    def test_iteration_cap_still_sound(self, monkeypatch):
        sys_ = physical_loop_system()
        full = FixpointAnalysis().analyze(sys_)
        monkeypatch.setattr(fixpoint, "MAX_SWEEPS", 1)
        res = FixpointAnalysis().analyze(sys_)
        # Fewer iterations = looser (or equal) but still finite-or-inf sound.
        if math.isfinite(res.jobs["A"].wcrt):
            assert res.jobs["A"].wcrt >= full.jobs["A"].wcrt - 1e-9
