"""Tests for the uniform analyzer API and the stable result schema."""

import json
import math

import pytest

from repro.analysis import (
    METHODS,
    AnalysisResult,
    Analyzer,
    CyclicDependencyError,
    EndToEndResult,
    HorizonConfig,
    RESULT_SCHEMA_VERSION,
    dependency_order,
    make_analyzer,
)
from repro.model import (
    Job,
    JobSet,
    PeriodicArrivals,
    PriorityError,
    SchedulingPolicy,
    System,
    assign_priorities_explicit,
    assign_priorities_proportional_deadline,
)


def small_system():
    jobs = [
        Job.build("a", [("cpu", 1.0)], PeriodicArrivals(5.0), 10.0),
        Job.build("b", [("cpu", 2.0)], PeriodicArrivals(6.0), 12.0),
    ]
    sys_ = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(sys_)
    return sys_


class TestAnalyzerProtocol:
    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_uniform_constructor(self, name):
        cls = METHODS[name]
        default = cls()
        explicit = cls(None)
        with_horizon = cls(HorizonConfig(initial=64.0))
        for analyzer in (default, explicit, with_horizon):
            assert isinstance(analyzer, Analyzer)
            assert analyzer.name == name
            assert analyzer.policy is None or isinstance(
                analyzer.policy, SchedulingPolicy
            )

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_make_analyzer_no_special_cases(self, name):
        analyzer = make_analyzer(name, HorizonConfig(initial=64.0))
        assert analyzer.name == name

    def test_make_analyzer_unknown_method(self):
        with pytest.raises(Exception) as exc_info:
            make_analyzer("No/Such")
        assert "No/Such" in str(exc_info.value)

    def test_policies_are_method_appropriate(self):
        assert METHODS["SPNP/App"]().policy == SchedulingPolicy.SPNP
        assert METHODS["FCFS/App"]().policy == SchedulingPolicy.FCFS
        assert METHODS["SPP/Exact"]().policy == SchedulingPolicy.SPP
        assert METHODS["SPP/S&L"]().policy == SchedulingPolicy.SPP
        assert METHODS["Stationary/NC"]().policy is None


class TestResultSchema:
    def test_to_dict_schema(self):
        result = make_analyzer("SPP/Exact").analyze(small_system())
        data = result.to_dict()
        assert data["schema"] == RESULT_SCHEMA_VERSION == 1
        assert data["method"] == "SPP/Exact"
        assert set(data) == {
            "schema", "method", "horizon", "drained", "converged",
            "rounds", "schedulable", "jobs",
        }
        assert data["rounds"] >= 1
        assert set(data["jobs"]) == {"a", "b"}
        for job in data["jobs"].values():
            assert set(job) == {
                "deadline", "wcrt", "slack", "meets_deadline", "n_instances",
            }

    def test_to_json_round_trip(self):
        result = make_analyzer("SPNP/App").analyze(small_system())
        parsed = json.loads(result.to_json())
        assert parsed == result.to_dict()
        assert json.loads(result.to_json(indent=2)) == parsed

    def test_non_finite_values_become_null(self):
        result = AnalysisResult(
            method="X",
            horizon=100.0,
            drained=False,
            converged=False,
            jobs={
                "j": EndToEndResult(
                    job_id="j", deadline=5.0, wcrt=math.inf, n_instances=0
                )
            },
        )
        data = result.to_dict()
        assert data["jobs"]["j"]["wcrt"] is None
        assert data["jobs"]["j"]["slack"] is None
        json.dumps(data, allow_nan=False)  # strictly valid JSON


class TestCycleExtraction:
    def _two_cycle_system(self):
        a = Job.build("X", [("P1", 1.0), ("P2", 1.0)], PeriodicArrivals(10.0), 30.0)
        b = Job.build("Y", [("P2", 1.0), ("P1", 1.0)], PeriodicArrivals(10.0), 30.0)
        sys_ = System(JobSet([a, b]), "spp")
        assign_priorities_proportional_deadline(sys_)
        return sys_

    def test_reported_cycle_is_closed_and_directed(self):
        with pytest.raises(CyclicDependencyError) as exc_info:
            dependency_order(self._two_cycle_system(), for_envelopes=True)
        cycle = exc_info.value.cycle
        # Closed: explicitly returns to its starting node.
        assert cycle[0] == cycle[-1]
        # A genuine cycle visits at least two distinct nodes.
        distinct = cycle[:-1]
        assert len(distinct) >= 2
        assert len(set(distinct)) == len(distinct)

    def test_cycle_edges_exist_in_dependency_graph(self):
        sys_ = self._two_cycle_system()
        with pytest.raises(CyclicDependencyError) as exc_info:
            dependency_order(sys_, for_envelopes=True)
        cycle = exc_info.value.cycle
        # Each reported key names a real subjob of the system.
        keys = {
            (job.job_id, idx)
            for job in sys_.job_set
            for idx in range(len(job.subjobs))
        }
        assert set(cycle) <= keys

    def test_physical_loop_cycle(self):
        a = Job.build(
            "A", [("P1", 1.0), ("P2", 1.0), ("P1", 1.0)],
            PeriodicArrivals(10.0), 30.0,
        )
        sys_ = System(JobSet([a]), "spp")
        assign_priorities_proportional_deadline(sys_)
        with pytest.raises(CyclicDependencyError) as exc_info:
            dependency_order(sys_, for_envelopes=True)
        cycle = exc_info.value.cycle
        assert cycle[0] == cycle[-1]
        assert len(cycle) >= 3


class TestPriorityCheck:
    """Every method checks priorities under the policy it analyzes."""

    @staticmethod
    def _tied_system(policy="spp"):
        # Two jobs share priority 1; the one served second finishes at 4.
        jobs = [
            Job.build(j, [("P1", 2.0)], PeriodicArrivals(5.0), 3.0)
            for j in ("a", "b")
        ]
        sys_ = System(JobSet(jobs), policy)
        assign_priorities_explicit(sys_.job_set, {("a", 0): 1, ("b", 0): 1})
        return sys_

    @pytest.mark.parametrize(
        "method", sorted(m for m in METHODS if m != "FCFS/App")
    )
    def test_tied_priorities_are_refused(self, method):
        with pytest.raises(PriorityError, match="duplicate priorities"):
            make_analyzer(method).analyze(self._tied_system())

    def test_fcfs_ignores_priorities(self):
        result = make_analyzer("FCFS/App").analyze(self._tied_system())
        assert result.jobs["a"].wcrt == result.jobs["b"].wcrt == 4.0
        assert not result.schedulable

    def test_forced_policy_is_the_one_checked(self):
        # On FCFS processors ties are harmless, unless a priority policy
        # is forced on them.
        sys_ = self._tied_system("fcfs")
        assert make_analyzer("Mixed/App").analyze(sys_).jobs["a"].wcrt == 4.0
        for method in ("SPNP/App", "SPP/App"):
            with pytest.raises(PriorityError):
                make_analyzer(method).analyze(sys_)

    def test_missing_priorities_are_refused(self):
        jobs = [Job.build("a", [("P1", 1.0)], PeriodicArrivals(5.0), 3.0)]
        for method in ("SPP/App", "Fixpoint/App", "Stationary/NC"):
            with pytest.raises(PriorityError, match="without priorities"):
                make_analyzer(method).analyze(System(JobSet(jobs), "spp"))
