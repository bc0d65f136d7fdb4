"""Unit tests for the admission API and the adaptive horizon driver."""


import math

import pytest

from repro.analysis import (
    METHODS,
    AnalysisResult,
    EndToEndResult,
    HorizonConfig,
    analyze,
    initial_horizon,
    is_schedulable,
    make_analyzer,
    run_adaptive,
)
from repro.model import (
    BurstyArrivals,
    Job,
    JobSet,
    PeriodicArrivals,
    System,
    TraceArrivals,
    assign_priorities_proportional_deadline,
)


def tiny_system(policy="spp"):
    job = Job.build("A", [("P1", 1.0)], PeriodicArrivals(4.0), 8.0)
    sys_ = System(JobSet([job]), policy)
    if policy != "fcfs":
        assign_priorities_proportional_deadline(sys_)
    return sys_


class TestAdmissionApi:
    def test_methods_registry_covers_paper(self):
        for name in ["SPP/Exact", "SPNP/App", "FCFS/App", "SPP/S&L"]:
            assert name in METHODS

    def test_make_analyzer_unknown(self):
        with pytest.raises(ValueError):
            make_analyzer("nope")

    def test_analyze_returns_result(self):
        res = analyze(tiny_system(), "SPP/Exact")
        assert isinstance(res, AnalysisResult)
        assert res.schedulable

    def test_is_schedulable(self):
        assert is_schedulable(tiny_system(), "SPP/Exact")
        assert is_schedulable(tiny_system("fcfs"), "FCFS/App")

    def test_summary_text(self):
        res = analyze(tiny_system(), "SPP/Exact")
        text = res.summary()
        assert "SPP/Exact" in text and "A" in text


class TestHorizonConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial", 0.0),
            ("initial", -1.0),
            ("initial", math.nan),
            ("initial", math.inf),
            ("max_rounds", 0),
        ],
    )
    def test_degenerate_values_rejected(self, field, value):
        # Accepted, initial <= 0 yields WCRT 0.0 as a converged,
        # schedulable bound.
        with pytest.raises(ValueError, match=field):
            HorizonConfig(**{field: value})

    def test_initial_horizon_covers_deadline_and_period(self):
        job = Job.build("A", [("P1", 1.0)], PeriodicArrivals(7.0), 21.0)
        h = initial_horizon(JobSet([job]))
        assert h >= 21.0

    def test_initial_horizon_covers_trace_span(self):
        job = Job.build("A", [("P1", 1.0)], TraceArrivals([100.0]), 5.0)
        h = initial_horizon(JobSet([job]))
        assert h >= 105.0


class TestRunAdaptive:
    def make_result(self, wcrt, horizon):
        res = AnalysisResult(method="t", horizon=horizon, drained=False, converged=False)
        res.jobs["A"] = EndToEndResult("A", deadline=100.0, wcrt=wcrt, n_instances=1)
        return res

    def test_doubles_until_ok(self):
        calls = []

        def analyze_once(h, rep):
            calls.append(h)
            return self.make_result(1.0, h), h >= 40.0

        job = Job.build("A", [("P1", 1.0)], PeriodicArrivals(4.0), 8.0)
        cfg = HorizonConfig(initial=10.0, require_convergence=True)
        res = run_adaptive(analyze_once, JobSet([job]), cfg)
        assert res.drained and res.converged
        assert calls[0] == 10.0 and calls[-1] >= 80.0  # ok twice for stability

    def test_early_exit_on_miss(self):
        def analyze_once(h, rep):
            res = self.make_result(1.0, h)
            res.jobs["A"].wcrt = 1000.0  # misses deadline 100
            return res, True

        job = Job.build("A", [("P1", 1.0)], PeriodicArrivals(4.0), 8.0)
        cfg = HorizonConfig(initial=10.0)
        res = run_adaptive(analyze_once, JobSet([job]), cfg)
        assert not res.schedulable
        assert res.converged  # misses only accumulate; no more rounds needed

    def test_cap_reported_unconverged(self):
        def analyze_once(h, rep):
            return self.make_result(1.0, h), False

        job = Job.build("A", [("P1", 1.0)], PeriodicArrivals(4.0), 8.0)
        cfg = HorizonConfig(initial=1.0, max_rounds=3)
        res = run_adaptive(analyze_once, JobSet([job]), cfg)
        assert not res.converged
        assert not res.drained
        assert not res.schedulable

    def test_no_convergence_requirement_single_pass(self):
        calls = []

        def analyze_once(h, rep):
            calls.append(h)
            return self.make_result(1.0, h), True

        job = Job.build("A", [("P1", 1.0)], PeriodicArrivals(4.0), 8.0)
        cfg = HorizonConfig(initial=10.0, require_convergence=False)
        res = run_adaptive(analyze_once, JobSet([job]), cfg)
        assert len(calls) == 1
        assert res.converged


class TestBurstyEndToEnd:
    def test_bursty_chain_schedulable(self):
        job = Job.build(
            "A", [("P1", 0.3), ("P2", 0.4)], BurstyArrivals(0.5), deadline=6.0
        )
        sys_ = System(JobSet([job]), "spp")
        assign_priorities_proportional_deadline(sys_)
        res = analyze(sys_, "SPP/Exact")
        assert res.schedulable
        # Lone job: wcrt at least total execution, at most deadline.
        assert 0.7 - 1e-9 <= res.jobs["A"].wcrt <= 6.0

    def test_burst_causes_backlog(self):
        """Eq. 27's front-loaded burst makes early responses exceed the
        steady-state one when utilization is high."""
        job = Job.build("A", [("P1", 1.2)], BurstyArrivals(0.7), deadline=50.0)
        sys_ = System(JobSet([job]), "spp")
        assign_priorities_proportional_deadline(sys_)
        res = analyze(sys_, "SPP/Exact")
        # Worst response strictly exceeds one execution time: the burst
        # backlogs the processor.
        assert res.jobs["A"].wcrt > 1.2 + 1e-9
