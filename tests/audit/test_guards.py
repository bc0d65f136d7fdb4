"""Runtime guards: curve invariants, convergence watchdogs, clock tolerance."""

import math

import numpy as np
import pytest

from repro.analysis.base import AnalysisResult, EndToEndResult
from repro.analysis.horizon import HorizonConfig, run_adaptive
from repro.curves import (
    Curve,
    CurveError,
    audit_checks,
    audit_checks_enabled,
    set_audit_checks,
)
from repro.model import Job, JobSet, PeriodicArrivals
from repro.sim import SimClock


# ---------------------------------------------------------------- curves


def test_check_invariants_accepts_well_formed_curve():
    Curve.from_breakpoints(
        [0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], final_slope=1.0
    ).check_invariants()


def test_check_invariants_rejects_decreasing_values():
    c = Curve.from_breakpoints([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
    # Corrupt the private storage in place, as a buggy kernel would.
    c._x = np.array([0.0, 1.0, 2.0])
    c._y = np.array([0.0, 2.0, 1.0])
    with pytest.raises(CurveError, match="non-decreasing"):
        c.check_invariants()


def test_check_invariants_rejects_triple_abscissa():
    c = Curve.from_breakpoints([0.0, 1.0], [0.0, 1.0])
    c._x = np.array([0.0, 1.0, 1.0, 1.0])
    c._y = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(CurveError, match="more than twice"):
        c.check_invariants()


def test_check_invariants_rejects_nonfinite_breakpoint():
    c = Curve.from_breakpoints([0.0, 1.0], [0.0, 1.0])
    c._x = np.array([0.0, 1.0])
    c._y = np.array([0.0, math.nan])
    with pytest.raises(CurveError):
        c.check_invariants()


def test_audit_flag_toggles_and_restores():
    assert not audit_checks_enabled()
    previous = set_audit_checks(True)
    try:
        assert previous is False
        assert audit_checks_enabled()
    finally:
        set_audit_checks(previous)
    assert not audit_checks_enabled()


def test_audit_context_manager_scopes_the_flag():
    with audit_checks():
        assert audit_checks_enabled()
        # Constructing curves under the flag runs the invariant check.
        Curve.from_breakpoints([0.0, 5.0], [0.0, 2.0], final_slope=0.5)
    assert not audit_checks_enabled()


def test_constructor_checks_run_only_under_flag(monkeypatch):
    calls = []
    original = Curve.check_invariants
    monkeypatch.setattr(
        Curve, "check_invariants", lambda self: calls.append(1) or original(self)
    )
    Curve.from_breakpoints([0.0, 1.0], [0.0, 1.0])
    assert not calls
    with audit_checks():
        Curve.from_breakpoints([0.0, 1.0], [0.0, 1.0])
    assert calls


# ------------------------------------------------------------- watchdogs


def _job_set():
    return JobSet(
        [Job.build("J", [("P1", 1.0)], PeriodicArrivals(4.0), deadline=1e12)]
    )


def _result(h, wcrt):
    res = AnalysisResult(method="stub", horizon=h, drained=False, converged=False)
    res.jobs["J"] = EndToEndResult(
        job_id="J", deadline=1e12, wcrt=wcrt, n_instances=1
    )
    return res


def test_watchdog_flags_oscillation():
    values = iter([10.0, 11.0, 10.0, 11.0, 10.0])

    def analyze_once(h, report):
        return _result(h, next(values)), True

    cfg = HorizonConfig(initial=8.0, max_rounds=10)
    result = run_adaptive(analyze_once, _job_set(), cfg)
    assert not result.converged
    kinds = [d["kind"] for d in result.diagnostics]
    assert kinds == ["oscillation"]
    assert result.diagnostics[0]["source"] == "run_adaptive"
    assert result.to_dict()["diagnostics"][0]["kind"] == "oscillation"


def test_watchdog_flags_divergence():
    def analyze_once(h, report):
        return _result(h, h), True  # bound rides the horizon

    cfg = HorizonConfig(initial=8.0, max_rounds=10)
    result = run_adaptive(analyze_once, _job_set(), cfg)
    assert not result.converged
    assert [d["kind"] for d in result.diagnostics] == ["divergence"]
    # Flagged well before the round budget would have run out.
    assert result.diagnostics[0]["round"] < cfg.max_rounds


def test_round_budget_exhausted_diagnostic():
    def analyze_once(h, report):
        return _result(h, 1.0), False  # never drains

    cfg = HorizonConfig(initial=8.0, max_rounds=3)
    result = run_adaptive(analyze_once, _job_set(), cfg)
    assert not result.converged
    assert [d["kind"] for d in result.diagnostics] == ["round_budget_exhausted"]
    assert result.diagnostics[0]["round"] == 3


def test_stable_run_has_no_diagnostics():
    def analyze_once(h, report):
        return _result(h, 5.0), True

    result = run_adaptive(analyze_once, _job_set(), HorizonConfig(initial=8.0))
    assert result.converged
    assert result.diagnostics == []
    assert "diagnostics" not in result.to_dict()


# ------------------------------------------------------------- sim clock


def test_clock_tolerates_relative_float_noise():
    clock = SimClock()
    clock.advance(1e9)
    clock.advance(1e9 - 1e-4)  # within REL_TOL * now
    assert clock.now == 1e9


def test_clock_still_rejects_genuine_backwards_time():
    clock = SimClock()
    clock.advance(100.0)
    with pytest.raises(RuntimeError, match="backwards"):
        clock.advance(99.0)
