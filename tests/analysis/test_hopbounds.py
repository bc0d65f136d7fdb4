"""Unit tests for the busy-window hop bounds."""

import math

import numpy as np
import pytest

from repro.analysis.hopbounds import (
    apply_departure_floors,
    earliest_departures,
    fcfs_departure_bound,
    priority_departure_bound,
    visible_step,
)
from repro.curves import Curve, fcfs_utilization, sum_curves


class TestVisibleStep:
    def test_clips_horizon_and_infinities(self):
        times = np.array([1.0, 5.0, math.inf])
        c = visible_step(times, 2.0, horizon=4.0)
        assert c.value(10.0) == 2.0  # only the t=1 instance

    def test_empty(self):
        assert visible_step(np.empty(0), 1.0, 10.0).value(5.0) == 0.0


class TestFloors:
    def test_arrival_plus_execution(self):
        dep = np.array([0.5, 3.0])
        arr = np.array([0.0, 2.8])
        out = apply_departure_floors(dep, arr, 1.0)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(3.8)

    def test_tau_separation(self):
        dep = np.array([5.0, 5.0, 5.0])
        arr = np.zeros(3)
        out = apply_departure_floors(dep, arr, 2.0)
        assert np.allclose(out, [5.0, 7.0, 9.0])

    def test_monotone_in_input(self):
        arr = np.array([0.0, 1.0])
        a = apply_departure_floors(np.array([2.0, 3.0]), arr, 1.0)
        b = apply_departure_floors(np.array([2.5, 3.0]), arr, 1.0)
        assert np.all(b >= a)

    def test_inf_propagates_forward(self):
        dep = np.array([1.0, math.inf, 4.0])
        arr = np.zeros(3)
        out = apply_departure_floors(dep, arr, 1.0)
        assert math.isinf(out[1]) and math.isinf(out[2])


class TestEarliestDepartures:
    def test_dedicated_processor_rate(self):
        arr = np.array([0.0, 0.1])
        out = earliest_departures(arr, 2.0)
        # Back-to-back service: 2 and 4.
        assert np.allclose(out, [2.0, 4.0])

    def test_idle_gap(self):
        arr = np.array([0.0, 10.0])
        out = earliest_departures(arr, 1.0)
        assert np.allclose(out, [1.0, 11.0])


class TestPriorityBound:
    def test_no_interference(self):
        arr = np.array([0.0, 10.0])
        own = visible_step(arr, 2.0, 100.0)
        out = priority_departure_bound([], [], own, arr, 2.0, 0.0)
        assert np.allclose(out, [2.0, 12.0])

    def test_hp_interference_counted(self):
        # hp: 1 unit at t=0 (early and late coincide).
        hp_c = Curve.step_from_times([0.0], 1.0)
        arr = np.array([0.0])
        own = visible_step(arr, 2.0, 100.0)
        out = priority_departure_bound([hp_c], [hp_c], own, arr, 2.0, 0.0)
        assert out[0] == pytest.approx(3.0)

    def test_blocking_added(self):
        arr = np.array([0.0])
        own = visible_step(arr, 1.0, 100.0)
        out = priority_departure_bound([], [], own, arr, 1.0, 2.5)
        assert out[0] == pytest.approx(3.5)

    def test_uncertain_interferer_position_covered(self):
        # Interferer may arrive anywhere in [0, 5]: our instance arriving
        # (late) at 5 must budget for it even though its early envelope
        # says t=0.
        hp_early = Curve.step_from_times([0.0], 1.0)
        hp_late = Curve.step_from_times([5.0], 1.0)
        arr_late = np.array([5.0])
        own = visible_step(arr_late, 2.0, 100.0)
        out = priority_departure_bound(
            [hp_early], [hp_late], own, arr_late, 2.0, 0.0
        )
        # Worst case: hp arrives just before/with us at 5 -> done by 8.
        assert out[0] >= 8.0 - 1e-9

    def test_backlogged_own_instances(self):
        arr = np.array([0.0, 0.0, 0.0])
        own = visible_step(arr, 1.0, 100.0)
        out = priority_departure_bound([], [], own, arr, 1.0, 0.0)
        assert np.allclose(out, [1.0, 2.0, 3.0])

    def test_infinite_late_arrival_propagates(self):
        arr = np.array([0.0, math.inf])
        own = visible_step(arr, 1.0, 100.0)
        out = priority_departure_bound([], [], own, arr, 1.0, 0.0)
        assert out[0] == pytest.approx(1.0)
        assert math.isinf(out[1])


class TestFcfsBound:
    def test_alone(self):
        arr = np.array([0.0, 3.0])
        c = visible_step(arr, 1.0, 100.0)
        u = fcfs_utilization(c, t_end=100.0)
        out = fcfs_departure_bound([], u, arr, 1.0)
        assert np.allclose(out, [1.0, 4.0])

    def test_preceding_work_blocks(self):
        other = Curve.step_from_times([0.0], 3.0)
        mine = np.array([1.0])
        g = sum_curves([other, visible_step(mine, 1.0, 100.0)])
        u = fcfs_utilization(g, t_end=100.0)
        out = fcfs_departure_bound([other], u, mine, 1.0)
        # Other's 3 units first (from 0), then ours: 4.
        assert out[0] == pytest.approx(4.0)

    def test_tie_counts_as_preceding(self):
        other = Curve.step_from_times([1.0], 3.0)
        mine = np.array([1.0])
        g = sum_curves([other, visible_step(mine, 1.0, 100.0)])
        u = fcfs_utilization(g, t_end=100.0)
        out = fcfs_departure_bound([other], u, mine, 1.0)
        assert out[0] == pytest.approx(5.0)  # 1 + 3 + 1
