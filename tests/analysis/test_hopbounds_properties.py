"""Property-based tests for the busy-window hop bounds."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hopbounds import (
    apply_departure_floors,
    earliest_departures,
    fcfs_departure_bound,
    priority_departure_bound,
    visible_step,
)
from repro.curves import Curve, fcfs_utilization, sum_curves

arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=40.0), min_size=1, max_size=10
).map(lambda xs: np.sort(np.asarray(xs)))

wcets = st.floats(min_value=0.1, max_value=3.0)


@given(arrival_lists, wcets)
@settings(max_examples=60)
def test_floors_idempotent(arr, tau):
    dep = arr + tau
    once = apply_departure_floors(dep, arr, tau)
    twice = apply_departure_floors(once, arr, tau)
    assert np.allclose(once, twice)


@given(arrival_lists, wcets)
@settings(max_examples=60)
def test_floors_respect_physics(arr, tau):
    dep = apply_departure_floors(arr.copy(), arr, tau)
    assert np.all(dep >= arr + tau - 1e-9)
    assert np.all(np.diff(dep) >= tau - 1e-9)


@given(arrival_lists, wcets)
@settings(max_examples=60)
def test_earliest_departures_are_dedicated_processor_times(arr, tau):
    out = earliest_departures(arr, tau)
    # Matches the recursion dep_m = max(arr_m, dep_{m-1}) + tau.
    expect = []
    prev = -math.inf
    for a in arr:
        prev = max(a, prev) + tau
        expect.append(prev)
    assert np.allclose(out, expect)


@given(arrival_lists, wcets)
@settings(max_examples=40)
def test_priority_bound_dominates_dedicated(arr, tau):
    """With interference present the bound can only grow beyond the
    dedicated-processor completion times."""
    own = visible_step(arr, tau, 1e9)
    dedicated = earliest_departures(arr, tau)
    hp = Curve.step_from_times([0.0, 5.0, 10.0], 1.0)
    out = priority_departure_bound([hp], [hp], own, arr, tau, 0.0)
    assert np.all(out >= dedicated - 1e-9)


@given(arrival_lists, wcets, st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40)
def test_priority_bound_monotone_in_blocking(arr, tau, b):
    own = visible_step(arr, tau, 1e9)
    out0 = priority_departure_bound([], [], own, arr, tau, 0.0)
    outb = priority_departure_bound([], [], own, arr, tau, b)
    assert np.all(outb >= out0 - 1e-9)


@given(arrival_lists, wcets)
@settings(max_examples=40)
def test_fcfs_bound_alone_equals_dedicated(arr, tau):
    c = visible_step(arr, tau, 1e9)
    u = fcfs_utilization(c, t_end=float(arr[-1] + tau * arr.size + 10))
    out = fcfs_departure_bound([], u, arr, tau)
    dedicated = earliest_departures(arr, tau)
    assert np.allclose(out, dedicated, atol=1e-6)


@given(arrival_lists, wcets, arrival_lists)
@settings(max_examples=40)
def test_fcfs_bound_monotone_in_interference(arr, tau, other_times)  :
    own = visible_step(arr, tau, 1e9)
    t_end = float(max(arr[-1], other_times[-1]) + 20 * tau * (arr.size + other_times.size) + 10)
    u_alone = fcfs_utilization(own, t_end=t_end)
    out_alone = fcfs_departure_bound([], u_alone, arr, tau)
    other = visible_step(other_times, 0.5, 1e9)
    u_both = fcfs_utilization(sum_curves([own, other]), t_end=t_end)
    out_both = fcfs_departure_bound([other], u_both, arr, tau)
    assert np.all(out_both >= out_alone - 1e-6)
