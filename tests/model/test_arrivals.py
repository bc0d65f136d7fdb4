"""Unit tests for arrival processes (Eqs. 25, 27 and friends)."""

import math

import numpy as np
import pytest

from repro.model import (
    BurstyArrivals,
    LeakyBucketArrivals,
    PeriodicArrivals,
    SporadicArrivals,
    TraceArrivals,
)


class TestPeriodic:
    def test_release_times(self):
        p = PeriodicArrivals(2.0)
        assert np.allclose(p.release_times(7.0), [0.0, 2.0, 4.0, 6.0])

    def test_offset(self):
        p = PeriodicArrivals(2.0, offset=1.0)
        assert np.allclose(p.release_times(6.0), [1.0, 3.0, 5.0])

    def test_exclusive_end(self):
        p = PeriodicArrivals(2.0)
        assert np.allclose(p.release_times(4.0), [0.0, 2.0])

    def test_rate(self):
        assert PeriodicArrivals(4.0).rate == 0.25

    def test_is_periodic(self):
        assert PeriodicArrivals(1.0).is_periodic()

    def test_empty_before_offset(self):
        assert PeriodicArrivals(1.0, offset=5.0).release_times(3.0).size == 0

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicArrivals(0.0)

    def test_count_by(self):
        p = PeriodicArrivals(2.0)
        assert p.count_by(4.0) == 3  # releases at 0, 2, 4

    def test_eq25_form(self):
        # Eq. 25: t_m = (m-1)/x.
        x = 0.4
        p = PeriodicArrivals(1.0 / x)
        times = p.release_times(20.0)
        for m, t in enumerate(times, start=1):
            assert t == pytest.approx((m - 1) / x)


class TestBursty:
    def test_eq27_formula(self):
        x = 0.5
        b = BurstyArrivals(x)
        times = b.release_times(50.0)
        for m, t in enumerate(times, start=1):
            expected = math.sqrt(x * x + (m - 1) ** 2) / x - 1.0
            assert t == pytest.approx(expected)

    def test_first_release_at_zero(self):
        for x in [0.1, 0.5, 0.9]:
            assert BurstyArrivals(x).release_times(10.0)[0] == pytest.approx(0.0)

    def test_strictly_increasing(self):
        times = BurstyArrivals(0.3).release_times(100.0)
        assert np.all(np.diff(times) > 0)

    def test_interarrivals_grow_toward_period(self):
        x = 0.4
        times = BurstyArrivals(x).release_times(300.0)
        gaps = np.diff(times)
        assert np.all(np.diff(gaps) > -1e-9)  # monotone non-decreasing gaps
        assert gaps[-1] < 1.0 / x + 1e-6
        assert gaps[-1] > 1.0 / x - 0.1  # approaching the asymptotic period

    def test_burstiness_front_loaded(self):
        # Early gaps are strictly smaller than the asymptotic period.
        x = 0.5
        gaps = np.diff(BurstyArrivals(x).release_times(100.0))
        assert gaps[0] < 1.0 / x

    def test_all_generated_within_horizon(self):
        times = BurstyArrivals(0.7).release_times(25.0)
        assert times[-1] < 25.0
        # and the next one would be beyond:
        m_next = times.size + 1
        t_next = math.sqrt(0.49 + (m_next - 1) ** 2) / 0.7 - 1.0
        assert t_next >= 25.0

    def test_rate(self):
        assert BurstyArrivals(0.3).rate == pytest.approx(0.3)

    def test_invalid_x(self):
        with pytest.raises(ValueError):
            BurstyArrivals(0.0)

    def test_not_periodic(self):
        assert not BurstyArrivals(0.5).is_periodic()


class TestTrace:
    def test_round_trip(self):
        t = TraceArrivals([1.0, 2.5, 9.0])
        assert np.allclose(t.release_times(100.0), [1.0, 2.5, 9.0])

    def test_horizon_cut(self):
        t = TraceArrivals([1.0, 2.5, 9.0])
        assert np.allclose(t.release_times(3.0), [1.0, 2.5])

    def test_sorted_on_construction(self):
        t = TraceArrivals([5.0, 1.0])
        assert t.times == (1.0, 5.0)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TraceArrivals([1.0, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TraceArrivals([-1.0])

    def test_zero_rate(self):
        assert TraceArrivals([1.0]).rate == 0.0


class TestSporadic:
    def test_worst_case_is_periodic(self):
        s = SporadicArrivals(min_gap=3.0)
        assert np.allclose(s.release_times(10.0), [0.0, 3.0, 6.0, 9.0])

    def test_rate(self):
        assert SporadicArrivals(4.0).rate == 0.25


class TestLeakyBucket:
    def test_burst_then_rate(self):
        lb = LeakyBucketArrivals(rho=1.0, sigma=3.0)
        times = lb.release_times(5.0)
        # Three instances in the initial burst at t=0, then one per 1/rho.
        assert np.allclose(times[:3], [0.0, 0.0, 0.0])
        assert times[3] == pytest.approx(1.0)

    def test_envelope_respected(self):
        lb = LeakyBucketArrivals(rho=0.5, sigma=2.0)
        times = lb.release_times(40.0)
        for t in [0.0, 1.0, 5.0, 20.0]:
            count = np.count_nonzero(times <= t)
            assert count <= 2.0 + 0.5 * t + 1e-9

    def test_rate(self):
        assert LeakyBucketArrivals(rho=0.5).rate == 0.5

    def test_sigma_below_one_rejected(self):
        with pytest.raises(ValueError):
            LeakyBucketArrivals(rho=1.0, sigma=0.5)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build",
    [
        lambda: PeriodicArrivals(NAN),
        lambda: PeriodicArrivals(INF),
        lambda: PeriodicArrivals(1.0, offset=NAN),
        lambda: PeriodicArrivals(1.0, offset=INF),
        lambda: BurstyArrivals(INF),
        lambda: SporadicArrivals(NAN),
        lambda: SporadicArrivals(1.0, offset=NAN),
        lambda: LeakyBucketArrivals(NAN, 1.0),
        lambda: LeakyBucketArrivals(INF, 1.0),
        lambda: LeakyBucketArrivals(1.0, NAN),
        lambda: TraceArrivals([1.0, NAN]),
        lambda: TraceArrivals([1.0, INF]),
    ],
    ids=[
        "periodic-nan", "periodic-inf", "periodic-offset-nan",
        "periodic-offset-inf", "bursty-inf", "sporadic-nan",
        "sporadic-offset-nan", "leaky-rho-nan", "leaky-rho-inf",
        "leaky-sigma-nan", "trace-nan", "trace-inf",
    ],
)
def test_non_finite_parameters_rejected(build):
    # A NaN or infinite trace time used to be dropped by release_times
    # (``arr < t_end``), so the analysis bounded fewer instances.
    with pytest.raises(ValueError, match="finite"):
        build()
