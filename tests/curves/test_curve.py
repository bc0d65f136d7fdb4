"""Unit tests for the Curve data type (construction, evaluation, inverse)."""

import math

import numpy as np
import pytest

from repro.curves import Curve, CurveError


class TestConstruction:
    def test_zero_curve(self):
        z = Curve.zero()
        assert z.value(0.0) == 0.0
        assert z.value(100.0) == 0.0
        assert z.final_slope == 0.0

    def test_identity(self):
        f = Curve.identity()
        assert f.value(0.0) == 0.0
        assert f.value(7.5) == 7.5
        assert f.final_slope == 1.0

    def test_constant(self):
        f = Curve.constant(3.0)
        assert f.value(0.0) == 3.0
        assert f.value(10.0) == 3.0
        assert f.value_left(0.0) == 0.0

    def test_constant_negative_rejected(self):
        with pytest.raises(CurveError):
            Curve.constant(-1.0)

    def test_affine_with_burst(self):
        f = Curve.affine(rate=2.0, burst=5.0)
        assert f.value(0.0) == 5.0
        assert f.value(3.0) == 11.0
        assert f.value_left(0.0) == 0.0

    def test_affine_no_burst(self):
        f = Curve.affine(rate=0.5)
        assert f.value(4.0) == 2.0

    def test_domain_must_start_at_zero(self):
        with pytest.raises(CurveError):
            Curve.from_breakpoints([1.0, 2.0], [0.0, 1.0])

    def test_decreasing_y_rejected(self):
        with pytest.raises(CurveError):
            Curve.from_breakpoints([0.0, 1.0], [1.0, 0.0])

    def test_decreasing_x_rejected(self):
        with pytest.raises(CurveError):
            Curve.from_breakpoints([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])

    def test_negative_final_slope_rejected(self):
        with pytest.raises(CurveError):
            Curve.from_breakpoints([0.0], [0.0], final_slope=-1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CurveError):
            Curve.from_breakpoints([0.0, 1.0], [0.0])

    def test_empty_rejected(self):
        with pytest.raises(CurveError):
            Curve.from_breakpoints([], [])


class TestStepFromTimes:
    def test_single_release_at_zero(self):
        f = Curve.step_from_times([0.0], 2.5)
        assert f.value(0.0) == 2.5
        assert f.value_left(0.0) == 0.0
        assert f.value(10.0) == 2.5

    def test_multiple_releases(self):
        f = Curve.step_from_times([1.0, 3.0, 3.5], 1.0)
        assert f.value(0.5) == 0.0
        assert f.value(1.0) == 1.0
        assert f.value(3.0) == 2.0
        assert f.value(3.5) == 3.0
        assert f.value_left(3.0) == 1.0

    def test_simultaneous_releases_merge(self):
        f = Curve.step_from_times([2.0, 2.0, 2.0], 1.0)
        assert f.value(2.0) == 3.0
        assert f.value_left(2.0) == 0.0

    def test_unsorted_input(self):
        f = Curve.step_from_times([5.0, 1.0, 3.0], 1.0)
        assert f.value(1.0) == 1.0
        assert f.value(4.0) == 2.0
        assert f.value(5.0) == 3.0

    def test_empty_times(self):
        f = Curve.step_from_times([], 1.0)
        assert f.value(100.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(CurveError):
            Curve.step_from_times([-1.0], 1.0)

    def test_nonpositive_height_rejected(self):
        with pytest.raises(CurveError):
            Curve.step_from_times([1.0], 0.0)

    def test_is_step(self):
        f = Curve.step_from_times([1.0, 2.0], 1.0)
        assert f.is_step()
        assert not f.is_continuous()
        assert not Curve.identity().is_step()
        assert Curve.identity().is_continuous()


class TestEvaluation:
    def test_ramp_interpolation(self):
        f = Curve.from_breakpoints([0.0, 2.0], [0.0, 4.0], final_slope=1.0)
        assert f.value(1.0) == pytest.approx(2.0)
        assert f.value(2.0) == pytest.approx(4.0)
        assert f.value(5.0) == pytest.approx(7.0)

    def test_vectorized_evaluation(self):
        f = Curve.step_from_times([1.0, 2.0], 1.0)
        out = f.value(np.array([0.0, 1.0, 1.5, 2.0, 3.0]))
        assert np.allclose(out, [0.0, 1.0, 1.0, 2.0, 2.0])

    def test_left_limits_vectorized(self):
        f = Curve.step_from_times([1.0, 2.0], 1.0)
        out = f.value_left(np.array([1.0, 1.5, 2.0]))
        assert np.allclose(out, [0.0, 1.0, 1.0])

    def test_call_alias(self):
        f = Curve.identity()
        assert f(3.0) == 3.0

    def test_left_limit_on_ramp_equals_value(self):
        f = Curve.from_breakpoints([0.0, 4.0], [0.0, 4.0], final_slope=0.0)
        assert f.value_left(2.0) == pytest.approx(f.value(2.0))

    def test_value_at_infinity(self):
        # A flat tail stays at its last value; a rising one grows without bound.
        f = Curve.step_from_times([1, 2], 0.5)
        assert f.value(math.inf) == 1.0
        assert f.value_left(math.inf) == 1.0
        assert f.total_at(math.inf) == 1.0
        assert Curve.affine(0.5, 1.0).value(math.inf) == math.inf


class TestFirstCrossing:
    def test_step_inverse_is_release_time(self):
        times = [0.5, 1.5, 4.0]
        f = Curve.step_from_times(times, 1.0)
        for m, t in enumerate(times, start=1):
            assert f.first_crossing(float(m)) == pytest.approx(t)

    def test_ramp_inverse(self):
        f = Curve.identity()
        assert f.first_crossing(7.25) == pytest.approx(7.25)

    def test_below_initial_value(self):
        f = Curve.constant(5.0)
        assert f.first_crossing(3.0) == 0.0
        assert f.first_crossing(0.0) == 0.0

    def test_unreachable_value_is_inf(self):
        f = Curve.constant(5.0)
        assert math.isinf(f.first_crossing(6.0))

    def test_tail_extrapolation(self):
        f = Curve.from_breakpoints([0.0, 1.0], [0.0, 1.0], final_slope=2.0)
        assert f.first_crossing(5.0) == pytest.approx(3.0)

    def test_vectorized(self):
        f = Curve.step_from_times([1.0, 2.0, 3.0], 1.0)
        out = f.first_crossing(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(out[:3], [1.0, 2.0, 3.0])
        assert math.isinf(out[3])

    def test_galois_connection(self):
        # first_crossing(v) is the smallest s with f(s) >= v.
        f = Curve.from_breakpoints([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 2.0, 2.0], final_slope=0.5)
        for v in [0.3, 1.0, 1.7, 2.0, 2.4]:
            s = f.first_crossing(v)
            assert f.value(s) >= v - 1e-9
            if s > 1e-9:
                assert f.value(s - 1e-6) < v + 1e-6


class TestArithmetic:
    def test_scale(self):
        f = Curve.step_from_times([1.0], 2.0).scale(3.0)
        assert f.value(1.0) == 6.0

    def test_scale_negative_rejected(self):
        with pytest.raises(CurveError):
            Curve.identity().scale(-1.0)

    def test_shift_x(self):
        f = Curve.step_from_times([1.0], 1.0).shift_x(2.0)
        assert f.value(2.5) == 0.0
        assert f.value(3.0) == 1.0

    def test_shift_x_zero_is_identity(self):
        f = Curve.identity()
        assert f.shift_x(0.0) is f

    def test_shift_y(self):
        f = Curve.identity().shift_y(3.0)
        assert f.value(0.0) == 3.0
        assert f.value(2.0) == 5.0

    def test_add_operator(self):
        f = Curve.identity() + Curve.constant(2.0)
        assert f.value(3.0) == pytest.approx(5.0)


class TestFloorDiv:
    def test_departures_from_service(self):
        # Service ramps at rate 1 from t=0; tau = 2 -> departures at 2, 4, 6.
        s = Curve.identity()
        dep = s.floor_div(2.0, v_max=6.0)
        assert dep.value(1.9) == 0.0
        assert dep.value(2.0) == 1.0
        assert dep.value(4.0) == 2.0
        assert dep.value(6.0) == 3.0

    def test_zero_when_no_quantum_reached(self):
        s = Curve.constant(0.5)
        dep = s.floor_div(1.0, v_max=0.5)
        assert dep.value(100.0) == 0.0

    def test_invalid_quantum(self):
        with pytest.raises(CurveError):
            Curve.identity().floor_div(0.0, 1.0)


class TestStructure:
    def test_jump_times(self):
        f = Curve.step_from_times([1.0, 2.5], 1.0)
        assert np.allclose(f.jump_times(), [1.0, 2.5])

    def test_steps_decomposition(self):
        f = Curve.step_from_times([1.0, 3.0], 2.0)
        p, v = f.steps()
        assert np.allclose(p, [0.0, 1.0, 3.0])
        assert np.allclose(v, [0.0, 2.0, 4.0])

    def test_steps_with_jump_at_zero(self):
        f = Curve.step_from_times([0.0, 2.0], 1.0)
        p, v = f.steps()
        assert p[0] == 0.0
        assert v[0] == 1.0

    def test_steps_rejects_ramp(self):
        with pytest.raises(CurveError):
            Curve.identity().steps()

    def test_lipschitz_bound(self):
        assert Curve.identity().lipschitz_bound() == 1.0
        assert math.isinf(Curve.step_from_times([1.0], 1.0).lipschitz_bound())

    def test_canonicalize_removes_collinear(self):
        f = Curve.from_breakpoints([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], final_slope=1.0)
        assert f.n_breakpoints == 1

    def test_canonicalize_removes_zero_jumps(self):
        f = Curve.from_breakpoints([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 2.0], final_slope=1.0)
        assert f.n_breakpoints == 1


class TestComparison:
    def test_dominates(self):
        hi = Curve.identity()
        lo = Curve.from_breakpoints([0.0, 10.0], [0.0, 5.0], final_slope=0.5)
        assert hi.dominates(lo)
        assert not lo.dominates(hi)

    def test_approx_equal_self(self):
        f = Curve.step_from_times([1.0, 2.0], 1.5)
        assert f.approx_equal(f)

    def test_dominates_checks_jumps(self):
        a = Curve.step_from_times([1.0], 1.0)
        b = Curve.step_from_times([2.0], 1.0)
        # a jumps earlier, so a >= b everywhere.
        assert a.dominates(b)
        assert not b.dominates(a)
