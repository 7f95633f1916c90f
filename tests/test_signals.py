import math

import numpy as np
import pytest

from scale_lab import (DomainError, constant_signal, exponential_signal,
                       sinusoidal_log_signal, step_multipliers, tabulated_signal)


class TestConstant:
    def test_vector_value(self):
        sig = constant_signal([2.0, -3.0])
        assert sig.dimension == 2
        assert np.array_equal(sig.g(5.0), [2.0, -3.0])
        assert np.array_equal(sig.delta(1.0), [0.0, 0.0])

    def test_scalar_broadcast(self):
        sig = constant_signal(1.5, dimension=4)
        assert sig.g(0.0).shape == (4,)


class TestExponential:
    def test_growth_and_drift(self):
        sig = exponential_signal(0.2, scale=3.0)
        assert sig.g(1.0)[0] == pytest.approx(3.0 * math.exp(0.2), rel=1e-14)
        assert sig.delta(7.0)[0] == 0.2
        assert sig.delta_prime(7.0)[0] == 0.0

    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError):
            exponential_signal(0.1, scale=0.0)

    def test_one_rate_per_coordinate(self):
        sig = exponential_signal([0.1, -0.2], scale=3.0)
        assert sig.dimension == 2
        assert np.array_equal(sig.delta(np.array([0.0, 5.0])), [[0.1, -0.2], [0.1, -0.2]])
        assert np.array_equal(sig.g(1.0), [3.0 * np.exp(0.1), 3.0 * np.exp(-0.2)])
        with pytest.raises(DomainError):
            exponential_signal([0.1, 0.2, 0.3], dimension=2)


class TestSinusoidalLog:
    def test_never_vanishes_and_drift_formula(self):
        amp, om = 0.3, 0.7
        sig = sinusoidal_log_signal(amp, om, scale=2.0)
        for t in np.linspace(0.0, 20.0, 50):
            assert sig.g(float(t))[0] > 0.0
        assert sig.delta(0.0)[0] == pytest.approx(amp * om, rel=1e-14)
        assert sig.delta_prime(0.0)[0] == pytest.approx(0.0, abs=1e-14)
        t_quarter = 0.5 * math.pi / om
        assert sig.delta(t_quarter)[0] == pytest.approx(0.0, abs=1e-14)
        assert sig.delta_prime(t_quarter)[0] == pytest.approx(-amp * om * om, rel=1e-12)


class TestStepMultipliers:
    def test_schedule_order_does_not_matter(self):
        mults = step_multipliers([(3, 0.5), (1, 10.0)], steps=5)
        assert mults.tolist() == [1.0, 10.0, 10.0, 0.5, 0.5]

    def test_empty_schedule_is_all_ones(self):
        assert step_multipliers([], steps=4).tolist() == [1.0] * 4

    def test_start_at_step_zero_rejected(self):
        # the identity segment before the first start would cover no step
        with pytest.raises(DomainError):
            step_multipliers([(0, 2.0)], steps=5)

    @pytest.mark.parametrize("mult", [0.0, -math.inf, math.nan])
    def test_positive_multipliers_enforced(self, mult):
        with pytest.raises(DomainError):
            step_multipliers([(1, mult)], steps=5)


class TestTabulated:
    def test_interpolation(self):
        sig = tabulated_signal([0.0, 1.0, 2.0], np.array([[1.0], [3.0], [5.0]]))
        assert sig.g(0.5)[0] == pytest.approx(2.0)
        assert sig.g(1.5)[0] == pytest.approx(4.0)

    def test_fd_drift_of_exponential_samples(self):
        ts = np.linspace(0.0, 5.0, 2001)
        sig = tabulated_signal(ts, np.exp(0.1 * ts).reshape(-1, 1))
        assert sig.delta(2.5)[0] == pytest.approx(0.1, rel=1e-3)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            tabulated_signal([0.0, 1.0], np.ones((3, 1)))

    def test_zero_crossing_drift_rejected(self):
        sig = tabulated_signal([0.0, 2.0], np.array([[-1.0], [1.0]]))
        with pytest.raises(DomainError):
            sig.delta(1.0)

    def test_zero_on_a_time_grid_names_its_time(self):
        sig = tabulated_signal([0.0, 2.0], np.array([[-1.0], [1.0]]))
        with pytest.raises(DomainError, match=r"g\(1\.0\) has a zero coordinate"):
            sig.delta(np.array([[0.5, 1.0], [1.0, 1.5]]))
