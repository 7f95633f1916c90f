import math

import numpy as np
import pytest

from scale_lab import (DomainError, GradientSignal, constant_signal, exponential_signal,
                       sinusoidal_log_signal)
from oracles import delta_fd


class TestConstant:
    def test_vector_value(self):
        sig = constant_signal([2.0, -3.0])
        assert np.array_equal(sig.g(5.0), [2.0, -3.0])
        assert np.array_equal(sig.delta(1.0), [0.0, 0.0])


class TestExponential:
    def test_growth_and_drift(self):
        sig = exponential_signal(0.2, scale=3.0)
        assert sig.g(1.0)[0] == pytest.approx(3.0 * math.exp(0.2), rel=1e-14)
        assert sig.delta(7.0)[0] == 0.2
        assert sig.delta_prime(7.0)[0] == 0.0

    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError):
            exponential_signal(0.1, scale=0.0)

    @pytest.mark.parametrize("rates", [math.inf, -math.inf, math.nan, [0.1, math.nan]])
    def test_non_finite_rate_rejected_by_name(self, rates):
        with pytest.raises(DomainError, match=r"drift rate -?(inf|nan) is not finite"):
            exponential_signal(rates)

    def test_one_rate_per_coordinate(self):
        sig = exponential_signal([0.1, -0.2], scale=3.0)
        assert np.array_equal(sig.delta(np.array([0.0, 5.0])), [[0.1, -0.2], [0.1, -0.2]])
        assert np.array_equal(sig.g(1.0), [3.0 * np.exp(0.1), 3.0 * np.exp(-0.2)])
        with pytest.raises(DomainError):
            exponential_signal([0.1, 0.2, 0.3], scale=[1.0, 2.0])


class TestSinusoidalLog:
    def test_never_vanishes_and_drift_formula(self):
        amp, om = 0.3, 0.7
        sig = sinusoidal_log_signal(amp, om, scale=2.0)
        assert sig.g(np.zeros((2, 3))).shape == (2, 3, 1)  # one coordinate
        for t in np.linspace(0.0, 20.0, 50):
            assert sig.g(float(t))[0] > 0.0
        assert sig.delta(0.0)[0] == pytest.approx(amp * om, rel=1e-14)
        assert sig.delta_prime(0.0)[0] == pytest.approx(0.0, abs=1e-14)
        t_quarter = 0.5 * math.pi / om
        assert sig.delta(t_quarter)[0] == pytest.approx(0.0, abs=1e-14)
        assert sig.delta_prime(t_quarter)[0] == pytest.approx(-amp * om * om, rel=1e-12)


def crossing_signal() -> GradientSignal:
    """g(t) = t - 1, which crosses zero at t = 1: delta = 1/(t - 1), delta' = -1/(t - 1)^2."""
    t_minus_1 = lambda t: np.asarray(t, dtype=float)[..., None] - 1.0
    return GradientSignal(g=t_minus_1, delta_analytic=lambda t: 1.0 / t_minus_1(t),
                          delta_prime_analytic=lambda t: -1.0 / t_minus_1(t) ** 2)


class TestZeroCoordinate:
    def test_zero_crossing_drift_rejected(self):
        sig = crossing_signal()
        assert sig.delta(3.0)[0] == 0.5
        with pytest.raises(DomainError):
            sig.delta(1.0)
        with pytest.raises(DomainError):
            delta_fd(sig, 1.0)

    def test_zero_on_a_time_grid_names_its_time(self):
        with pytest.raises(DomainError, match=r"g\(1\.0\) has a zero coordinate"):
            crossing_signal().delta(np.array([[0.5, 1.0], [1.0, 1.5]]))
