import math

import numpy as np
import pytest

from scale_lab import drift
from scale_lab import (DomainError, FlowAbort, GradientSignal, TimeScales, constant_signal,
                       drift_bounds, exponential_signal, first_order_sensitivity, fit_power_law,
                       integrate_flow, measure_remainder,
                       predict_first_order, remainder_order_sweep,
                       sinusoidal_log_signal, steady_state_init)
from oracles import delta_fd, steady_state_exponential_gains, tracking_check


@pytest.fixture(autouse=True)
def fresh_ladder_cache():
    drift._ladder_flow.cache_clear()
    yield
    drift._ladder_flow.cache_clear()


@pytest.fixture
def flow_calls(monkeypatch):
    """The time scales of every ``integrate_flow`` call the drift module makes."""
    calls = []

    def counted(signal, ts, *args, **kwargs):
        calls.append(ts)
        return integrate_flow(signal, ts, *args, **kwargs)

    monkeypatch.setattr(drift, "integrate_flow", counted)
    return calls


def offset_sine_signal():
    # g(t) = 2 + sin(t): nonvanishing, with analytic drift cos(t)/(2+sin(t))
    # and drift derivative -(1 + 2 sin(t))/(2 + sin(t))^2
    return GradientSignal(
        g=lambda t: (2.0 + np.sin(t))[..., None],
        delta_analytic=lambda t: (np.cos(t) / (2.0 + np.sin(t)))[..., None],
        delta_prime_analytic=lambda t: (-(1.0 + 2.0 * np.sin(t))
                                        / (2.0 + np.sin(t)) ** 2)[..., None],
    )


class TestLogDrift:
    def test_exponential(self):
        sig = exponential_signal(0.3)
        for t in (0.0, 1.7, -4.0):
            assert sig.delta(t)[0] == pytest.approx(0.3, rel=1e-14)

    def test_constant(self):
        assert constant_signal(5.0).delta(2.0)[0] == 0.0

    def test_offset_sine_quotient_rule(self):
        assert offset_sine_signal().delta(0.0)[0] == pytest.approx(0.5, rel=1e-14)

    def test_zero_gradient_rejected(self):
        with pytest.raises(DomainError):
            constant_signal([2.0, 0.0]).delta(0.0)

    @pytest.mark.parametrize("make", [
        lambda: exponential_signal(0.07),
        lambda: constant_signal(2.5),
        lambda: sinusoidal_log_signal(0.2, 0.8),
        offset_sine_signal,
    ])
    def test_finite_difference_matches_analytic(self, make):
        sig = make()
        for t in np.linspace(0.0, 6.0, 13):
            ana = sig.delta(float(t))
            fd = delta_fd(sig, float(t))
            assert np.allclose(fd, ana, rtol=1e-6, atol=1e-9)


class TestDriftBounds:
    def test_exponential_constant_drift(self):
        prof = drift_bounds(exponential_signal(0.05), (0.0, 10.0))
        assert prof.lambda_bound == pytest.approx(0.05 * 1.01, rel=1e-12)
        assert prof.lambda_prime_bound == 0.0

    def test_constant_signal(self):
        prof = drift_bounds(constant_signal(1.0), (0.0, 5.0))
        assert prof.lambda_bound == 0.0
        assert prof.lambda_prime_bound == 0.0

    def test_offset_sine_analytic_max(self):
        # sup |cos t / (2 + sin t)| over a period is 1/sqrt(3); delta' = -(1 + 2s)/(2 + s)^2
        # rises monotonically in s = sin t from -1 to 1/3, so sup |delta'| is 1, at s = -1
        prof = drift_bounds(offset_sine_signal(), (0.0, 2.0 * math.pi))
        assert prof.lambda_bound == pytest.approx(1.01 / math.sqrt(3.0), rel=1e-4)
        assert prof.lambda_prime_bound == pytest.approx(1.01, rel=1e-4)

    @pytest.mark.parametrize("make", [lambda: exponential_signal(0.05), offset_sine_signal])
    def test_one_point_interval_bounds_the_values_at_that_point(self, make):
        # a flow whose rounded grid leaves one sample past burn-in measures its window there
        sig, t = make(), 10.01
        prof = drift_bounds(sig, (t, t))
        assert prof.lambda_bound == drift.SUP_INFLATION * float(np.max(np.abs(sig.delta(t))))
        assert prof.lambda_prime_bound == drift.SUP_INFLATION * float(
            np.max(np.abs(sig.delta_prime(t))))

    def test_reversed_interval_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"empty interval \[1\.0, 0\.5\]"):
            drift_bounds(constant_signal(1.0), (1.0, 0.5))


class TestPredictFirstOrder:
    def test_zero_drift(self):
        ts = TimeScales(1.0, 2.0)
        m, v, r = predict_first_order(constant_signal([2.0, -3.0]), ts, 0.0)
        assert np.allclose(m, [2.0, -3.0])
        assert np.allclose(v, [4.0, 9.0])
        assert np.allclose(r, [1.0, -1.0])

    def test_equal_taus_kills_first_order_term(self):
        ts = TimeScales(1.5, 1.5)
        for d0 in (0.01, 0.05, 0.1):
            _, _, r = predict_first_order(exponential_signal(d0), ts, 3.0)
            assert r[0] == 1.0  # exactly sign(g), independent of the drift

    def test_plug_in(self):
        ts = TimeScales(1.0, 2.0)
        _, _, r = predict_first_order(exponential_signal(0.1), ts, 0.0)
        assert r[0] == pytest.approx(1.1, rel=1e-14)

    @pytest.mark.parametrize("taus", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)])
    def test_prediction_matches_gains_to_first_order(self, taus):
        # the gap to the exact gain is second order: halving the drift must
        # shrink it by roughly four, so gap(d0) <= 8 * gap(d0/2)
        ts = TimeScales(*taus)
        for d0 in (0.02, 0.05, 0.1):
            def gap(d):
                gain = steady_state_exponential_gains(d, ts)[2]
                _, _, pred = predict_first_order(exponential_signal(d), ts, 0.0)
                return abs(gain - pred[0])
            assert gap(d0) <= 8.0 * gap(d0 / 2.0)


class TestMeasureRemainder:
    def run_report(self, d0, taus):
        ts = TimeScales(*taus)
        sig = exponential_signal(d0)
        trace = integrate_flow(sig, ts, steady_state_init(sig, ts),
                               t_end=1.2 * ts.burn_in + 2.0 * ts.tau_max)
        return measure_remainder(trace, sig, ts)

    def test_constant_signal_remainders_at_integrator_tolerance(self):
        ts = TimeScales(1.0, 1.0)
        sig = constant_signal(1.0)
        trace = integrate_flow(sig, ts, steady_state_init(sig, ts), t_end=14.0)
        rep = measure_remainder(trace, sig, ts)
        for ch in rep.channels.values():
            assert ch.max_abs < 1e-8

    def test_exponential_r_remainder_matches_closed_form(self):
        # |R_gain - 1| for tau1 = tau2 = 1, delta0 = 0.05: sqrt(1.1)/1.05 vs 1
        rep = self.run_report(0.05, (1.0, 1.0))
        assert rep.channels["R"].max_abs == pytest.approx(0.0011344303141414, abs=2e-9)

    def test_remainder_scales_second_order(self):
        r1 = self.run_report(0.05, (1.0, 1.0)).channels["R"].max_abs
        r2 = self.run_report(0.025, (1.0, 1.0)).channels["R"].max_abs
        # closed-form gains give 3.8134; exact quadratic scaling would be 4
        assert r1 / r2 == pytest.approx(3.8134, abs=0.05)

    @pytest.mark.parametrize("d0", [0.02, 0.05, 0.1])
    @pytest.mark.parametrize("taus", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)])
    def test_m_v_remainders_within_explicit_envelopes(self, d0, taus):
        rep = self.run_report(d0, taus)
        assert rep.channels["m"].bound_margin > 0.0
        assert rep.channels["v"].bound_margin > 0.0

    def test_empty_window_rejected(self):
        ts = TimeScales(1.0, 1.0)
        sig = exponential_signal(0.05)
        trace = integrate_flow(sig, ts, steady_state_init(sig, ts), t_end=2.0)
        with pytest.raises(DomainError):
            measure_remainder(trace, sig, ts)  # burn-in is 10, trace ends at 2


class TestRemainderOrderSweep:
    def test_second_order_for_both_tau_regimes(self):
        # the fitted slope targets the remainder AFTER subtracting the
        # first-order term, so it sits near 2 with or without tau symmetry
        for taus in [(1.0, 1.0), (1.0, 2.0)]:
            rep = remainder_order_sweep(TimeScales(*taus), [0.01, 0.02, 0.04, 0.08])
            assert rep.fitted_order == pytest.approx(2.0, abs=0.25)

    def test_ladder_abort_carries_earliest_abort_time(self):
        # g * g of e^{delta0 t} overflows once 2 delta0 t > 709.78, so the faster rate
        # aborts first: 60 near t = 5.92, 30 near t = 11.8
        ts, rates = TimeScales(1.0, 1.0), [0.01, 30.0, 60.0]
        t_end = 1.2 * ts.burn_in + 2.0 * ts.tau_max
        aborts = []
        for d0 in rates:
            sig = exponential_signal(d0)
            try:
                integrate_flow(sig, ts, steady_state_init(sig, ts), t_end=t_end)
            except FlowAbort as err:
                aborts.append(err.t)
        assert len(aborts) == 2 and aborts[0] > aborts[1]
        assert aborts[1] == pytest.approx(5.92)
        with pytest.raises(FlowAbort) as err:
            remainder_order_sweep(ts, rates)
        assert err.value.t == min(aborts)


class TestSharedLadder:
    TS, RATES = TimeScales(1.0, 2.0), [0.01, 0.02, 0.04, 0.08]

    def test_sensitivity_then_sweep_integrates_once(self, flow_calls):
        first_order_sensitivity(self.TS, self.RATES)
        cached = remainder_order_sweep(self.TS, self.RATES)
        assert flow_calls == [self.TS]
        drift._ladder_flow.cache_clear()
        assert remainder_order_sweep(self.TS, self.RATES) == cached

    def test_shuffled_rates_hit_the_cache(self, flow_calls):
        first_order_sensitivity(self.TS, self.RATES)
        remainder_order_sweep(self.TS, [0.04, 0.01, 0.08, 0.02])
        assert len(flow_calls) == 1

    @pytest.mark.parametrize("ts, rates", [
        (TimeScales(2.0, 1.0), RATES),
        (TS, RATES[:3]),
    ])
    def test_another_ladder_integrates_again(self, flow_calls, ts, rates):
        first_order_sensitivity(self.TS, self.RATES)
        remainder_order_sweep(ts, rates)
        assert len(flow_calls) == 2

    def test_traces_are_read_only(self):
        ladder = drift._ladder_flow(self.TS, tuple(self.RATES))
        for k in range(len(self.RATES)):
            for a in (ladder.t, ladder.m[:, k:k + 1], ladder.v[:, k:k + 1], ladder.r[:, k:k + 1]):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_abort_is_not_cached(self, flow_calls):
        ts, rates = TimeScales(1.0, 1.0), [0.01, 30.0, 60.0]
        aborts = []
        for _ in range(2):
            with pytest.raises(FlowAbort) as err:
                remainder_order_sweep(ts, rates)
            aborts.append(err.value.t)
        assert len(flow_calls) == 2 and aborts[0] == aborts[1]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("fit", [first_order_sensitivity, remainder_order_sweep])
    def test_non_finite_rate_is_a_domain_error(self, flow_calls, fit, bad):
        with pytest.raises(DomainError, match="not finite"):
            fit(TimeScales(1.0, 1.0), [0.01, 0.02, bad])
        assert flow_calls == []


class TestFitPowerLaw:
    def test_recovers_exact_power(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, intercept = fit_power_law(x, 3.0 * x ** 2)
        assert slope == pytest.approx(2.0, rel=1e-12)
        assert math.exp(intercept) == pytest.approx(3.0, rel=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            fit_power_law([1.0, 2.0], [1.0, 4.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_needs_finite_positive_data(self, bad):
        with pytest.raises(DomainError):
            fit_power_law([1.0, 2.0, 4.0], [1.0, bad, 3.0])
        with pytest.raises(DomainError):
            fit_power_law([1.0, bad, 4.0], [1.0, 2.0, 3.0])

    def test_needs_two_distinct_x_values(self):
        # np.polyfit over one abscissa is rank-deficient: it returned a slope, not an error
        with pytest.raises(DomainError, match="at least 2 distinct x values, got only 0.02"):
            fit_power_law([0.02] * 3, [1e-3, 2e-3, 3e-3])

    def test_ladder_of_one_repeated_rate_is_a_domain_error(self):
        # every rate has one drift bound, so the fitted order was 1.096 of rounding noise
        with pytest.raises(DomainError, match="distinct magnitudes"):
            remainder_order_sweep(TimeScales(1.0, 1.0), [0.02] * 3)
        assert drift._ladder_flow.cache_info().misses == 0


@pytest.mark.parametrize("rates", [[0.02] * 3, [0.02, -0.02, 0.02], [0.01, 0.02],
                                   [0.0, 0.01, 0.02], [], [0.01, -0.0, 0.02, 0.04]],
                         ids=["repeated", "one-magnitude", "two-rates", "zero", "empty",
                              "negative-zero"])
@pytest.mark.parametrize("fit", [first_order_sensitivity, remainder_order_sweep])
def test_bad_ladder_is_rejected_before_any_flow(flow_calls, fit, rates):
    # the fits share one ladder check, run before the ladder's flow is integrated
    with pytest.raises(DomainError, match="drift-rate ladder needs 3 or more non-zero rates"):
        fit(TimeScales(1.0, 1.0), rates)
    assert flow_calls == [] and drift._ladder_flow.cache_info().misses == 0


class TestTrackingCheck:
    def test_linear_signal_with_cancelling_init_is_exact(self):
        # x0 = -1 makes x(t) = t - 1 exactly, so the residual vanishes
        res = tracking_check(lambda t: t, tau=1.0, x0=-1.0, interval=(0.0, 20.0),
                             y_prime=lambda t: 1.0, y_second=lambda t: 0.0)
        assert res.max_residual < 1e-12
        assert res.passed

    def test_constant_fixed_point(self):
        res = tracking_check(lambda t: 3.0, tau=0.7, x0=3.0, interval=(0.0, 14.0),
                             y_prime=lambda t: 0.0, y_second=lambda t: 0.0)
        assert res.max_residual < 1e-12
        assert res.passed

    def test_sine_post_transient_curvature_bound(self):
        res = tracking_check(np.sin, tau=0.5, x0=0.0, interval=(0.0, 10.0),
                             y_prime=np.cos, y_second=lambda t: -np.sin(t))
        assert res.passed
        # after the transient decays, |r| <= tau^2 sup|y''| = 0.25
        late = res.t >= 5.0
        assert np.max(np.abs(res.residual[late])) <= 0.25
        assert res.curvature_sup == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("kw, name", [
        (dict(h=-0.1), "step h"), (dict(h=0.0), "step h"), (dict(h=math.nan), "step h"),
        (dict(tau=math.inf), "tau"), (dict(tau=math.nan), "tau"),
    ], ids=["h-negative", "h-zero", "h-nan", "tau-inf", "tau-nan"])
    def test_step_and_tau_must_be_finite_and_positive(self, kw, name):
        # a negative h used to grid the interval as one step and report on it
        args = dict(tau=0.5, x0=0.0, interval=(0.0, 10.0), y_prime=np.cos,
                    y_second=lambda t: -np.sin(t)) | kw
        with pytest.raises(DomainError, match=f"^{name} must be finite and strictly positive"):
            tracking_check(np.sin, **args)

    def test_transient_coefficient_formula(self):
        res = tracking_check(lambda t: 2.0 + 0.7 * t, tau=0.5, x0=0.0,
                             interval=(0.0, 10.0), y_prime=lambda t: 0.7,
                             y_second=lambda t: 0.0)
        assert res.transient_coeff == pytest.approx(abs(0.0 - 2.0 + 0.5 * 0.7), rel=1e-12)
        assert res.passed

    def test_y_is_called_on_whole_grids(self):
        # a fixed handful of whole-array calls, however long the interval
        counts = []
        for t1 in (10.0, 40.0):
            calls = []

            def y(t):
                calls.append(np.ndim(t))
                return np.sin(t)

            assert tracking_check(y, tau=0.5, x0=0.0, interval=(0.0, t1),
                                  y_prime=np.cos, y_second=lambda t: -np.sin(t)).passed
            assert 0 not in calls
            counts.append(len(calls))
        assert counts[0] == counts[1] < 20

    @pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 2.0])
    def test_battery_bound_never_violated(self, tau):
        battery = [
            (lambda t: 3.0, lambda t: 0.0, lambda t: 0.0, 0.5),
            (lambda t: 2.0 + 0.7 * t, lambda t: 0.7, lambda t: 0.0, 0.0),
            (lambda t: np.sin(t), lambda t: np.cos(t), lambda t: -np.sin(t), 0.0),
            (lambda t: np.exp(0.2 * t), lambda t: 0.2 * np.exp(0.2 * t),
             lambda t: 0.04 * np.exp(0.2 * t), 1.0),
        ]
        for y, yp, ypp, x0 in battery:
            res = tracking_check(y, tau=tau, x0=x0, interval=(0.0, 20.0 * tau),
                                 y_prime=yp, y_second=ypp)
            assert res.passed
