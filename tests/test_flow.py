import math

import numpy as np
import pytest

from scale_lab import (CellConfigs, DomainError, FlowAbort, FlowState, GradientSignal,
                       MomentState, TimeScales, beta_from_tau, constant_signal,
                       exponential_signal, integrate_flow, sinusoidal_log_signal,
                       steady_state_init, tau_from_beta)
from scale_lab.optimizers import optimizer_step
from oracles import flow_rhs, steady_state_exponential_gains


class TestTauBeta:
    def test_definition_point(self):
        assert tau_from_beta(math.exp(-1.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_numeric_value(self):
        # -1 / ln(0.9)
        assert tau_from_beta(0.9, 1.0) == pytest.approx(9.491221581029903, rel=1e-14)

    @pytest.mark.parametrize("beta,dt", [(0.999, 0.01), (0.5, 1.0), (0.9, 0.1)])
    def test_round_trip(self, beta, dt):
        assert beta_from_tau(tau_from_beta(beta, dt), dt) == pytest.approx(beta, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            tau_from_beta(bad, 1.0)

    def test_timescales_validation(self):
        with pytest.raises(DomainError):
            TimeScales(tau1=0.0, tau2=1.0)
        ts = TimeScales(tau_from_beta(0.9, 0.1), tau_from_beta(0.99, 0.1))
        assert beta_from_tau(ts.tau1, 0.1) == pytest.approx(0.9, rel=1e-14)
        assert beta_from_tau(ts.tau2, 0.1) == pytest.approx(0.99, rel=1e-14)

    @pytest.mark.parametrize("call, bad", [
        (lambda: TimeScales(math.nan, 1.0), "tau1"),
        (lambda: TimeScales(1.0, math.inf), "tau2"),
        (lambda: tau_from_beta(0.9, math.nan), "dt"),
        (lambda: tau_from_beta(0.9, math.inf), "dt"),
        (lambda: beta_from_tau(math.nan, 1.0), "tau"),
        (lambda: beta_from_tau(1.0, math.nan), "dt"),
        (lambda: beta_from_tau(math.inf, 1.0), "tau"),
    ], ids=["TimeScales-tau1-nan", "TimeScales-tau2-inf", "tau_from_beta-dt-nan",
            "tau_from_beta-dt-inf", "beta_from_tau-tau-nan", "beta_from_tau-dt-nan",
            "beta_from_tau-tau-inf"])
    def test_non_finite_input_is_named(self, call, bad):
        with pytest.raises(DomainError, match=rf"^{bad} must be finite and strictly positive"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: beta_from_tau(1e300, 1e-10),  # exp(-1e-310) rounds to 1
        lambda: beta_from_tau(1e-300, 1.0),   # exp(-1e300) underflows to 0
        lambda: tau_from_beta(1.0 - 2.0 ** -53, 1e300),
    ], ids=["beta-rounds-to-1", "beta-underflows-to-0", "tau-overflows"])
    def test_result_outside_the_domain_is_rejected(self, call):
        with pytest.raises(DomainError):
            call()


class TestFlowRhs:
    def test_moment_fixed_point(self):
        ts = TimeScales(2.0, 3.0)
        sig = constant_signal([2.0, -1.0])
        g = sig.g(0.0)
        dm, dv = flow_rhs(0.0, np.array([g, g * g]), sig.g(0.0), ts, 0.01)
        assert np.allclose(dm, 0.0, atol=1e-15)
        assert np.allclose(dv, 0.0, atol=1e-15)

    def test_direct_formula(self):
        ts = TimeScales(2.0, 1.0)
        dm, _ = flow_rhs(0.0, np.array([[0.0], [1.0]]), constant_signal(1.0).g(0.0), ts, 0.01)
        assert dm[0] == pytest.approx(0.5)

    def test_steady_exponential_mode_growth_rates(self):
        # on the steady mode, m and v grow at delta0 and 2*delta0
        ts = TimeScales(2.0, 3.0)
        d0 = 0.1
        sig = exponential_signal(d0)
        m = np.array([1.0 / (1.0 + d0 * ts.tau1)])
        v = np.array([1.0 / (1.0 + 2.0 * d0 * ts.tau2)])
        dm, dv = flow_rhs(0.0, np.array([m, v]), sig.g(0.0), ts, 0.01)
        assert dm[0] == pytest.approx(d0 * m[0], rel=1e-12)
        assert dv[0] == pytest.approx(2.0 * d0 * v[0], rel=1e-12)

    def test_nonpositive_v_rejected(self):
        # named by its cause: the exact flow keeps v > 0, an RK4 stage at a large step does not
        with pytest.raises(DomainError, match="v crossed zero at t=0: an RK4 stage overshot; "
                                              "the step h=3 is too large for tau2=1$"):
            flow_rhs(0.0, np.zeros((2, 1)), constant_signal(1.0).g(0.0), TimeScales(1.0, 1.0), 3.0)


class TestSteadyGains:
    def test_zero_drift(self):
        assert steady_state_exponential_gains(0.0, TimeScales(1.0, 1.0)) == (1.0, 1.0, 1.0)

    def test_equal_taus_second_order_only(self):
        m, v, r = steady_state_exponential_gains(0.1, TimeScales(1.0, 1.0))
        assert m == pytest.approx(1.0 / 1.1, rel=1e-15)
        assert v == pytest.approx(1.0 / 1.2, rel=1e-15)
        assert r == pytest.approx(0.9958591954639384, rel=1e-14)
        # no first-order term: deviation is O(delta0^2)
        assert abs(r - 1.0) == pytest.approx(0.004140804536061698, rel=1e-10)

    def test_unequal_taus_first_order_term(self):
        _, _, r = steady_state_exponential_gains(0.1, TimeScales(1.0, 2.0))
        assert r == pytest.approx(1.0756508696544756, rel=1e-14)
        # first-order prediction 1 + (tau2 - tau1) * delta0 = 1.1 misses at O(delta0^2)
        assert abs(r - 1.1) == pytest.approx(0.024349, abs=1e-4)

    def test_pole_guard(self):
        with pytest.raises(DomainError):
            steady_state_exponential_gains(-0.6, TimeScales(1.0, 1.0))


class TestSteadyStateInit:
    def test_constant(self):
        st = steady_state_init(constant_signal(3.0), TimeScales(1.0, 1.0))
        assert st.m[0] == 3.0 and st.v[0] == 9.0 and not st.clamped

    def test_first_order_formulas(self):
        st = steady_state_init(exponential_signal(0.05), TimeScales(1.0, 1.0))
        assert st.m[0] == pytest.approx(0.95, abs=1e-15)
        assert st.v[0] == pytest.approx(0.9, abs=1e-15)

    def test_zero_gradient_rejected(self):
        with pytest.raises(DomainError, match=r"g\(0\.0\) has a zero coordinate"):
            steady_state_init(constant_signal([1.0, 0.0]), TimeScales(1.0, 1.0))

    def test_clamp_flag(self):
        st = steady_state_init(exponential_signal(2.0), TimeScales(1.0, 1.0))
        assert st.clamped and np.all(st.v > 0.0)


class TestIntegrateFlow:
    def test_constant_signal_fixed_point(self):
        ts = TimeScales(1.0, 1.0)
        init = FlowState(m=np.zeros(1), v=np.ones(1))
        tr = integrate_flow(constant_signal(1.0), ts, init, t_end=20.0)
        assert tr.m[-1, 0] == pytest.approx(1.0, abs=1e-8)
        assert tr.v[-1, 0] == pytest.approx(1.0, abs=1e-8)
        assert tr.r[-1, 0] == pytest.approx(1.0, abs=1e-8)

    def test_uniform_sampling(self):
        ts = TimeScales(1.0, 1.0)
        init = FlowState(m=np.ones(1), v=np.ones(1))
        tr = integrate_flow(constant_signal(1.0), ts, init, t_end=5.0, h=0.02)
        gaps = np.diff(tr.t)
        assert np.all(gaps > 0)
        assert np.allclose(gaps, gaps[0], rtol=1e-12)
        assert tr.meta == {"h": gaps[0]}

    def test_exponential_steady_gain_after_burn_in(self):
        ts = TimeScales(1.0, 1.0)
        sig = exponential_signal(0.05)
        tr = integrate_flow(sig, ts, steady_state_init(sig, ts), t_end=14.0)
        post = tr.t >= 10.0
        # m(t)/g(t) converges to 1/1.05
        ratio = tr.m[post, 0] / np.array([sig.g(t)[0] for t in tr.t[post]])
        assert np.max(np.abs(ratio - 1.0 / 1.05)) < 1e-6

    def test_fourth_order_convergence(self):
        # error vs the analytic steady mode shrinks ~16x when h halves
        ts = TimeScales(1.0, 2.0)
        d0 = 0.05
        sig = exponential_signal(d0)
        mg, vg, rg = steady_state_exponential_gains(d0, ts)
        g0 = sig.g(0.0)
        init = FlowState(m=g0 * mg, v=g0 * g0 * vg)
        errs = []
        for h in (0.2, 0.1):
            tr = integrate_flow(sig, ts, init, t_end=30.0, h=h)
            errs.append(np.max(np.abs(tr.r[:, 0] - rg)))
        assert 14.0 <= errs[0] / errs[1] <= 18.0

    def test_moment_channels_are_linear(self):
        # m channel: response to (gA + gB) equals sum of responses
        ts = TimeScales(1.0, 1.5)
        ga, gb = 0.7, 1.3
        om_a, om_b = 0.5, 0.9
        sig_a = forcing_only(lambda t: ga * (2.0 + np.sin(om_a * t)))
        sig_b = forcing_only(lambda t: gb * (2.0 + np.cos(om_b * t)))
        sig_ab = forcing_only(lambda t: ga * (2.0 + np.sin(om_a * t))
                              + gb * (2.0 + np.cos(om_b * t)))
        init = lambda s: FlowState(m=s.g(0.0), v=s.g(0.0) ** 2)
        tr_a = integrate_flow(sig_a, ts, init(sig_a), t_end=8.0, h=0.01)
        tr_b = integrate_flow(sig_b, ts, init(sig_b), t_end=8.0, h=0.01)
        tr_ab = integrate_flow(sig_ab, ts, init(sig_ab), t_end=8.0, h=0.01)
        assert np.max(np.abs(tr_ab.m - tr_a.m - tr_b.m)) < 1e-10
        # v channel is linear in its own forcing g^2: drive with sqrt of the sum
        sig_sq = forcing_only(lambda t: np.sqrt(sig_a.g(t)[..., 0] ** 2 + sig_b.g(t)[..., 0] ** 2))
        tr_sq = integrate_flow(sig_sq, ts, init(sig_sq), t_end=8.0, h=0.01)
        assert np.max(np.abs(tr_sq.v - tr_a.v - tr_b.v)) < 1e-10

    @pytest.mark.parametrize("c", [0.1, 1.0, 7.0])
    def test_asymptotic_r_independent_of_signal_magnitude(self, c):
        ts = TimeScales(1.0, 2.0)
        sig = exponential_signal(0.04, scale=c)
        tr = integrate_flow(sig, ts, steady_state_init(sig, ts),
                            t_end=ts.burn_in + 4.0)
        ref_sig = exponential_signal(0.04, scale=1.0)
        ref = integrate_flow(ref_sig, ts, steady_state_init(ref_sig, ts),
                             t_end=ts.burn_in + 4.0)
        post = tr.t >= ts.burn_in
        assert np.max(np.abs(tr.r[post] - ref.r[post])) < 1e-8

    def test_v_crossing_aborts(self):
        # the exact v stays positive under nonnegative forcing, so the guard
        # is about numerical crossings: a step much larger than tau2 drives
        # an intermediate stage of a decaying v below zero
        ts = TimeScales(1.0, 1.0)
        sig = constant_signal(np.zeros(1))
        init = FlowState(m=np.zeros(1), v=np.ones(1))
        with pytest.raises(FlowAbort) as err:
            integrate_flow(sig, ts, init, t_end=30.0, h=3.0)
        assert err.value.t > 0.0
        assert str(err.value).endswith("an RK4 stage overshot; the step h=3 is too large for tau2=1")

    def test_bad_arguments(self):
        ts = TimeScales(1.0, 1.0)
        init = FlowState(m=np.ones(1), v=np.ones(1))
        with pytest.raises(DomainError):
            integrate_flow(constant_signal(1.0), ts, init, t_end=0.0)
        with pytest.raises(DomainError):
            integrate_flow(constant_signal(1.0), ts, init, t_end=1.0, h=-0.1)

    @pytest.mark.parametrize("signal", [constant_signal([]), exponential_signal([], [])],
                             ids=["const", "exp"])
    def test_flow_without_coordinates_is_domain_error(self, signal):
        # an empty trace would have ||R|| = 0 and no maximum for measure_remainder to take
        ts = TimeScales(1.0, 1.0)
        init = steady_state_init(signal, ts)
        with pytest.raises(DomainError, match=r"^a flow needs at least one coordinate, got m "
                                              r"of shape \(0,\) and v of shape \(0,\)$"):
            integrate_flow(signal, ts, init, t_end=1.0)


def forcing_only(fn):
    """Wrap an array-aware callable as a 1-d signal for ``integrate_flow``, which reads g
    alone: its drift evaluators fail if called."""
    def unread(t):
        raise AssertionError("integrate_flow evaluated the drift")
    return GradientSignal(g=lambda t: np.asarray(fn(t), dtype=float)[..., None],
                          delta_analytic=unread, delta_prime_analytic=unread)


class TestDiscreteContinuousConsistency:
    def _deviation(self, dt: float) -> float:
        # drift must vary in time, otherwise R is constant and the O(dt)
        # time-shift error cancels between the m and v channels; the pair is
        # the balanced one, since acceptance criterion 5 checks (1, 2)
        ts = TimeScales(1.0, 1.0)
        sig = sinusoidal_log_signal(amplitude=0.05, omega=0.5)
        init = steady_state_init(sig, ts)
        n = round((ts.burn_in + 8.0 * np.pi) / dt)
        t_end = n * dt
        flow = integrate_flow(sig, ts, init, t_end=t_end, h=dt / 8.0)
        beta = beta_from_tau(ts.tau1, dt)
        cell = CellConfigs([(beta, beta)], epsilon=0.0, bias_correction=False)
        state = MomentState(np.stack((init.m, init.v))[:, None])
        # the whole stream as one (n, 1, 1) block: bit-identical to n one-step calls
        r_disc = optimizer_step(state, sig.g(np.arange(n) * dt)[:, None], cell)
        t, r = flow.t[::8], flow.r[::8]  # the steps of the discrete run
        keep = t[1:] >= ts.burn_in
        return float(np.max(np.abs(r_disc[:, 0, 0] - r[1:, 0])[keep]))

    def test_halving_dt_halves_deviation(self):
        d1, d2 = self._deviation(0.04), self._deviation(0.02)
        assert 1.7 <= d1 / d2 <= 2.3
