import numpy as np
import pytest

from scale_lab import (DomainError, MomentState, OptimizerConfig, adam_step,
                       make_problem, omega_of_trace, run_training, sweep_grid)


def central_difference_gradient(loss, theta, h=1e-5):
    g = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        g[i] = (loss(up) - loss(down)) / (2.0 * h)
    return g


class TestProblems:
    def test_quadratic_minimum(self):
        prob = make_problem("quadratic")
        theta = np.zeros(prob.dim_theta)
        assert prob.loss(theta) == 0.0
        assert np.array_equal(prob.grad(theta), theta)

    def test_quadratic_closed_form_gradient(self):
        prob = make_problem("quadratic")
        theta = prob.init_theta(0)
        g = prob.grad(theta)
        # grad = D theta, so the ratio reveals the fixed spectrum 1..100
        d = g / theta
        assert d.min() == pytest.approx(1.0, rel=1e-12)
        assert d.max() == pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, kind, seed):
        prob = make_problem(kind, seed=seed)
        for probe in range(5):
            theta = prob.init_theta(100 * seed + probe)
            g = prob.grad(theta)
            fd = central_difference_gradient(prob.loss, theta)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-30)
            assert rel < 1e-5

    def test_minibatch_gradient_uses_subset(self):
        prob = make_problem("logistic")
        theta = prob.init_theta(0)
        full = prob.grad(theta)
        sub = prob.grad(theta, np.arange(32))
        assert not np.allclose(full, sub)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            make_problem("resnet")


class TestRunTraining:
    def test_gd_on_quadratic_descends(self):
        prob = make_problem("quadratic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.999, eta=0.005)
        trace = run_training(prob, cfg, seed=0, steps=200, method="gd")
        assert not trace.diverged
        assert np.all(np.diff(trace.loss) < 0.0)

    def test_traces_are_bit_identical(self):
        prob = make_problem("logistic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01)
        t1 = run_training(prob, cfg, seed=3, steps=150)
        t2 = run_training(prob, cfg, seed=3, steps=150)
        assert np.array_equal(t1.loss, t2.loss)
        assert np.array_equal(t1.norm_r, t2.norm_r)

    def test_different_seeds_differ(self):
        prob = make_problem("logistic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01)
        t1 = run_training(prob, cfg, seed=0, steps=100)
        t2 = run_training(prob, cfg, seed=1, steps=100)
        assert not np.array_equal(t1.norm_r, t2.norm_r)

    def test_trace_length_contract(self):
        prob = make_problem("mlp")
        trace = run_training(prob, OptimizerConfig(), seed=0, steps=40)
        assert trace.k.size == trace.loss.size == trace.norm_r.size == 40
        assert np.all(trace.norm_r >= 0.0)

    def test_divergence_truncates_with_flag(self):
        # GD with a step far beyond 2/lambda_max blows the quadratic up to inf
        prob = make_problem("quadratic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.999, eta=10.0)
        trace = run_training(prob, cfg, seed=0, steps=2000, method="gd")
        assert trace.diverged
        assert trace.k.size < 2000
        assert np.all(np.isfinite(trace.loss))

    def test_signsgd_mode_runs(self):
        prob = make_problem("quadratic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.999, eta=0.001)
        trace = run_training(prob, cfg, seed=0, steps=50, method="signsgd")
        # every coordinate contributes a unit sign
        assert trace.norm_r[0] == pytest.approx(np.sqrt(prob.dim_theta))

    def test_update_norm_bounded_by_recorded_state(self):
        prob = make_problem("logistic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01, epsilon=1e-8)
        theta = prob.init_theta(0)
        state = MomentState(m=np.zeros_like(theta), v=np.zeros_like(theta), theta=theta)
        from scale_lab.rng import CounterRng
        batches = CounterRng(0, stream=2)
        for k in range(100):
            idx = batches.integers(0, prob.n_samples, 32)
            state, upd = adam_step(state, prob.grad(state.theta, idx), cfg)
            m_hat = state.m / (1.0 - cfg.beta1 ** state.k)
            v_hat = state.v / (1.0 - cfg.beta2 ** state.k)
            bound = np.max(np.abs(m_hat) / (np.sqrt(v_hat) + cfg.epsilon))
            assert np.max(np.abs(upd.r)) <= bound * (1.0 + 1e-12)


class TestSweepGrid:
    def test_small_sweep_shape_and_determinism(self):
        prob = make_problem("logistic")
        res1 = sweep_grid(prob, seeds=(0, 1), steps=60, window=10)
        res2 = sweep_grid(prob, seeds=(0, 1), steps=60, window=10)
        assert res1.report.trials == 6
        assert len(res1.report.omega) == 2
        for g1, g2 in zip(res1.report.omega, res2.report.omega):
            assert np.array_equal(g1, g2)

    def test_window_one_equals_raw_series_metric(self):
        prob = make_problem("logistic")
        res = sweep_grid(prob, beta_axis=[0.9, 0.99], seeds=(0,), steps=60, window=1)
        trace = res.traces[(0.9, 0.99, 0)]
        from scale_lab import oscillation_omega1
        assert res.report.omega[0][0, 1] == oscillation_omega1(trace.norm_r)

    def test_metric_switch(self):
        prob = make_problem("logistic")
        r1 = sweep_grid(prob, beta_axis=[0.9, 0.99], seeds=(0,), steps=60, metric="omega1")
        r2 = sweep_grid(prob, beta_axis=[0.9, 0.99], seeds=(0,), steps=60, metric="omega2")
        assert not np.array_equal(r1.report.omega[0], r2.report.omega[0])

    def test_omegas_hold_both_metrics_of_every_cell(self):
        res = sweep_grid(make_problem("logistic"), beta_axis=[0.9, 0.99], seeds=(0, 1),
                         steps=60, window=10)
        assert res.omegas.keys() == res.traces.keys()
        for cell, trace in res.traces.items():
            for metric in ("omega1", "omega2"):
                assert res.omegas[cell][metric] == omega_of_trace(trace, 10, metric)

    def test_unknown_metric_rejected(self):
        with pytest.raises(DomainError):
            sweep_grid(make_problem("logistic"), steps=10, metric="omega3")

    def test_diverged_cell_becomes_nan(self):
        trace = run_training(make_problem("quadratic"),
                             OptimizerConfig(beta1=0.9, beta2=0.999, eta=10.0),
                             seed=0, steps=2000, method="gd")
        assert np.isnan(omega_of_trace(trace))

    def test_empty_arguments_rejected(self):
        with pytest.raises(DomainError):
            sweep_grid(make_problem("logistic"), beta_axis=[], seeds=(0,), steps=10)

    def test_quadratic_single_seed_report(self):
        # deterministic full-batch run: this configuration lands all three
        # rows on the diagonal, so N=3 and p = (1/3)^3
        res = sweep_grid(make_problem("quadratic"), seeds=(0,), steps=3000, window=200)
        rep = res.report
        assert rep.trials == 3
        assert rep.hits == 3
        assert rep.p_value == pytest.approx(0.037037037, rel=1e-9)
