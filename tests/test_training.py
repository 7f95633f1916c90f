import math

import numpy as np
import pytest

from scale_lab import (DomainError, MomentState, OptimizerConfig, adam_step, ema_smooth,
                       make_problem, oscillation_omega1, oscillation_omega2, sweep_grid,
                       train_cells)
from scale_lab.training import LOSS_EVERY


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
    def test_adam_on_quadratic_descends(self):
        prob = make_problem("quadratic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.999, eta=0.005)
        trace = train_cells(prob, [cfg], seed=0, steps=200)[0]
        assert not trace.diverged
        assert np.all(np.diff(trace.loss) < 0.0)

    def test_first_bias_corrected_step_is_a_sign_step(self):
        # from m = v = 0 the bias-corrected first R is g / |g|: one unit per coordinate
        prob = make_problem("quadratic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.999, eta=0.001, epsilon=0.0)
        trace = train_cells(prob, [cfg], seed=0, steps=50)[0]
        assert trace.norm_r[0] == pytest.approx(np.sqrt(prob.dim_theta), rel=1e-12)

    def test_traces_are_bit_identical(self):
        prob = make_problem("logistic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01)
        t1 = train_cells(prob, [cfg], seed=3, steps=150)[0]
        t2 = train_cells(prob, [cfg], seed=3, steps=150)[0]
        assert np.array_equal(t1.loss, t2.loss)
        assert np.array_equal(t1.norm_r, t2.norm_r)

    def test_different_seeds_differ(self):
        prob = make_problem("logistic")
        cfg = OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01)
        t1 = train_cells(prob, [cfg], seed=0, steps=100)[0]
        t2 = train_cells(prob, [cfg], seed=1, steps=100)[0]
        assert not np.array_equal(t1.norm_r, t2.norm_r)

    def test_trace_length_contract(self):
        prob = make_problem("mlp")
        trace = train_cells(prob, [OptimizerConfig()], seed=0, steps=40)[0]
        assert trace.k.size == trace.norm_r.size == 40
        assert trace.loss.size == math.ceil(40 / LOSS_EVERY)
        assert np.all(trace.norm_r >= 0.0)

    def test_divergence_truncates_with_flag(self):
        # at eta = 3e152 the (0.999, 0.9) iterates grow until they overflow at step 449
        prob = make_problem("quadratic")
        cfg = OptimizerConfig(beta1=0.999, beta2=0.9, eta=3e152)
        trace = train_cells(prob, [cfg], seed=0, steps=2000)[0]
        assert trace.diverged
        assert 1 < trace.k.size < 2000
        assert np.all(np.isfinite(trace.loss))

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
            assert np.max(np.abs(upd)) <= bound * (1.0 + 1e-12)


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
            smoothed = ema_smooth(trace.norm_r, 10)
            assert res.omegas[cell] == {"omega1": oscillation_omega1(smoothed),
                                        "omega2": oscillation_omega2(smoothed)}

    def test_unknown_metric_rejected(self):
        with pytest.raises(DomainError):
            sweep_grid(make_problem("logistic"), steps=10, metric="omega3")

    def test_diverged_cell_becomes_nan(self):
        # at eta = 3e152 only the (0.999, 0.9) cell diverges, at step 449
        res = sweep_grid(make_problem("quadratic"), seeds=(0,), steps=2000, eta=3e152)
        for cell, trace in res.traces.items():
            assert trace.diverged == (cell == (0.999, 0.9, 0))
            assert all(math.isnan(v) == trace.diverged for v in res.omegas[cell].values())
        assert np.isnan(res.report.omega[0][2, 0])

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
