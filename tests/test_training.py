import math

import numpy as np
import pytest

from scale_lab import (CellConfigs, DomainError, MomentState, ema_smooth,
                       grid_report, make_problem, omega_grids, oscillation_omega1,
                       oscillation_omega2, start_point, sweep_grid, train_cells)
from scale_lab.optimizers import optimizer_step
from scale_lab.problems import QUADRATIC_DIM
from scale_lab.training import LOSS_EVERY


def omega1_report(res):
    """``grid_report`` of a sweep's omega1 grids, the way ``sweep`` and ``report --grid`` score."""
    axis = sorted({b1 for b1, _, _ in res.traces})
    seeds = sorted({s for _, _, s in res.traces})
    return grid_report(omega_grids(res.omegas["omega1"], axis, seeds), axis)


def central_difference_gradient(loss, theta, h=1e-5):
    """Central differences of ``loss`` at a (1, d) theta, each coordinate's pair a row of one
    stacked call."""
    step = h * np.eye(theta.shape[1])
    return ((loss(theta + step) - loss(theta - step)) / (2.0 * h))[None]


class TestProblems:
    def test_quadratic_minimum(self):
        prob = make_problem("quadratic")
        theta = np.zeros((1, QUADRATIC_DIM))
        assert prob.loss(theta)[0] == 0.0
        assert np.array_equal(prob.grad(theta), theta)

    def test_quadratic_closed_form_gradient(self):
        prob = make_problem("quadratic")
        theta = prob.init_theta(0)[None]
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
            theta = prob.init_theta(100 * seed + probe)[None]
            g = prob.grad(theta)
            fd = central_difference_gradient(prob.loss, theta)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-30)
            assert rel < 1e-5

    def test_minibatch_gradient_uses_subset(self):
        prob = make_problem("logistic")
        theta = prob.init_theta(0)[None]
        full = prob.grad(theta)
        sub = prob.grad(theta, np.arange(32))
        assert not np.allclose(full, sub)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            make_problem("resnet")


class TestRunTraining:
    def test_adam_on_quadratic_descends(self):
        prob = make_problem("quadratic")
        cell = CellConfigs([(0.9, 0.999)])
        trace = train_cells(prob, cell, start_point(prob, [0]), steps=200, eta=0.005)[0]
        assert not trace.diverged
        assert np.all(np.diff(trace.loss) < 0.0)

    def test_first_bias_corrected_step_is_a_sign_step(self):
        # from m = v = 0 the bias-corrected first R is g / |g|: one unit per coordinate
        prob = make_problem("quadratic")
        cell = CellConfigs([(0.9, 0.999)], epsilon=0.0)
        trace = train_cells(prob, cell, start_point(prob, [0]), steps=50, eta=0.001)[0]
        assert trace.norm_r[0] == pytest.approx(np.sqrt(QUADRATIC_DIM), rel=1e-12)

    def test_traces_are_bit_identical(self):
        prob = make_problem("logistic")
        cell = CellConfigs([(0.9, 0.99)])
        t1 = train_cells(prob, cell, start_point(prob, [3]), steps=150, eta=0.01)[0]
        t2 = train_cells(prob, cell, start_point(prob, [3]), steps=150, eta=0.01)[0]
        assert np.array_equal(t1.loss, t2.loss)
        assert np.array_equal(t1.norm_r, t2.norm_r)

    def test_different_seeds_differ(self):
        prob = make_problem("logistic")
        cell = CellConfigs([(0.9, 0.99)])
        t1 = train_cells(prob, cell, start_point(prob, [0]), steps=100, eta=0.01)[0]
        t2 = train_cells(prob, cell, start_point(prob, [1]), steps=100, eta=0.01)[0]
        assert not np.array_equal(t1.norm_r, t2.norm_r)

    def test_trace_length_contract(self):
        prob = make_problem("mlp")
        trace = train_cells(prob, CellConfigs([(0.9, 0.999)]), start_point(prob, [0]), steps=40,
                            eta=1e-3)[0]
        assert trace.norm_r.size == 40
        assert trace.loss.size == math.ceil(40 / LOSS_EVERY)
        assert np.all(trace.norm_r >= 0.0)

    def test_divergence_truncates_with_flag(self):
        # at eta = 3e151 the (0.999, 0.9) iterates grow until the bias-corrected v
        # overflows at step 1423 (at 3e152 it overflows at step 1)
        prob = make_problem("quadratic")
        cell = CellConfigs([(0.999, 0.9)])
        trace = train_cells(prob, cell, start_point(prob, [0]), steps=2000, eta=3e151)[0]
        assert trace.diverged
        assert 1 < trace.norm_r.size < 2000
        assert np.all(np.isfinite(trace.loss))

    @pytest.mark.parametrize("eta, dies_at", [(1e152, 347), (3e151, 1423)])
    def test_overflowed_second_moment_cuts_the_trace(self, eta, dies_at):
        # the (0.999, 0.9) cell's bias-corrected v first overflows at step dies_at: that step's
        # R is NaN, not 0, so the run is diverged there instead of training on to 2000
        cell, prob = CellConfigs([(0.999, 0.9)]), make_problem("quadratic")
        trace = train_cells(prob, cell, start_point(prob, [0]), steps=2000, eta=eta)[0]
        assert trace.diverged and trace.norm_r.size == dies_at
        assert np.isfinite(trace.norm_r).all()

    def test_update_norm_bounded_by_recorded_state(self):
        prob = make_problem("logistic")
        b1, b2, eta, eps = 0.9, 0.99, 0.01, 1e-8
        cells = CellConfigs([(b1, b2)], epsilon=eps)
        theta = prob.init_theta(0)[None]
        state = MomentState(np.zeros((2,) + theta.shape))
        from scale_lab.rng import CounterRng
        batches = CounterRng(0, stream=2)
        for k in range(100):
            idx = batches.integers(0, prob.n_samples, 32)
            upd = optimizer_step(state, prob.grad(theta, idx)[None], cells)[0]
            theta = theta - eta * upd
            m_hat = state.mv[0] / (1.0 - b1 ** state.k)
            v_hat = state.mv[1] / (1.0 - b2 ** state.k)
            bound = np.max(np.abs(m_hat) / (np.sqrt(v_hat) + eps))
            assert np.max(np.abs(upd)) <= bound * (1.0 + 1e-12)


class TestSweepGrid:
    def test_small_sweep_shape_and_determinism(self):
        prob = make_problem("logistic")
        res1 = sweep_grid(prob, seeds=(0, 1), steps=60, window=10)
        res2 = sweep_grid(prob, seeds=(0, 1), steps=60, window=10)
        assert omega1_report(res1).trials == 6
        assert {seed for _, _, seed in res1.omegas["omega1"]} == {0, 1}
        assert res1.omegas == res2.omegas

    def test_window_one_equals_raw_series_metric(self):
        prob = make_problem("logistic")
        res = sweep_grid(prob, beta_axis=[0.9, 0.99], seeds=(0,), steps=60, window=1)
        trace = res.traces[(0.9, 0.99, 0)]
        assert res.omegas["omega1"][(0.9, 0.99, 0)] == oscillation_omega1(trace.norm_r)

    def test_omegas_hold_both_metrics_of_every_cell(self):
        res = sweep_grid(make_problem("logistic"), beta_axis=[0.9, 0.99], seeds=(0, 1),
                         steps=60, window=10)
        assert list(res.omegas) == ["omega1", "omega2"]
        for cell, trace in res.traces.items():
            smoothed = ema_smooth(trace.norm_r, 10)
            assert (res.omegas["omega1"][cell], res.omegas["omega2"][cell]) == (
                oscillation_omega1(smoothed), oscillation_omega2(smoothed))
        assert all(scores.keys() == res.traces.keys() for scores in res.omegas.values())

    def test_diverged_cell_becomes_nan(self):
        # at eta = 3e151 only the (0.999, 0.9) cell diverges, its corrected v overflowing
        # at step 1423
        res = sweep_grid(make_problem("quadratic"), seeds=(0,), steps=2000, eta=3e151)
        for cell, trace in res.traces.items():
            assert trace.diverged == (cell == (0.999, 0.9, 0))
            assert all(math.isnan(scores[cell]) == trace.diverged
                       for scores in res.omegas.values())
        assert omega1_report(res).argmin_cols[0][2] != 0  # the diverged cell never wins its row

    def test_empty_arguments_rejected(self):
        with pytest.raises(DomainError):
            sweep_grid(make_problem("logistic"), beta_axis=[], seeds=(0,), steps=10)

    def test_quadratic_single_seed_report(self):
        # deterministic full-batch run: this configuration lands all three
        # rows on the diagonal, so N=3 and p = (1/3)^3
        res = sweep_grid(make_problem("quadratic"), seeds=(0,), steps=3000, window=200)
        rep = omega1_report(res)
        assert rep.trials == 3
        assert rep.hits == 3
        assert rep.p_value == pytest.approx(0.037037037, rel=1e-9)
