"""The lockstep cell engine: a cell trained in a batch equals the cell trained alone."""

import dataclasses
import math

import numpy as np
import pytest

from scale_lab import (CellConfigs, DimensionError, DomainError, MomentState, OptimizerConfig,
                       adam_step, make_problem, step_multipliers, step_scale_cells,
                       step_scale_grid, sweep_grid, train_cells, zero_state)
from scale_lab.invariance import STEP_BLOCK
from scale_lab.rng import CounterRng
from scale_lab.training import _INDEX_BLOCK, DEFAULT_BETA_AXIS, DEFAULT_ETA, LOSS_EVERY

BETAS = [(0.9, 0.9), (0.9, 0.999), (0.99, 0.9), (0.999, 0.99)]


def assert_same_trace(batched, alone):
    assert batched.diverged == alone.diverged
    assert batched.config == alone.config
    assert np.array_equal(batched.k, alone.k)
    assert np.array_equal(batched.loss, alone.loss)
    assert np.array_equal(batched.norm_r, alone.norm_r)


class TestTrainCells:
    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_each_cell_equals_its_one_cell_run(self, kind):
        prob = make_problem(kind, seed=1)
        configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=eta, epsilon=eps)
                   for (b1, b2), eta, eps in zip(BETAS, (0.01, 0.003, 0.02, 0.001),
                                                 (1e-8, 1e-6, 1e-8, 1e-10))]
        batched = train_cells(prob, configs, seed=4, steps=60)
        assert len(batched) == len(configs)
        for cfg, trace in zip(configs, batched):
            assert_same_trace(trace, train_cells(prob, [cfg], seed=4, steps=60)[0])

    def test_mixed_bias_correction_rows(self):
        prob = make_problem("logistic")
        configs = [OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01),
                   OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01, bias_correction=False),
                   OptimizerConfig(beta1=0.99, beta2=0.9, eta=0.01)]
        for cfg, trace in zip(configs, train_cells(prob, configs, seed=0, steps=50)):
            assert_same_trace(trace, train_cells(prob, [cfg], seed=0, steps=50)[0])

    def test_cell_diverging_at_step_one_leaves_neighbours_alone(self):
        prob = make_problem("quadratic")
        configs = [OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01),
                   OptimizerConfig(beta1=0.9, beta2=0.99, eta=1e300),
                   OptimizerConfig(beta1=0.99, beta2=0.999, eta=0.02)]
        batched = train_cells(prob, configs, seed=0, steps=200)
        alone = [train_cells(prob, [cfg], seed=0, steps=200)[0] for cfg in configs]
        healthy_left, blown, healthy_right = batched
        assert blown.diverged and blown.k.size == 1
        assert not healthy_left.diverged and not healthy_right.diverged
        for b, a in zip(batched, alone):
            assert_same_trace(b, a)

    def test_cell_diverging_mid_run_matches_its_one_cell_run(self):
        # at eta = 3e152 the (0.999, 0.9) row's iterates grow until they overflow at step 449
        prob = make_problem("quadratic")
        configs = [OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01),
                   OptimizerConfig(beta1=0.999, beta2=0.9, eta=3e152),
                   OptimizerConfig(beta1=0.99, beta2=0.999, eta=0.02)]
        batched = train_cells(prob, configs, seed=0, steps=2000)
        alone = [train_cells(prob, [cfg], seed=0, steps=2000)[0] for cfg in configs]
        assert [t.diverged for t in batched] == [False, True, False]
        assert 1 < batched[1].k.size < 2000
        for b, a in zip(batched, alone):
            assert_same_trace(b, a)

    def test_every_cell_diverging_ends_the_run(self):
        prob = make_problem("quadratic")
        configs = [OptimizerConfig(eta=1e300), OptimizerConfig(beta1=0.5, eta=1e300)]
        traces = train_cells(prob, configs, seed=0, steps=50)
        assert all(t.diverged and t.k.size == 1 for t in traces)

    def test_dead_exact_epsilon_row_never_trips_the_zero_moment_check(self):
        # the blown row keeps stepping in place after it diverges at step 1
        prob = make_problem("quadratic")
        configs = [OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01, epsilon=0.0),
                   OptimizerConfig(beta1=0.9, beta2=0.99, eta=1e300, epsilon=0.0),
                   OptimizerConfig(beta1=0.99, beta2=0.999, eta=0.02, epsilon=0.0)]
        batched = train_cells(prob, configs, seed=0, steps=300)
        assert [t.diverged for t in batched] == [False, True, False]
        for cfg, b in zip(configs, batched):
            assert_same_trace(b, train_cells(prob, [cfg], seed=0, steps=300)[0])


class TestMixedSeedRows:
    @pytest.mark.parametrize("kind,blowup,diverged", [
        ("quadratic", 1e300, [False, True, False, True, False]),
        # at these rates the (0.999, 0.9) cell overflows in seed 0 but not in seed 1
        ("logistic", 2e305, [False, True, False, False, False]),
        ("mlp", 1e305, [False, True, False, False, False]),
    ])
    def test_each_row_equals_its_one_cell_run(self, kind, blowup, diverged):
        prob = make_problem(kind, seed=1)
        calm = [OptimizerConfig(beta1=0.9, beta2=0.999, eta=0.01),
                OptimizerConfig(beta1=0.99, beta2=0.9, eta=0.003, epsilon=1e-6)]
        blow = OptimizerConfig(beta1=0.999, beta2=0.9, eta=blowup)
        rows = [(calm[0], 4), (blow, 0), (calm[1], 1), (blow, 1), (calm[0], 0)]
        configs, seeds = zip(*rows)
        batched = train_cells(prob, configs, seed=seeds, steps=70)
        assert [t.diverged for t in batched] == diverged
        assert [t.seed for t in batched] == list(seeds)
        for (cfg, s), trace in zip(rows, batched):
            assert_same_trace(trace, train_cells(prob, [cfg], seed=s, steps=70)[0])

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_index_rows_equal_row_by_row_calls(self, kind):
        prob = make_problem(kind, seed=2)
        thetas = np.stack([prob.init_theta(s) for s in range(4)])
        idx = CounterRng(9, stream=2).integers(0, prob.n_samples, 4 * 32).reshape(4, 32)
        grads = prob.grad(thetas, idx)
        assert grads.shape == thetas.shape
        for i, theta in enumerate(thetas):
            assert np.array_equal(grads[i], prob.grad(theta, idx[i]))

    def test_block_drawn_indices_equal_per_step_draws(self):
        # the run crosses two boundaries of the blocks the minibatch indices are drawn in
        prob = make_problem("logistic", seed=3)
        cfg = OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01)
        steps = 2 * _INDEX_BLOCK + 3
        for s, trace in zip((5, 2), train_cells(prob, [cfg, cfg], seed=[5, 2], steps=steps)):
            losses, norms = serial_logistic_adam(prob, cfg, seed=s, steps=steps)
            assert np.array_equal(trace.loss, losses[::LOSS_EVERY])
            assert np.array_equal(trace.norm_r, norms)

    def test_sweep_grid_equals_one_batch_per_seed(self):
        prob = make_problem("mlp", seed=1)
        seeds, axis = (2, 0, 1), DEFAULT_BETA_AXIS
        result = sweep_grid(prob, seeds=seeds, steps=60, window=10)
        pairs = [(b1, b2) for b1 in axis for b2 in axis]
        configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=DEFAULT_ETA["mlp"]) for b1, b2 in pairs]
        assert list(result.traces) == [(b1, b2, s) for s in seeds for b1, b2 in pairs]
        for s in seeds:
            for (b1, b2), alone in zip(pairs, train_cells(prob, configs, seed=s, steps=60)):
                assert_same_trace(result.traces[(b1, b2, s)], alone)

    def test_seed_count_must_match_the_rows(self):
        with pytest.raises(DimensionError):
            train_cells(make_problem("quadratic"), [OptimizerConfig()] * 2, seed=[0, 1, 2],
                        steps=5)


def counting_loss(prob):
    """``prob`` with its loss wrapped to log the row count of every call, and that log."""
    rows = []

    def loss(thetas):
        rows.append(len(thetas))
        return prob.loss(thetas)

    return dataclasses.replace(prob, loss=loss), rows


class TestLossCadence:
    def test_healthy_batch_evaluates_the_loss_only_on_the_cadence(self):
        prob, rows = counting_loss(make_problem("mlp", seed=1))
        pairs = [(b1, b2) for b1 in DEFAULT_BETA_AXIS for b2 in DEFAULT_BETA_AXIS]
        configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=DEFAULT_ETA["mlp"]) for b1, b2 in pairs]
        traces = train_cells(prob, configs * 3, seed=[s for s in (2, 0, 1) for _ in pairs],
                             steps=35)
        # one call per seed group of 9 rows, on steps 0, 10, 20 and 30
        assert rows == [len(pairs)] * (3 * math.ceil(35 / LOSS_EVERY))
        assert all(t.loss.size == math.ceil(35 / LOSS_EVERY) for t in traces)

    def test_rows_past_the_bound_are_evaluated_every_step(self):
        # both 2e305 rows leave the bound at step 1; the (0.999, 0.9) one dies at step 32
        prob, rows = counting_loss(make_problem("logistic"))
        calm = OptimizerConfig(beta1=0.9, beta2=0.999, eta=0.01)
        blow = OptimizerConfig(beta1=0.999, beta2=0.9, eta=2e305)
        far = OptimizerConfig(beta1=0.9, beta2=0.9, eta=2e305)
        traces = train_cells(prob, [calm, blow, far], seed=0, steps=40)
        assert [t.diverged for t in traces] == [False, True, False]
        died = traces[1].k.size
        assert died == 32
        assert rows == [(k % LOSS_EVERY == 0) + (k <= died) + 1 for k in range(40)]
        assert np.abs(traces[2].loss[1:]).min() > 1e300  # far past the bound, yet finite


def serial_logistic_adam(prob, cfg, seed, steps):
    """The one-cell loop written out with plain 1-D numpy: the reference the engine must equal."""
    from scale_lab.problems import _make_blobs
    from scale_lab.rng import CounterRng
    x, y = _make_blobs(prob.meta["seed"])
    theta = prob.init_theta(seed)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    batches = CounterRng(seed, stream=2)
    losses, norms = [], []
    for k in range(steps):
        z = x @ theta[:-1] + theta[-1]
        losses.append(float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z)))
        idx = batches.integers(0, prob.n_samples, 32)
        xs, ys = x[idx], y[idx]
        z = xs @ theta[:-1] + theta[-1]
        with np.errstate(over="ignore"):
            sigmoid = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        err = sigmoid - ys
        g = np.append(xs.T @ err / xs.shape[0], np.mean(err))
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        r = (m / (1.0 - cfg.beta1 ** (k + 1))) / (np.sqrt(v / (1.0 - cfg.beta2 ** (k + 1)))
                                                  + cfg.epsilon)
        theta = theta - cfg.eta * r
        norms.append(float(np.linalg.norm(r)))
    return np.array(losses), np.array(norms)


def test_sweep_cells_equal_the_serial_reference_loop():
    prob = make_problem("logistic", seed=3)
    configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=0.01) for b1, b2 in BETAS]
    for cfg, trace in zip(configs, train_cells(prob, configs, seed=5, steps=40)):
        losses, norms = serial_logistic_adam(prob, cfg, seed=5, steps=40)
        assert np.array_equal(trace.loss, losses[::LOSS_EVERY])
        assert np.array_equal(trace.norm_r, norms)


class TestAdamStepCells:
    def test_rows_equal_one_cell_steps(self):
        rng = np.random.default_rng(0)
        configs = [OptimizerConfig(beta1=0.9, beta2=0.999, eta=0.1),
                   OptimizerConfig(beta1=0.5, beta2=0.5, epsilon=0.0, bias_correction=False),
                   OptimizerConfig(beta1=0.99, beta2=0.9, eta=0.3)]
        state = MomentState(m=rng.standard_normal((3, 4)), v=rng.uniform(0.1, 1.0, (3, 4)),
                            theta=rng.standard_normal((3, 4)), k=7)
        g = rng.standard_normal((3, 4))
        new, upd = adam_step(state, g, CellConfigs(tuple(configs)))
        assert new.k == 8
        for i, cfg in enumerate(configs):
            one, r = adam_step(MomentState(state.m[i], state.v[i], state.theta[i], state.k),
                               g[i], cfg)
            assert np.array_equal(new.m[i], one.m)
            assert np.array_equal(new.v[i], one.v)
            assert np.array_equal(new.theta[i], one.theta)
            assert np.array_equal(upd[i], r)

    def test_row_count_must_match(self):
        cells = CellConfigs((OptimizerConfig(), OptimizerConfig()))
        state = MomentState(m=np.zeros((3, 2)), v=np.zeros((3, 2)), theta=np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            adam_step(state, np.ones((3, 2)), cells)

    def test_exact_epsilon_row_with_zero_moment_rejected(self):
        cells = CellConfigs((OptimizerConfig(),
                             OptimizerConfig(epsilon=0.0, bias_correction=False)))
        state = MomentState(m=np.zeros((2, 1)), v=np.zeros((2, 1)), theta=np.zeros((2, 1)))
        with pytest.raises(DomainError):
            adam_step(state, np.zeros((2, 1)), cells)


class TestStepScaleCells:
    AXIS = (0.9, 0.99, 0.999)

    @pytest.mark.parametrize("init", ["steady", "zero"])
    def test_grid_cells_equal_one_cell_runs(self, init):
        base, mults = np.array([0.3, -2.0, 5.0]), step_multipliers([(150, 7.0), (300, 0.2)], 400)
        traces = step_scale_grid(base, mults, self.AXIS, init=init)
        assert list(traces) == [(b1, b2) for b1 in self.AXIS for b2 in self.AXIS]
        for (b1, b2), tr in traces.items():
            cfg = OptimizerConfig(beta1=b1, beta2=b2, eta=1e-3, epsilon=0.0,
                                  bias_correction=False)
            alone = step_scale_cells(base, mults, [cfg], init=init)[0]
            assert np.array_equal(tr.norm_r, alone.norm_r)
            assert np.array_equal(tr.multiplier, alone.multiplier)
            assert (tr.beta1, tr.beta2) == (b1, b2)

    @pytest.mark.parametrize("init", ["steady", "zero"])
    @pytest.mark.parametrize("jump", [STEP_BLOCK, 2 * STEP_BLOCK,
                                      pytest.param(None, id="geometric")])
    def test_blocks_equal_a_per_step_adam_loop(self, init, jump):
        # the stream runs in blocks of STEP_BLOCK steps; the jump lands on a block boundary,
        # and with no jump the gradient drifts geometrically, 1.001 ** k
        steps, base = 2 * STEP_BLOCK + 1, np.array([0.3, -2.0])
        ks = np.arange(steps)
        mults = 1.001 ** ks if jump is None else np.where(ks >= jump, 7.0, 1.0)
        configs = [OptimizerConfig(beta1=0.9, beta2=0.99, epsilon=0.0, bias_correction=False),
                   OptimizerConfig(beta1=0.99, beta2=0.9, eta=0.01)]
        for cfg, trace in zip(configs, step_scale_cells(base, mults, configs, init=init)):
            state = (MomentState(m=base.copy(), v=base * base, theta=np.zeros(2))
                     if init == "steady" else zero_state(2))
            norms = []
            for k in range(steps):
                state, upd = adam_step(state, base * mults[k], cfg)
                norms.append(float(np.linalg.norm(upd)))
            assert np.array_equal(trace.norm_r, norms)

    def test_empty_grid_gives_no_traces(self):
        assert step_scale_grid(np.ones(1), step_multipliers([(5, 2.0)], 10), []) == {}

    @pytest.mark.parametrize("mults", [[], [[1.0, 2.0]], [1.0, 0.0], [1.0, -2.0], [1.0, np.nan]],
                             ids=["empty", "2-d", "zero", "negative", "nan"])
    def test_multiplier_array_must_be_1d_nonempty_and_positive(self, mults):
        with pytest.raises(DomainError):
            step_scale_cells(np.ones(1), np.array(mults), [OptimizerConfig()])


class TestNoWorkspaceAliasing:
    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_returned_arrays_survive_later_calls(self, kind):
        prob = make_problem(kind)
        t1 = np.stack([prob.init_theta(s) for s in (0, 1, 2)])
        t2 = np.stack([prob.init_theta(s) for s in (3, 4, 5)])
        idx = np.arange(32) if prob.n_samples else None
        loss1, grad1, full1 = prob.loss(t1), prob.grad(t1, idx), prob.grad(t1)
        one = prob.grad(t1[0], idx)
        saved = [a.copy() for a in (loss1, grad1, full1, one)]
        prob.loss(t2), prob.grad(t2, idx), prob.grad(t2), prob.grad(t2[0], idx)
        for kept, now in zip(saved, (loss1, grad1, full1, one)):
            assert np.array_equal(kept, now)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_stacked_rows_equal_single_calls(self, kind):
        prob = make_problem(kind, seed=2)
        thetas = np.stack([prob.init_theta(s) for s in range(4)])
        idx = np.arange(5, 37) if prob.n_samples else None
        losses, grads = prob.loss(thetas), prob.grad(thetas, idx)
        assert losses.shape == (4,) and grads.shape == thetas.shape
        for i, theta in enumerate(thetas):
            assert losses[i] == prob.loss(theta)
            assert np.array_equal(grads[i], prob.grad(theta, idx))
