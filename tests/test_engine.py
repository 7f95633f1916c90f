"""The lockstep cell engine: a cell trained in a batch equals the cell trained alone."""

import dataclasses
import math

import numpy as np
import pytest

from scale_lab import (CellConfigs, DimensionError, DomainError, MomentState, OptimizerConfig,
                       make_problem, step_multipliers, step_scale_cells, step_scale_grid,
                       sweep_grid, train_cells)
from scale_lab.invariance import STEP_BLOCK
from scale_lab.optimizers import optimizer_step
from scale_lab.rng import CounterRng
from scale_lab.training import _INDEX_BLOCK, DEFAULT_BETA_AXIS, LOSS_EVERY

BETAS = [(0.9, 0.9), (0.9, 0.999), (0.99, 0.9), (0.999, 0.99)]


def assert_same_trace(batched, alone):
    assert batched.diverged == alone.diverged
    assert np.array_equal(batched.loss, alone.loss)
    assert np.array_equal(batched.norm_r, alone.norm_r)


class TestTrainCells:
    @pytest.mark.parametrize("bias_correction", [True, False], ids=["corrected", "raw"])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_each_cell_equals_its_one_cell_run(self, kind, bias_correction):
        prob = make_problem(kind, seed=1)
        configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=eta, epsilon=1e-6,
                                   bias_correction=bias_correction)
                   for (b1, b2), eta in zip(BETAS, (0.01, 0.003, 0.02, 0.001))]
        batched = train_cells(prob, configs, seed=4, steps=60)
        assert len(batched) == len(configs)
        for cfg, trace in zip(configs, batched):
            assert_same_trace(trace, train_cells(prob, [cfg], seed=4, steps=60)[0])

    @pytest.mark.parametrize("other", [
        OptimizerConfig(beta1=0.99, beta2=0.9, eta=0.01, epsilon=1e-6),
        OptimizerConfig(beta1=0.99, beta2=0.9, eta=0.01, bias_correction=False),
    ], ids=["epsilon", "bias-correction"])
    def test_a_batch_mixing_epsilon_or_bias_correction_is_a_domain_error(self, other):
        configs = [OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01), other]
        # the error names both (epsilon, bias_correction) pairs it got
        with pytest.raises(DomainError, match=r"got \[\(.+\), \(.+\)\]$"):
            CellConfigs(configs)
        with pytest.raises(DomainError, match="shares one"):
            train_cells(make_problem("logistic"), configs, seed=0, steps=5)

    def test_cell_diverging_at_step_one_leaves_neighbours_alone(self):
        prob = make_problem("quadratic")
        configs = [OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01),
                   OptimizerConfig(beta1=0.9, beta2=0.99, eta=1e300),
                   OptimizerConfig(beta1=0.99, beta2=0.999, eta=0.02)]
        batched = train_cells(prob, configs, seed=0, steps=200)
        alone = [train_cells(prob, [cfg], seed=0, steps=200)[0] for cfg in configs]
        healthy_left, blown, healthy_right = batched
        assert blown.diverged and blown.norm_r.size == 1
        assert not healthy_left.diverged and not healthy_right.diverged
        for b, a in zip(batched, alone):
            assert_same_trace(b, a)

    def test_cell_diverging_mid_run_matches_its_one_cell_run(self):
        # at eta = 3e151 the (0.999, 0.9) row's iterates grow until its bias-corrected v
        # overflows at step 1423 (at 3e152 it overflows at step 1)
        prob = make_problem("quadratic")
        configs = [OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01),
                   OptimizerConfig(beta1=0.999, beta2=0.9, eta=3e151),
                   OptimizerConfig(beta1=0.99, beta2=0.999, eta=0.02)]
        batched = train_cells(prob, configs, seed=0, steps=2000)
        alone = [train_cells(prob, [cfg], seed=0, steps=2000)[0] for cfg in configs]
        assert [t.diverged for t in batched] == [False, True, False]
        assert 1 < batched[1].norm_r.size < 2000
        for b, a in zip(batched, alone):
            assert_same_trace(b, a)

    def test_every_cell_diverging_ends_the_run(self):
        prob = make_problem("quadratic")
        configs = [OptimizerConfig(eta=1e300), OptimizerConfig(beta1=0.5, eta=1e300)]
        traces = train_cells(prob, configs, seed=0, steps=50)
        assert all(t.diverged and t.norm_r.size == 1 for t in traces)

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
                OptimizerConfig(beta1=0.99, beta2=0.9, eta=0.003)]
        blow = OptimizerConfig(beta1=0.999, beta2=0.9, eta=blowup)
        rows = [(calm[0], 4), (blow, 0), (calm[1], 1), (blow, 1), (calm[0], 0)]
        configs, seeds = zip(*rows)
        batched = train_cells(prob, configs, seed=seeds, steps=70)
        assert [t.diverged for t in batched] == diverged
        for (cfg, s), trace in zip(rows, batched):
            assert_same_trace(trace, train_cells(prob, [cfg], seed=s, steps=70)[0])

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_index_rows_equal_row_by_row_calls(self, kind):
        prob = make_problem(kind, seed=2)
        thetas = np.stack([prob.init_theta(s) for s in range(4)])
        idx = CounterRng(9, stream=2).integers(0, prob.n_samples, 4 * 32).reshape(4, 32)
        grads = prob.grad(thetas, idx)
        assert grads.shape == thetas.shape
        for i in range(len(thetas)):
            assert np.array_equal(grads[i], prob.grad(thetas[i:i + 1], idx[i])[0])

    def test_block_drawn_indices_equal_per_step_draws(self):
        # the run crosses two boundaries of the blocks the minibatch indices are drawn in
        prob = make_problem("logistic", seed=3)
        cfg = OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.01)
        steps = 2 * _INDEX_BLOCK + 3
        for s, trace in zip((5, 2), train_cells(prob, [cfg, cfg], seed=[5, 2], steps=steps)):
            losses, norms = serial_logistic_adam(prob, 3, cfg, seed=s, steps=steps)
            assert np.array_equal(trace.loss, losses[::LOSS_EVERY])
            assert np.array_equal(trace.norm_r, norms)

    def test_sweep_grid_equals_one_batch_per_seed(self):
        prob = make_problem("mlp", seed=1)
        seeds, axis = (2, 0, 1), DEFAULT_BETA_AXIS
        result = sweep_grid(prob, seeds=seeds, steps=60, window=10)
        pairs = [(b1, b2) for b1 in axis for b2 in axis]
        configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=prob.default_eta) for b1, b2 in pairs]
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
        configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=prob.default_eta) for b1, b2 in pairs]
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
        died = traces[1].norm_r.size
        assert died == 32
        assert rows == [(k % LOSS_EVERY == 0) + (k <= died) + 1 for k in range(40)]
        assert np.abs(traces[2].loss[1:]).min() > 1e300  # far past the bound, yet finite


def serial_adam(loss, grad, theta, cfg, seed, steps, n_samples):
    """One cell's run written out with plain 1-D numpy over ``loss(theta)`` and
    ``grad(theta, idx)``, a loss before every step: the reference the engine must equal."""
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    batches = CounterRng(seed, stream=2)
    losses, norms = [], []
    for k in range(steps):
        losses.append(loss(theta))
        g = grad(theta, batches.integers(0, n_samples, 32))
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        r = (m / (1.0 - cfg.beta1 ** (k + 1))) / (np.sqrt(v / (1.0 - cfg.beta2 ** (k + 1)))
                                                  + cfg.epsilon)
        theta = theta - cfg.eta * r
        norms.append(float(np.linalg.norm(r)))
    return np.array(losses), np.array(norms)


def serial_logistic_adam(prob, data_seed, cfg, seed, steps):
    """``serial_adam`` of the logistic loss and minibatch gradient, written out in 1-D numpy."""
    from scale_lab.problems import _make_blobs
    x, y = _make_blobs(data_seed)

    def loss(theta):
        z = x @ theta[:-1] + theta[-1]
        return float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))

    def grad(theta, idx):
        xs, ys = x[idx], y[idx]
        z = xs @ theta[:-1] + theta[-1]
        with np.errstate(over="ignore"):
            sigmoid = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        err = sigmoid - ys
        return np.append(xs.T @ err / xs.shape[0], np.mean(err))

    return serial_adam(loss, grad, prob.init_theta(seed), cfg, seed, steps, prob.n_samples)


def test_sweep_cells_equal_the_serial_reference_loop():
    prob = make_problem("logistic", seed=3)
    configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=0.01) for b1, b2 in BETAS]
    for cfg, trace in zip(configs, train_cells(prob, configs, seed=5, steps=40)):
        losses, norms = serial_logistic_adam(prob, 3, cfg, seed=5, steps=40)
        assert np.array_equal(trace.loss, losses[::LOSS_EVERY])
        assert np.array_equal(trace.norm_r, norms)


def plain_mlp_layers(theta):
    """w1, b1, w2, b2 of one mlp theta."""
    from scale_lab.problems import BLOB_FEATURES as d, MLP_HIDDEN as h
    return (theta[:d * h].reshape(d, h), theta[d * h:d * h + h],
            theta[d * h + h:-2].reshape(h, 2), theta[-2:])


def plain_mlp_loss(x, y, theta):
    """One theta's full-data mlp cross-entropy with 2-D numpy: max-shifted logits, a gather of
    each sample's own class."""
    w1, b1, w2, b2 = plain_mlp_layers(theta)
    shifted = np.tanh(x @ w1 + b1) @ w2 + b2
    shifted -= np.maximum(shifted[:, 0], shifted[:, 1])[:, None]
    log_z = np.log(np.exp(shifted[:, 0]) + np.exp(shifted[:, 1]))
    return float(-np.mean(shifted[np.arange(len(y)), y] - log_z))


def plain_mlp_grad(x, y, theta, idx):
    """One row's mlp backprop written out with 2-D numpy: a fancy-index gather, the label
    subtracted by a scatter write, the four gradients concatenated."""
    w1, b1, w2, b2 = plain_mlp_layers(theta)
    xs, ys = (x, y) if idx is None else (x[idx], y[idx])
    hidden = np.tanh(xs @ w1 + b1)
    shifted = hidden @ w2 + b2
    shifted -= np.maximum(shifted[:, 0], shifted[:, 1])[:, None]
    e = np.exp(shifted)
    dlogits = np.exp(shifted - np.log(e[:, 0] + e[:, 1])[:, None])
    dlogits[np.arange(len(xs)), ys] -= 1.0
    dlogits /= len(xs)
    dhidden = (dlogits @ w2.T) * (1.0 - hidden * hidden)
    return np.concatenate([(xs.T @ dhidden).ravel(), dhidden.sum(axis=0),
                           (hidden.T @ dlogits).ravel(), dlogits.sum(axis=0)])


def test_mlp_sweep_cells_equal_the_serial_reference_loop():
    # the bench sweep's shape, 3 seeds x the 3x3 axis = 27 rows, past the first index block
    from scale_lab.problems import _make_blobs
    x, y = _make_blobs(0)
    prob, steps = make_problem("mlp", seed=0), _INDEX_BLOCK + 8
    result = sweep_grid(prob, seeds=[0, 1, 2], steps=steps)
    assert len(result.traces) == 27
    for (b1, b2, seed), trace in result.traces.items():
        cfg = OptimizerConfig(beta1=b1, beta2=b2, eta=prob.default_eta)
        losses, norms = serial_adam(lambda theta: plain_mlp_loss(x, y, theta),
                                    lambda theta, idx: plain_mlp_grad(x, y, theta, idx),
                                    prob.init_theta(seed), cfg, seed, steps, prob.n_samples)
        assert np.array_equal(trace.loss, losses[::LOSS_EVERY]), (b1, b2, seed)
        assert np.array_equal(trace.norm_r, norms), (b1, b2, seed)


@pytest.mark.parametrize("scale", [1.0, 30.0], ids=["init", "saturated"])
@pytest.mark.parametrize("index", ["full", "shared", "per-row"])
def test_mlp_backprop_equals_the_plain_reference(scale, index):
    from scale_lab.problems import _make_blobs
    x, y = _make_blobs(4)
    prob = make_problem("mlp", seed=4)
    thetas = scale * np.stack([prob.init_theta(s) for s in range(5)])
    rng = np.random.default_rng(7)
    idx = {"full": None, "shared": rng.integers(0, prob.n_samples, 32),
           "per-row": rng.integers(0, prob.n_samples, (5, 32))}[index]
    grads = prob.grad(thetas, idx)
    for i, theta in enumerate(thetas):
        row_idx = idx[i] if index == "per-row" else idx
        assert grads[i].tobytes() == plain_mlp_grad(x, y, theta, row_idx).tobytes(), i


class TestOptimizerStepCells:
    @pytest.mark.parametrize("epsilon,bias_correction", [(1e-8, True), (1e-6, False),
                                                         (0.0, False)])
    def test_rows_equal_one_cell_steps(self, epsilon, bias_correction):
        rng = np.random.default_rng(0)
        configs = [OptimizerConfig(beta1=b1, beta2=b2, epsilon=epsilon,
                                   bias_correction=bias_correction)
                   for b1, b2 in [(0.9, 0.999), (0.5, 0.5), (0.99, 0.9)]]
        m, v = rng.standard_normal((3, 4)), rng.uniform(0.1, 1.0, (3, 4))
        g = rng.standard_normal((1, 3, 4))
        state = MomentState(np.stack((m, v)), 7)
        upd = optimizer_step(state, g, CellConfigs(configs))
        assert state.k == 8
        for i, cfg in enumerate(configs):
            one = MomentState(np.stack((m[i:i + 1], v[i:i + 1])), 7)
            r = optimizer_step(one, g[:, i:i + 1], CellConfigs([cfg]))
            assert np.array_equal(state.mv[:, i], one.mv[:, 0])
            assert one.k == state.k
            assert np.array_equal(upd[:, i], r[:, 0])

    def test_row_count_must_match(self):
        cells = CellConfigs((OptimizerConfig(), OptimizerConfig()))
        for shape in [(3, 2), (2,), (1, 2, 2)]:
            state = MomentState(np.zeros((2,) + shape))
            with pytest.raises(DimensionError, match="of 2 cells$"):
                optimizer_step(state, np.ones((1,) + shape), cells)

    def test_exact_epsilon_row_with_zero_moment_rejected(self):
        # only row 1 meets v = 0; the error changes no state
        cells = CellConfigs([OptimizerConfig(beta1=b, epsilon=0.0, bias_correction=False)
                             for b in (0.9, 0.5)])
        state = MomentState(np.array([[[0.0], [0.0]], [[1.0], [0.0]]]))
        with pytest.raises(DomainError, match="zero second-moment"):
            optimizer_step(state, np.zeros((1, 2, 1)), cells)
        assert state.k == 0 and np.array_equal(state.mv, [[[0.0], [0.0]], [[1.0], [0.0]]])


def block_streams() -> list:
    """(steps, d) streams of more than two STEP_BLOCK blocks: a jump onto each of two block
    boundaries, a geometric drift 1.001 ** k, and seeded noise about an offset, whose
    coordinates are not multiples of one base vector."""
    steps, base = 2 * STEP_BLOCK + 1, np.array([0.3, -2.0])
    ks = np.arange(steps)[:, None]
    noise = CounterRng(11).normal(3 * 2500).reshape(2500, 3) + np.array([0.5, -1.0, 2.0])
    return [pytest.param(np.where(ks >= STEP_BLOCK, 7.0, 1.0) * base, id=str(STEP_BLOCK)),
            pytest.param(np.where(ks >= 2 * STEP_BLOCK, 7.0, 1.0) * base,
                         id=str(2 * STEP_BLOCK)),
            pytest.param(1.001 ** ks * base, id="geometric"),
            pytest.param(noise, id="noise")]


class TestStepScaleCells:
    AXIS = (0.9, 0.99, 0.999)

    def test_grid_cells_equal_one_cell_runs(self):
        mults = step_multipliers([(150, 7.0), (300, 0.2)], 400)
        stream = mults[:, None] * np.array([0.3, -2.0, 5.0])
        columns = step_scale_grid(stream, self.AXIS)
        assert list(columns) == [(b1, b2) for b1 in self.AXIS for b2 in self.AXIS]
        for (b1, b2), norms in columns.items():
            cfg = OptimizerConfig(beta1=b1, beta2=b2, eta=1e-3, epsilon=0.0,
                                  bias_correction=False)
            alone = step_scale_cells(stream, [cfg])
            assert alone.shape == (400, 1)
            assert np.array_equal(norms, alone[:, 0])

    @pytest.mark.parametrize("epsilon,bias_correction", [(0.0, False), (1e-8, True)],
                             ids=["raw", "corrected"])
    @pytest.mark.parametrize("stream", block_streams())
    def test_blocks_equal_one_block_per_cell(self, stream, epsilon, bias_correction):
        # the stream runs in blocks of STEP_BLOCK steps, each block a broadcast view per cell;
        # a cell fed the whole stream as one (steps, 1, d) block must see the same norms
        configs = [OptimizerConfig(beta1=b1, beta2=b2, epsilon=epsilon,
                                   bias_correction=bias_correction)
                   for b1, b2 in [(0.9, 0.99), (0.99, 0.9)]]
        norms = step_scale_cells(stream, configs)
        assert norms.shape == (len(stream), len(configs))
        for i, cfg in enumerate(configs):
            state = MomentState(np.stack((stream[:1], stream[:1] * stream[:1])))
            r = optimizer_step(state, stream[:, None], CellConfigs([cfg]))
            assert np.array_equal(norms[:, i], [np.linalg.norm(row) for row in r[:, 0]])

    def test_empty_grid_gives_no_traces(self):
        assert step_scale_grid(step_multipliers([(5, 2.0)], 10)[:, None], []) == {}

    @pytest.mark.parametrize("stream,error", [
        (np.empty((0, 1)), "non-empty"), (np.array([]), "non-empty"),
        (np.array([1.0, 2.0]), "non-empty"), (np.ones((2, 2, 1)), "non-empty"),
        (np.array([[1.0], [np.nan]]), r"step 1, coordinate 0: \|g\| = nan is not finite"),
        (np.array([[1.0, 2.0], [3.0, -np.inf]]),
         r"step 1, coordinate 1: \|g\| = inf is not finite"),
        (np.array([[1.0, -2.0 ** 511]]),
         r"step 0, coordinate 1: \|g\| = 6\.7\d*e\+153 is not finite or at least 2\*\*511"),
    ], ids=["empty", "empty-1-d", "1-d", "3-d", "nan", "inf", "2**511"])
    def test_stream_must_be_a_nonempty_2d_array_of_finite_gradients(self, stream, error):
        # zero and negative multipliers are rejected where multipliers are built:
        # step_multipliers and the CLI's --multiplier flag
        with pytest.raises(DomainError, match=error):
            step_scale_cells(stream, [OptimizerConfig()])


class TestNoWorkspaceAliasing:
    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_returned_arrays_survive_later_calls(self, kind):
        prob = make_problem(kind)
        t1 = np.stack([prob.init_theta(s) for s in (0, 1, 2)])
        t2 = np.stack([prob.init_theta(s) for s in (3, 4, 5)])
        idx = np.arange(32) if prob.n_samples else None
        loss1, grad1, full1 = prob.loss(t1), prob.grad(t1, idx), prob.grad(t1)
        one = prob.grad(t1[:1], idx)
        saved = [a.copy() for a in (loss1, grad1, full1, one)]
        prob.loss(t2), prob.grad(t2, idx), prob.grad(t2), prob.grad(t2[:1], idx)
        for kept, now in zip(saved, (loss1, grad1, full1, one)):
            assert np.array_equal(kept, now)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_stacked_rows_equal_single_calls(self, kind):
        prob = make_problem(kind, seed=2)
        thetas = np.stack([prob.init_theta(s) for s in range(4)])
        idx = np.arange(5, 37) if prob.n_samples else None
        losses, grads = prob.loss(thetas), prob.grad(thetas, idx)
        assert losses.shape == (4,) and grads.shape == thetas.shape
        for i in range(len(thetas)):
            assert losses[i] == prob.loss(thetas[i:i + 1])[0]
            assert np.array_equal(grads[i], prob.grad(thetas[i:i + 1], idx)[0])
