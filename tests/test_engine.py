"""The lockstep cell engine: a cell trained in a batch equals the cell trained alone."""

import dataclasses
import math

import numpy as np
import pytest

from scale_lab import (CellConfigs, DomainError, MomentState, make_problem, start_point,
                       step_scale_cells, sweep_grid, train_cells)
from scale_lab.invariance import STEP_BLOCK
from scale_lab.optimizers import optimizer_step
from scale_lab.problems import PROBLEMS
from scale_lab.rng import CounterRng
from scale_lab.training import _INDEX_BLOCK, DEFAULT_BETA_AXIS, LOSS_EVERY

BETAS = [(0.9, 0.9), (0.9, 0.999), (0.99, 0.9), (0.999, 0.99)]


def train_rows(prob, rows, point, steps, **shared):
    """``train_cells`` from ``point`` of (beta1, beta2, eta) rows, each a ``CellConfigs`` row
    at its own learning rate; ``shared`` is the batch's epsilon and bias correction."""
    cells = CellConfigs([(b1, b2) for b1, b2, _ in rows], **shared)
    return train_cells(prob, cells, point, steps, [eta for *_, eta in rows])


def assert_same_trace(batched, alone):
    assert batched.diverged == alone.diverged
    assert np.array_equal(batched.loss, alone.loss)
    assert np.array_equal(batched.norm_r, alone.norm_r)


class TestTrainCells:
    @pytest.mark.parametrize("bias_correction", [True, False], ids=["corrected", "raw"])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_each_cell_equals_its_one_cell_run(self, kind, bias_correction):
        prob = make_problem(kind, seed=1)
        rows = [(b1, b2, eta) for (b1, b2), eta in zip(BETAS, (0.01, 0.003, 0.02, 0.001))]
        shared = dict(epsilon=1e-6, bias_correction=bias_correction)
        batched = train_rows(prob, rows, start_point(prob, [4] * 4), 60, **shared)
        assert len(batched) == len(rows)
        for row, trace in zip(rows, batched):
            alone = train_rows(prob, [row], start_point(prob, [4]), 60, **shared)[0]
            assert_same_trace(trace, alone)

    def test_cell_diverging_at_step_one_leaves_neighbours_alone(self):
        prob = make_problem("quadratic")
        rows = [(0.9, 0.99, 0.01), (0.9, 0.99, 1e300), (0.99, 0.999, 0.02)]
        batched = train_rows(prob, rows, start_point(prob, [0] * 3), 200)
        alone = [train_rows(prob, [row], start_point(prob, [0]), 200)[0] for row in rows]
        healthy_left, blown, healthy_right = batched
        assert blown.diverged and blown.norm_r.size == 1
        assert not healthy_left.diverged and not healthy_right.diverged
        for b, a in zip(batched, alone):
            assert_same_trace(b, a)

    def test_cell_diverging_mid_run_matches_its_one_cell_run(self):
        # at eta = 3e151 the (0.999, 0.9) row's iterates grow until its bias-corrected v
        # overflows at step 1423 (at 3e152 it overflows at step 1)
        prob = make_problem("quadratic")
        rows = [(0.9, 0.99, 0.01), (0.999, 0.9, 3e151), (0.99, 0.999, 0.02)]
        batched = train_rows(prob, rows, start_point(prob, [0] * 3), 2000)
        alone = [train_rows(prob, [row], start_point(prob, [0]), 2000)[0] for row in rows]
        assert [t.diverged for t in batched] == [False, True, False]
        assert 1 < batched[1].norm_r.size < 2000
        for b, a in zip(batched, alone):
            assert_same_trace(b, a)

    def test_every_cell_diverging_ends_the_run(self):
        prob = make_problem("quadratic")
        rows = [(0.9, 0.999, 1e300), (0.5, 0.999, 1e300)]
        traces = train_rows(prob, rows, start_point(prob, [0, 0]), 50)
        assert all(t.diverged and t.norm_r.size == 1 for t in traces)

    def test_dead_exact_epsilon_row_never_trips_the_zero_moment_check(self):
        # the blown row keeps stepping in place after it diverges at step 1
        prob = make_problem("quadratic")
        rows = [(0.9, 0.99, 0.01), (0.9, 0.99, 1e300), (0.99, 0.999, 0.02)]
        batched = train_rows(prob, rows, start_point(prob, [0] * 3), 300, epsilon=0.0)
        assert [t.diverged for t in batched] == [False, True, False]
        for row, b in zip(rows, batched):
            assert_same_trace(b, train_rows(prob, [row], start_point(prob, [0]), 300,
                                            epsilon=0.0)[0])


class TestMixedSeedRows:
    @pytest.mark.parametrize("kind,blowup,diverged", [
        ("quadratic", 1e300, [False, True, False, True, False]),
        # at these rates the (0.999, 0.9) cell overflows in seed 0 but not in seed 1
        ("logistic", 2e305, [False, True, False, False, False]),
        ("mlp", 1e305, [False, True, False, False, False]),
    ])
    def test_each_row_equals_its_one_cell_run(self, kind, blowup, diverged):
        prob = make_problem(kind, seed=1)
        calm = [(0.9, 0.999, 0.01), (0.99, 0.9, 0.003)]
        blow = (0.999, 0.9, blowup)
        rows = [(calm[0], 4), (blow, 0), (calm[1], 1), (blow, 1), (calm[0], 0)]
        cell_rows, seeds = zip(*rows)
        batched = train_rows(prob, cell_rows, start_point(prob, seeds), 70)
        assert [t.diverged for t in batched] == diverged
        for (cfg, s), trace in zip(rows, batched):
            assert_same_trace(trace, train_rows(prob, [cfg], start_point(prob, [s]), 70)[0])

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
        cfg = (0.9, 0.99, 0.01)
        steps = 2 * _INDEX_BLOCK + 3
        traces = train_rows(prob, [cfg, cfg], start_point(prob, [5, 2]), steps)
        for s, trace in zip((5, 2), traces):
            losses, norms = serial_logistic_adam(prob, 3, cfg, seed=s, steps=steps)
            assert np.array_equal(trace.loss, losses[::LOSS_EVERY])
            assert np.array_equal(trace.norm_r, norms)

    def test_sweep_grid_equals_one_batch_per_seed(self):
        prob = make_problem("mlp", seed=1)
        seeds, axis = (2, 0, 1), DEFAULT_BETA_AXIS
        result = sweep_grid(prob, seeds=seeds, steps=60, window=10)
        pairs = [(b1, b2) for b1 in axis for b2 in axis]
        assert list(result.traces) == [(b1, b2, s) for s in seeds for b1, b2 in pairs]
        for s in seeds:
            alone_cells = train_cells(prob, CellConfigs(pairs), start_point(prob, [s] * 9),
                                      steps=60, eta=prob.default_eta)
            for (b1, b2), alone in zip(pairs, alone_cells):
                assert_same_trace(result.traces[(b1, b2, s)], alone)

    @pytest.mark.parametrize("kw,message", [
        (dict(seeds=[0, 0]), "the seed list repeats 0$"),
        (dict(seeds=[0], beta_axis=[0.9, 0.99, 0.9]), "the beta axis repeats 0.9$"),
    ], ids=["seed", "beta"])
    def test_repeated_seed_or_beta_is_refused_before_training(self, kw, message):
        # a repeated seed or beta would count one run as two: seeds [0, 0] train 18 rows for 9
        # traces, and scoring them reads K=2 N=6 where seed 0 alone reads K=1 N=3
        def untouchable(*args):
            raise AssertionError("the problem was evaluated")
        prob = dataclasses.replace(make_problem("logistic"), loss=untouchable, grad=untouchable,
                                   init_theta=untouchable)
        with pytest.raises(DomainError, match=message):
            sweep_grid(prob, steps=50, window=5, **kw)

    def test_seed_count_must_match_the_rows(self):
        with pytest.raises(DomainError):
            prob = make_problem("quadratic")
            train_cells(prob, CellConfigs([(0.9, 0.999)] * 2), start_point(prob, [0, 1, 2]),
                        steps=5, eta=1e-3)

    def test_eta_count_must_match_the_rows(self):
        # one rate for every row, or one per row
        prob = make_problem("quadratic")
        with pytest.raises(DomainError, match="3 eta values for 2 config rows"):
            train_cells(prob, CellConfigs([(0.9, 0.999)] * 2), start_point(prob, [0, 1]),
                        steps=5, eta=[1e-3] * 3)
        one, per_row = (train_cells(prob, CellConfigs([(0.9, 0.999)] * 2),
                                    start_point(prob, [0, 1]), steps=5, eta=eta)
                        for eta in (1e-3, [1e-3, 1e-3]))
        for a, b in zip(one, per_row):
            assert_same_trace(a, b)

    @pytest.mark.parametrize("call,message", [
        (lambda prob: sweep_grid(prob, seeds=[0, 1, 2], steps=2000, window=0),
         "window must be >= 1, got 0"),
        (lambda prob: sweep_grid(prob, seeds=[0], steps=5, batch_size=0),
         "batch_size must be >= 1, got 5 and 0"),
        (lambda prob: train_cells(prob, CellConfigs([(0.9, 0.999)]), start_point(prob, [0]),
                                  steps=5, eta=1e-3, batch_size=0),
         "batch_size must be >= 1, got 5 and 0"),
    ], ids=["sweep-window", "sweep-batch-size", "train-batch-size"])
    def test_bad_window_or_batch_size_is_refused_before_training(self, call, message):
        # the window used to be refused only after every cell had trained, and a zero batch
        # ended in numpy's reshape error
        def untouchable(*args):
            raise AssertionError("the problem was evaluated")
        prob = dataclasses.replace(make_problem("mlp"), loss=untouchable, grad=untouchable)
        with pytest.raises(DomainError, match=message):
            call(prob)


# per problem, (eta, beta1, beta2, seed) of a row that diverges before step 73 and of one that
# diverges after step 137 of a 300-step run
SPLIT_ROWS = {"quadratic": ((1e300, 0.9, 0.99, 1), (1.6e152, 0.999, 0.9, 0)),
              "logistic": ((2.5e305, 0.99, 0.9, 1), (1.6e305, 0.999, 0.9, 0)),
              "mlp": ((5.6e304, 0.99, 0.9, 1), (1e304, 0.999, 0.9, 0))}


class TestContinuedRun:
    @pytest.mark.parametrize("j", [1, 73, 137])
    @pytest.mark.parametrize("kind", list(PROBLEMS))
    def test_split_run_equals_one_run(self, kind, j):
        # j is a multiple of neither LOSS_EVERY nor _INDEX_BLOCK: the continuation starts off
        # the loss cadence and inside an index block
        prob, n = make_problem(kind), 300
        calm = [(0.9, 0.999, prob.default_eta), (0.99, 0.9, prob.default_eta)]
        blow = [(b1, b2, eta) for eta, b1, b2, _ in SPLIT_ROWS[kind]]
        seeds = [0, 1] + [s for *_, s in SPLIT_ROWS[kind]]
        one = start_point(prob, seeds)
        whole = train_rows(prob, calm + blow, one, n)
        assert [t.diverged for t in whole] == [False, False, True, True]
        assert whole[2].norm_r.size < 73 and whole[3].norm_r.size > 137
        split = start_point(prob, seeds)
        head = train_rows(prob, calm + blow, split, j)
        assert split.state.k == j
        tail = train_rows(prob, calm + blow, split, n - j)
        for w, h, t in zip(whole, head, tail):
            assert np.array_equal(w.loss, np.concatenate([h.loss, t.loss]))
            assert np.array_equal(w.norm_r, np.concatenate([h.norm_r, t.norm_r]))
            assert w.diverged == t.diverged
        if j > whole[2].norm_r.size:  # dead at the split: an empty, diverged continuation
            assert tail[2].diverged and tail[2].norm_r.size == tail[2].loss.size == 0
        assert split.state.k == one.state.k == n
        assert split.theta.tobytes() == one.theta.tobytes()
        assert split.state.mv.tobytes() == one.state.mv.tobytes()
        assert list(split.alive) == list(one.alive) == [True, True, False, False]

    def test_point_without_seeds_is_a_domain_error(self):
        # named by the program, not left to numpy's "need at least one array to stack"
        with pytest.raises(DomainError, match="at least one seed"):
            start_point(make_problem("quadratic"), [])

    def test_point_whose_rows_all_died_takes_no_step(self):
        prob = make_problem("quadratic")
        rows = [(0.9, 0.999, 1e300), (0.5, 0.999, 1e300)]
        point = start_point(prob, [0, 1])
        train_rows(prob, rows, point, 50)
        theta, mv = point.theta.copy(), point.state.mv.copy()
        assert point.state.k == 2 and not point.alive.any()
        traces = train_rows(prob, rows, point, 50)
        assert all(t.diverged and t.norm_r.size == t.loss.size == 0 for t in traces)
        assert point.state.k == 2
        assert point.theta.tobytes() == theta.tobytes() and point.state.mv.tobytes() == mv.tobytes()

    def test_fresh_point_is_advanced_in_place(self):
        prob = make_problem("logistic")
        point = start_point(prob, [3, 3])
        theta, mv = point.theta, point.state.mv
        assert point.state.k == 0 and not mv.any() and point.alive.all()
        assert np.array_equal(theta, np.stack([prob.init_theta(3)] * 2))
        train_cells(prob, CellConfigs([(0.9, 0.999), (0.5, 0.999)]), point, 5, 1e-3)
        assert point.theta is theta and point.state.mv is mv and point.state.k == 5


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
        point = start_point(prob, [s for s in (2, 0, 1) for _ in pairs])
        traces = train_cells(prob, CellConfigs(pairs * 3), point, steps=35, eta=prob.default_eta)
        # one call per seed group of 9 rows, on steps 0, 10, 20 and 30
        assert rows == [len(pairs)] * (3 * math.ceil(35 / LOSS_EVERY))
        assert all(t.loss.size == math.ceil(35 / LOSS_EVERY) for t in traces)

    def test_rows_past_the_bound_are_evaluated_every_step(self):
        # both 2e305 rows leave the bound at step 1; the (0.999, 0.9) one dies at step 32
        prob, rows = counting_loss(make_problem("logistic"))
        calm, blow, far = (0.9, 0.999, 0.01), (0.999, 0.9, 2e305), (0.9, 0.9, 2e305)
        traces = train_rows(prob, [calm, blow, far], start_point(prob, [0] * 3), 40)
        assert [t.diverged for t in traces] == [False, True, False]
        died = traces[1].norm_r.size
        assert died == 32
        assert rows == [(k % LOSS_EVERY == 0) + (k <= died) + 1 for k in range(40)]
        assert np.abs(traces[2].loss[1:]).min() > 1e300  # far past the bound, yet finite


def serial_adam(loss, grad, theta, cfg, seed, steps, n_samples):
    """One cell's run at ``cfg = (beta1, beta2, eta)`` with the default epsilon 1e-8, written
    out with plain 1-D numpy over ``loss(theta)`` and ``grad(theta, idx)``, a loss before every
    step: the reference the engine must equal."""
    b1, b2, eta = cfg
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    batches = CounterRng(seed, stream=2)
    losses, norms = [], []
    for k in range(steps):
        losses.append(loss(theta))
        g = grad(theta, batches.integers(0, n_samples, 32))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        r = (m / (1.0 - b1 ** (k + 1))) / (np.sqrt(v / (1.0 - b2 ** (k + 1))) + 1e-8)
        theta = theta - eta * r
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
    rows = [(b1, b2, 0.01) for b1, b2 in BETAS]
    traces = train_rows(prob, rows, start_point(prob, [5] * 4), 40)
    for cfg, trace in zip(rows, traces):
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
        cfg = (b1, b2, prob.default_eta)
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
        pairs = [(0.9, 0.999), (0.5, 0.5), (0.99, 0.9)]
        m, v = rng.standard_normal((3, 4)), rng.uniform(0.1, 1.0, (3, 4))
        g = rng.standard_normal((1, 3, 4))
        state = MomentState(np.stack((m, v)), 7)
        upd = optimizer_step(state, g, CellConfigs(pairs, epsilon, bias_correction))
        assert state.k == 8
        for i, pair in enumerate(pairs):
            one = MomentState(np.stack((m[i:i + 1], v[i:i + 1])), 7)
            r = optimizer_step(one, g[:, i:i + 1], CellConfigs([pair], epsilon, bias_correction))
            assert np.array_equal(state.mv[:, i], one.mv[:, 0])
            assert one.k == state.k
            assert np.array_equal(upd[:, i], r[:, 0])

    def test_row_count_must_match(self):
        cells = CellConfigs(((0.9, 0.999), (0.9, 0.999)))
        for shape in [(3, 2), (2,), (1, 2, 2)]:
            state = MomentState(np.zeros((2,) + shape))
            with pytest.raises(DomainError, match="of 2 cells$"):
                optimizer_step(state, np.ones((1,) + shape), cells)

    def test_exact_epsilon_row_with_zero_moment_rejected(self):
        # only row 1 meets v = 0; the error changes no state
        cells = CellConfigs([(b, 0.999) for b in (0.9, 0.5)], epsilon=0.0, bias_correction=False)
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
    def test_grid_cells_equal_one_cell_runs(self):
        stream = np.repeat([1.0, 7.0, 0.2], [150, 150, 100])[:, None] * np.array([0.3, -2.0, 5.0])
        pairs = [(b1, b2) for b1 in DEFAULT_BETA_AXIS for b2 in DEFAULT_BETA_AXIS]
        columns = step_scale_cells(stream, pairs)
        assert columns.shape == (400, len(pairs))
        for pair, norms in zip(pairs, columns.T):
            alone = step_scale_cells(stream, [pair])
            assert alone.shape == (400, 1)
            assert np.array_equal(norms, alone[:, 0])

    @pytest.mark.parametrize("stream", block_streams())
    def test_blocks_equal_one_block_per_cell(self, stream):
        # the stream runs in blocks of STEP_BLOCK steps, each block a broadcast view per cell;
        # a raw cell fed the whole stream as one (steps, 1, d) block must see the same norms
        pairs = [(0.9, 0.99), (0.99, 0.9)]
        norms = step_scale_cells(stream, pairs)
        assert norms.shape == (len(stream), len(pairs))
        for i, (b1, b2) in enumerate(pairs):
            cells = CellConfigs([(b1, b2)], epsilon=0.0, bias_correction=False)
            state = MomentState(np.stack((stream[:1], stream[:1] * stream[:1])))
            r = optimizer_step(state, stream[:, None], cells)
            assert np.array_equal(norms[:, i], [np.linalg.norm(row) for row in r[:, 0]])

    @pytest.mark.parametrize("stream", block_streams())
    def test_corrected_kernel_blocks_equal_one_block(self, stream):
        # bias correction counts steps across calls: STEP_BLOCK-step calls of two corrected
        # cells equal one call per cell over the whole stream, bit for bit
        pairs = [(0.9, 0.99), (0.99, 0.9)]
        start = np.stack((stream[:1], stream[:1] * stream[:1]))
        state, cells = MomentState(np.repeat(start, 2, axis=1)), CellConfigs(pairs, epsilon=1e-8)
        r = np.concatenate([optimizer_step(state, np.repeat(stream[k:k + STEP_BLOCK, None], 2, 1),
                                           cells) for k in range(0, len(stream), STEP_BLOCK)])
        for i, pair in enumerate(pairs):
            alone = optimizer_step(MomentState(start.copy()), stream[:, None],
                                   CellConfigs([pair], epsilon=1e-8))
            assert np.array_equal(r[:, i], alone[:, 0])

    def test_empty_grid_is_a_domain_error(self):
        # no pair is no cell, as an empty axis is in sweep_grid
        with pytest.raises(DomainError, match="at least one config"):
            step_scale_cells(np.repeat([1.0, 2.0], 5)[:, None], [])

    @pytest.mark.parametrize("stream,error", [
        (np.empty((0, 1)), "non-empty"), (np.array([]), "non-empty"),
        (np.array([1.0, 2.0]), "non-empty"), (np.ones((2, 2, 1)), "non-empty"),
        (np.array([[1.0], [np.nan]]), r"step 1, coordinate 0: \|g\| = nan is not finite"),
        (np.array([[1.0, 2.0], [3.0, -np.inf]]),
         r"step 1, coordinate 1: \|g\| = inf is not finite"),
        (np.array([[1.0, -2.0 ** 511]]),
         r"step 0, coordinate 1: \|g\| = 6\.7\d*e\+153 is not finite or at least 2\*\*511$"),
    ], ids=["empty", "empty-1-d", "1-d", "3-d", "nan", "inf", "2**511"])
    def test_stream_must_be_a_nonempty_2d_array_of_finite_gradients(self, stream, error):
        # zero and negative multipliers are rejected where multipliers are built: the CLI's
        # --multiplier flag
        with pytest.raises(DomainError, match=error):
            step_scale_cells(stream, [(0.9, 0.999)])


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
