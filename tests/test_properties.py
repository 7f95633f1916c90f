"""Property tests: the signal array contract, the lockstep drift ladder, grid reports,
the CSV writer, the loss finiteness bound, the block optimizer kernel, the relaxation RK4
kernel."""

import csv
import functools
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scale_lab import (CellConfigs, FlowState, FlowTrace, MomentState, OptimizerConfig,
                       TimeScales, binomial_diagonal_test, constant_signal, exponential_signal,
                       grid_report, integrate_flow, make_problem, sinusoidal_log_signal,
                       steady_state_init, tabulated_signal, tracking_check)
from scale_lab import reporting
from scale_lab.optimizers import optimizer_step
from scale_lab.drift import _exponential_ladder
from scale_lab.errors import DomainError, FlowAbort
from scale_lab.flow import _abort_if_invalid, flow_rhs
from scale_lab.problems import MLP_HIDDEN, _make_blobs

SIGNALS = {
    "constant": lambda: constant_signal([2.0, -0.5, 3.0]),
    "exponential": lambda: exponential_signal(0.07, scale=[1.5, -2.0]),
    "exponential-per-coordinate": lambda: exponential_signal([0.01, -0.03, 0.2],
                                                             scale=[1.0, 3.0, -0.5]),
    "sinusoidal-log": lambda: sinusoidal_log_signal(0.3, 0.7, scale=-2.0, dimension=2),
    # constant on either side of a jump from (1, -4) to (10, -40) at t = 1
    "tabulated-jump": lambda: tabulated_signal([1.0, 1.0 + 1e-9], [[1.0, -4.0], [10.0, -40.0]]),
    "tabulated": lambda: tabulated_signal(np.linspace(-2.0, 12.0, 29),
                                          np.stack([2.0 + np.sin(np.linspace(-2.0, 12.0, 29)),
                                                    np.exp(0.1 * np.linspace(-2.0, 12.0, 29))],
                                                   axis=1)),
}

FIELDS = ("g", "delta_analytic", "delta_prime_analytic")
METHODS = ("delta", "delta_fd", "delta_prime")

times = st.floats(min_value=-4.0, max_value=14.0, allow_nan=False)


def evaluators(sig):
    out = {name: getattr(sig, name) for name in FIELDS if getattr(sig, name) is not None}
    out.update({name: getattr(sig, name) for name in METHODS})
    return out


@pytest.mark.parametrize("kind", list(SIGNALS))
@settings(max_examples=25, deadline=None)
@given(flat=st.lists(times, min_size=1, max_size=12), wide=st.integers(0, 1))
def test_array_evaluation_equals_stacked_scalar_evaluations(kind, flat, wide):
    sig = SIGNALS[kind]()
    t = np.array(flat if not wide else flat * 3)
    if wide:
        t = t.reshape(len(flat), 3)
    for name, ev in evaluators(sig).items():
        got = ev(t)
        want = np.stack([ev(float(x)) for x in t.ravel()]).reshape(t.shape + (sig.dimension,))
        assert got.shape == t.shape + (sig.dimension,), name
        assert np.array_equal(got, want), name
        assert ev(float(t.flat[0])).shape == (sig.dimension,), name


@pytest.mark.parametrize("taus", [(1.0, 1.0), (1.0, 2.0)])
@settings(max_examples=4, deadline=None)
@given(rates=st.lists(st.floats(min_value=0.005, max_value=0.1), min_size=1, max_size=4,
                      unique=True))
def test_ladder_columns_equal_one_rate_flows(taus, rates):
    ts = TimeScales(*taus)
    t_end = 1.2 * ts.burn_in + 2.0 * ts.tau_max
    for d0, (sig, col) in zip(rates, _exponential_ladder(ts, rates, None)):
        assert sig.params["delta0"] == d0
        one = integrate_flow(sig, ts, steady_state_init(sig, ts, t0=0.0), t_end=t_end)
        for name in ("t", "m", "v", "r"):
            assert np.array_equal(getattr(col, name), getattr(one, name)), name
        assert (col.signal_kind, col.meta) == (one.signal_kind, one.meta)


omega_cells = st.one_of(st.floats(min_value=0.0, max_value=10.0),
                        st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def omega_grids(draw):
    n = draw(st.integers(2, 4))
    seeds = draw(st.integers(1, 4))
    grids = [draw(arrays(float, (n, n), elements=omega_cells)) for _ in range(seeds)]
    return grids, [0.9 + 0.01 * i for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(data=omega_grids(), order=st.randoms())
def test_grid_report_invariant_under_seed_permutation(data, order):
    grids, axis = data
    assume(any(np.isfinite(g).any() for g in grids))  # else no row can be scored
    perm = list(range(len(grids)))
    order.shuffle(perm)
    base = grid_report(grids, axis)
    moved = grid_report([grids[i] for i in perm], axis)
    assert (moved.hits, moved.trials, moved.rate, moved.p_value) == (
        base.hits, base.trials, base.rate, base.p_value)
    assert moved.argmin_cols == [base.argmin_cols[i] for i in perm]
    assert sorted(moved.degenerate_rows) == sorted((perm.index(s), r)
                                                   for s, r in base.degenerate_rows)


@settings(max_examples=200, deadline=None)
@given(data=omega_grids())
def test_non_finite_cell_never_wins_a_row(data):
    grids, axis = data
    assume(any(np.isfinite(g).any() for g in grids))
    report = grid_report(grids, axis)
    for g, cols in zip(grids, report.argmin_cols):
        for row, col in enumerate(cols):
            if np.isfinite(g[row]).any():
                assert col >= 0 and np.isfinite(g[row, col])
            else:
                assert col == -1


def grid_report_reference(grids, axis):
    """The per-(seed, row) scoring loop, written out: (hits, trials, argmin_cols, degenerate_rows)."""
    hits = trials = 0
    argmins, degenerate = [], []
    for s, g in enumerate(grids):
        cols = []
        for row in range(len(axis)):
            vals = np.where(np.isfinite(g[row]), g[row], np.inf)
            if np.all(vals == vals[0]):
                degenerate.append((s, row))
            if np.all(vals == np.inf):
                cols.append(-1)
                continue
            col = int(np.argmin(vals))
            cols.append(col)
            trials += 1
            if col == row:
                hits += 1
        argmins.append(cols)
    return hits, trials, argmins, degenerate


# few distinct values, so ties and all-equal rows are common
tied_cells = st.sampled_from([0.0, 0.5, 1.0, np.nan, np.inf, -np.inf])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), seeds=st.integers(1, 4), data=st.data())
def test_grid_report_equals_the_per_row_loop(n, seeds, data):
    cells = st.one_of(tied_cells, omega_cells)
    grids = [data.draw(arrays(float, (n, n), elements=cells)) for _ in range(seeds)]
    axis = [0.9 + 0.01 * i for i in range(n)]
    hits, trials, argmins, degenerate = grid_report_reference(grids, axis)
    if trials == 0:
        with pytest.raises(DomainError):
            grid_report(grids, axis)
        return
    report = grid_report(grids, axis)
    assert (report.hits, report.trials, report.argmin_cols) == (hits, trials, argmins)
    assert report.degenerate_rows == degenerate
    assert all(type(s) is int and type(r) is int for s, r in report.degenerate_rows)
    assert report.p_value == binomial_diagonal_test(hits, trials, n)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(report.omega, grids))


# ---------------------------------------------------------------- CSV writer

BLOCK = reporting._BLOCK_ROWS
SPECIAL_BITS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310,
                         2.2250738585072014e-308, 1e16, 0.1, 1.0]).view(np.int64).tolist()
float_bits = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(SPECIAL_BITS))
SAFE_TEXT = "abcXYZ019 .-_+e"


@st.composite
def csv_tables(draw):
    """(header, columns, reference field texts): float64/int64 arrays, float and text lists."""
    n = draw(st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    alphabet = draw(st.sampled_from(["", ",", '"', "\r", "\n"])) + SAFE_TEXT
    text = st.text(alphabet, max_size=4)
    kinds = draw(st.lists(st.sampled_from(["float", "int", "float-list", "text"]),
                          min_size=1, max_size=4))
    columns, texts = [], []
    for kind in kinds:
        if kind == "int":
            col = draw(arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)))
            texts.append([str(x) for x in col.tolist()])
        elif kind == "text":
            pool = draw(st.lists(text, min_size=1, max_size=4))
            picks = draw(arrays(np.int64, n, elements=st.integers(0, len(pool) - 1)))
            col = [pool[i] for i in picks]
            texts.append(col)
        else:
            col = draw(arrays(np.int64, n, elements=float_bits)).view(np.float64)
            if kind == "float-list":  # Python floats or numpy float64 scalars
                col = col.tolist() if draw(st.booleans()) else list(col)
            texts.append([repr(float(x)) for x in col])
        columns.append(col)
    return draw(st.lists(text, min_size=len(kinds), max_size=len(kinds))), columns, texts


@settings(max_examples=100, deadline=None)
@given(table=csv_tables())
def test_write_csv_bytes_equal_a_csv_writer_of_repr_float_fields(table):
    header, columns, texts = table
    lone = len(columns) == 1
    fields = [header] + [list(row) for row in zip(*texts)]
    quoted = any(any(c in f for c in ',"\r\n') or (lone and f == "") for row in fields for f in row)
    with tempfile.TemporaryDirectory() as tmp:
        want, got = Path(tmp) / "want.csv", Path(tmp) / "got.csv"
        with want.open("w", newline="") as fh:
            csv.writer(fh).writerows(fields)
        if quoted:  # csv.writer quoted a field; the writer refuses instead
            naive = "".join(",".join(row) + "\r\n" for row in fields).encode()
            assert want.read_bytes() != naive
            with pytest.raises(DomainError, match="quoting"):
                reporting.write_csv(got, header, columns)
        else:
            assert reporting.write_csv(got, header, columns) == got
            assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------- the loss finiteness bound

@functools.lru_cache(maxsize=None)
def bounded_problem(kind):
    return make_problem(kind, seed=1)


def aligned_corner(prob, corner):
    """Every coordinate at +-corner, signed so the largest sample's logits add up."""
    if prob.kind == "quadratic":
        return np.full(prob.dim_theta, corner)
    x, _ = _make_blobs(prob.meta["seed"])
    signs = np.sign(x[np.abs(x).sum(axis=1).argmax()])
    if prob.kind == "logistic":
        return corner * np.append(signs, 1.0)
    # w1 (features, hidden) row-major, b1, w2 (hidden, 2) pulling the classes apart, b2
    return corner * np.concatenate([np.repeat(signs, MLP_HIDDEN), np.ones(MLP_HIDDEN),
                                    np.tile([1.0, -1.0], MLP_HIDDEN), [1.0, -1.0]])


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 3))
def test_loss_is_finite_below_the_problem_bound(kind, data, rows):
    # the engine skips the loss off its cadence for a row inside the bound: this is why it may
    prob = bounded_problem(kind)
    corner = prob.loss_finite_below * (1.0 - 2.0 ** -52)
    shape = (rows, prob.dim_theta)
    fractions = data.draw(arrays(float, shape, elements=st.one_of(st.just(1.0),
                                                                  st.floats(0.0, 1.0))))
    signs = data.draw(arrays(float, shape, elements=st.sampled_from([-1.0, 1.0])))
    aligned = aligned_corner(prob, corner)
    thetas = np.vstack([corner * fractions * signs, aligned, -aligned])
    assert np.abs(thetas).max() < prob.loss_finite_below
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses = prob.loss(thetas)
    assert np.isfinite(losses).all()


# ---------------------------------------------------------------- block optimizer kernel

kernel_configs = st.builds(OptimizerConfig, beta1=st.sampled_from([0.5, 0.9, 0.99]),
                           beta2=st.sampled_from([0.5, 0.9, 0.999]),
                           eta=st.sampled_from([1e-3, 0.1]), epsilon=st.sampled_from([0.0, 1e-8]),
                           bias_correction=st.booleans())
# zeros are frequent, so epsilon = 0 rows often meet a zero second moment
kernel_values = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_nan=False))


def run_kernel(state, grads, cells):
    """R of every step, or the DomainError message."""
    try:
        return optimizer_step(state, grads, cells)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), c=st.integers(1, 4), d=st.integers(1, 5), steps=st.integers(1, 8),
       k0=st.integers(0, 3))
def test_block_kernel_equals_single_steps(data, c, d, steps, k0):
    cells = CellConfigs(data.draw(st.lists(kernel_configs, min_size=c, max_size=c)))
    grads = data.draw(arrays(float, (steps, c, d), elements=kernel_values))
    m0, theta0 = (data.draw(arrays(float, (c, d), elements=kernel_values)) for _ in range(2))
    v0 = np.abs(data.draw(arrays(float, (c, d), elements=kernel_values)))
    block, single = (MomentState(m0.copy(), v0.copy(), theta0.copy(), k0) for _ in range(2))

    got = run_kernel(block, grads, cells)
    want = []
    for g in grads:
        r = run_kernel(single, g[None], cells)
        if isinstance(r, str):
            want = r
            break
        want.append(r[0])
    if isinstance(got, str):  # the same error, and the block left the state alone
        assert got == want
        for name, start in (("m", m0), ("v", v0), ("theta", theta0)):
            assert np.array_equal(getattr(block, name), start), name
        assert block.k == k0
        return
    assert np.array_equal(got, np.stack(want))
    for name in ("m", "v", "theta"):
        assert np.array_equal(getattr(block, name), getattr(single, name)), name
    assert block.k == single.k == k0 + steps


def test_block_kernel_zero_moment_error_matches_single_steps():
    # v = 2e-323 halves to zero at step 3 of the epsilon = 0, beta2 = 0.5 row
    cells = CellConfigs([OptimizerConfig(),
                         OptimizerConfig(beta2=0.5, epsilon=0.0, bias_correction=False)])
    grads = np.zeros((4, 2, 1))

    def fresh():
        return MomentState(np.ones((2, 1)), np.full((2, 1), 2e-323), np.zeros((2, 1)))

    block, single = fresh(), fresh()
    got = run_kernel(block, grads, cells)
    want = [run_kernel(single, g[None], cells) for g in grads[:3]]
    assert isinstance(got, str) and "epsilon = 0" in got
    assert [isinstance(w, str) for w in want] == [False, False, True] and want[2] == got
    assert block.k == 0 and np.array_equal(block.v, fresh().v)
    assert single.k == 2


def rk4_reference(rhs, t0, y, h, forcing):
    """Classical fixed-step RK4 of y' = rhs(t, y, f) on numpy arrays (or floats), one step at a
    time: the generic loop the relaxation kernel replaced."""
    ys = np.empty((len(forcing) + 1,) + np.shape(y))
    ys[0] = y
    for i, (f1, f2, f4) in enumerate(forcing):
        t = t0 + i * h
        k1 = rhs(t, y, f1)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1, f2)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2, f2)
        k4 = rhs(t + h, y + h * k3, f4)
        ys[i + 1] = y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return t0 + np.arange(len(ys)) * h, ys


def integrate_flow_reference(signal, ts, init, t_end, h):
    """``integrate_flow`` as RK4 over ``flow_rhs`` on the stacked (2, d) state."""
    n_steps = max(1, round((t_end - init.t) / h))
    h = (t_end - init.t) / n_steps
    stages = (init.t + np.arange(n_steps) * h)[:, None] + np.array([0.0, 0.5 * h, h])
    y = np.array([init.m, init.v], dtype=float)
    t, ys = rk4_reference(functools.partial(flow_rhs, ts=ts), init.t, y, h, signal.g(stages))
    _abort_if_invalid(t[-1], ys[-1])
    m, v = ys[:, 0], ys[:, 1]
    return FlowTrace(t=t, m=m, v=v, r=m / np.sqrt(v), signal_kind=signal.kind,
                     meta={"h": h, **signal.params})


def flow_outcome(integrate, *args):
    try:
        return integrate(*args)
    except FlowAbort as exc:
        return exc


@st.composite
def flow_signals(draw, d):
    """(kind, signal): the CLI kinds, a tabulated signal, and an all-zero one."""
    kind = draw(st.sampled_from(["exp", "sin-log", "const", "tabulated", "zero"]))
    values = st.tuples(st.floats(0.1, 3.0), st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])
    if kind == "exp":
        return kind, exponential_signal(
            draw(st.lists(st.floats(-0.2, 0.2), min_size=d, max_size=d)),
            draw(st.lists(values, min_size=d, max_size=d)))
    if kind == "sin-log":
        return kind, sinusoidal_log_signal(draw(st.floats(0.0, 1.0)), draw(st.floats(0.1, 3.0)),
                                           draw(values), dimension=d)
    if kind == "const":
        return kind, constant_signal(draw(st.lists(values, min_size=d, max_size=d)))
    knots = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 50.0])
    if kind == "zero":  # v decays from 1 and crosses zero once h is large against tau2
        return kind, tabulated_signal(knots, np.zeros((knots.size, d)))
    # a drop to zero between the stages of one step can drive any stage's v below zero
    return kind, tabulated_signal(knots, draw(arrays(float, (knots.size, d),
                                                     elements=st.one_of(st.just(0.0), values))))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.integers(1, 9), tau1=st.floats(0.2, 3.0), tau2=st.floats(0.2, 3.0),
       h_per_tau=st.floats(0.01, 4.0), n_steps=st.integers(1, 60))
def test_integrate_flow_equals_rk4_over_flow_rhs(data, d, tau1, tau2, h_per_tau, n_steps):
    kind, sig = data.draw(flow_signals(d))
    ts = TimeScales(tau1, tau2)
    if kind in ("tabulated", "zero"):  # a zero coordinate has no drift for steady_state_init
        g0 = sig.g(0.0)
        init = FlowState(m=g0, v=g0 * g0 + 1.0)
    else:
        init = steady_state_init(sig, ts)
    h = h_per_tau * min(tau1, tau2)
    args = (sig, ts, init, n_steps * h, h)
    got = flow_outcome(integrate_flow, *args)
    want = flow_outcome(integrate_flow_reference, *args)
    if isinstance(want, FlowAbort) or isinstance(got, FlowAbort):
        assert isinstance(got, FlowAbort) and isinstance(want, FlowAbort)
        assert (got.t, str(got)) == (want.t, str(want))
        return
    for name in ("t", "m", "v", "r", "norm_r"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.strides) == (b.shape, b.dtype, b.strides), name
        assert a.flags.c_contiguous == b.flags.c_contiguous, name
        assert a.tobytes() == b.tobytes(), name
    assert (got.signal_kind, got.meta) == (want.signal_kind, want.meta)


def tracking_reference(y, y_prime, y_second, tau, x0, interval, h):
    """t, residual, bound and margin of ``tracking_check`` with analytic derivatives, the state
    stepped by the scalar RK4 loop."""
    t0, t1 = interval
    m_sup = float(np.max(np.abs(y_second(np.linspace(t0, t1, 10001)))))
    n_steps = max(1, round((t1 - t0) / h))
    h = (t1 - t0) / n_steps
    stages = (t0 + np.arange(n_steps) * h)[:, None] + np.array([0.0, 0.5 * h, h])
    t, xs = rk4_reference(lambda t, x, f: (-x + f) / tau, t0, float(x0), h, y(stages).tolist())
    y_t, yp_t = y(t), y_prime(t)
    residual = xs - (y_t - tau * yp_t)
    coeff = abs(x0 - float(y_t[0]) + tau * float(yp_t[0]))
    bound = coeff * np.exp(-(t - t0) / tau) + tau * tau * m_sup
    return t, residual, bound, float(np.min(bound - np.abs(residual)))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.1, 3.0), w=st.floats(0.1, 3.0), c=st.floats(-2.0, 2.0),
       tau=st.floats(0.05, 2.0), x0=st.floats(-3.0, 3.0), t1=st.floats(0.5, 10.0),
       h_per_tau=st.floats(0.005, 3.0))
def test_tracking_check_equals_the_scalar_rk4_loop(a, w, c, tau, x0, t1, h_per_tau):
    y = lambda t: c + a * np.sin(w * t)
    yp = lambda t: a * w * np.cos(w * t)
    ypp = lambda t: -a * w * w * np.sin(w * t)
    h = h_per_tau * tau
    assume(t1 / h <= 2000)
    got = tracking_check(y, tau, x0, (0.0, t1), yp, ypp, h=h)
    t, residual, bound, margin = tracking_reference(y, yp, ypp, tau, x0, (0.0, t1), h)
    for name, want in (("t", t), ("residual", residual), ("bound", bound)):
        assert getattr(got, name).tobytes() == want.tobytes(), name
    assert got.margin == margin
