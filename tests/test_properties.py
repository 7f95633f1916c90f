"""Property tests: the signal array contract, the lockstep drift ladder, grid reports,
the CSV writer, the loss finiteness bound, the block optimizer kernel and the adam probe
built on it, row-wise EMA
smoothing, the relaxation RK4 kernel, and the CLI's exit codes under malformed flags and
CSV inputs."""

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from scale_lab import (CellConfigs, FlowState, FlowTrace, GradientSignal, MomentState,
                       TimeScales, binomial_diagonal_test, constant_signal, ema_smooth,
                       exact_invariance_probe, exponential_signal, grid_report, integrate_flow,
                       make_problem, sinusoidal_log_signal, steady_state_init)
from scale_lab import invariance, reporting
from scale_lab.optimizers import optimizer_step
from scale_lab.cli import build_parser, main
from scale_lab.drift import _ladder_flow
from scale_lab.errors import DomainError, FlowAbort
from scale_lab.flow import _abort_if_invalid, _relax
from scale_lab.problems import MLP_HIDDEN, QUADRATIC_DIM, _make_blobs
from oracles import delta_fd, flow_rhs, tracking_check

SIGNALS = {
    "constant": lambda: constant_signal([2.0, -0.5, 3.0]),
    "exponential": lambda: exponential_signal(0.07, scale=[1.5, -2.0]),
    "exponential-per-coordinate": lambda: exponential_signal([0.01, -0.03, 0.2],
                                                             scale=[1.0, 3.0, -0.5]),
    "sinusoidal-log": lambda: sinusoidal_log_signal(0.3, 0.7, scale=-2.0),
}

FIELDS = ("g", "delta_analytic", "delta_prime_analytic")
METHODS = ("delta", "delta_fd", "delta_prime")

times = st.floats(min_value=-4.0, max_value=14.0, allow_nan=False)


def evaluators(sig):
    return {name: functools.partial(delta_fd, sig) if name == "delta_fd" else getattr(sig, name)
            for name in FIELDS + METHODS}


@pytest.mark.parametrize("kind", list(SIGNALS))
@settings(max_examples=25, deadline=None)
@given(flat=st.lists(times, min_size=1, max_size=12), wide=st.integers(0, 1))
def test_array_evaluation_equals_stacked_scalar_evaluations(kind, flat, wide):
    sig = SIGNALS[kind]()
    t = np.array(flat if not wide else flat * 3)
    if wide:
        t = t.reshape(len(flat), 3)
    d = sig.g(0.0).size
    for name, ev in evaluators(sig).items():
        got = ev(t)
        want = np.stack([ev(float(x)) for x in t.ravel()]).reshape(t.shape + (d,))
        assert got.shape == t.shape + (d,), name
        assert np.array_equal(got, want), name
        assert ev(float(t.flat[0])).shape == (d,), name


@pytest.mark.parametrize("taus", [(1.0, 1.0), (1.0, 2.0)])
@settings(max_examples=4, deadline=None)
@given(rates=st.lists(st.floats(min_value=0.005, max_value=0.1), min_size=1, max_size=4,
                      unique=True))
def test_ladder_columns_equal_one_rate_flows(taus, rates):
    ts = TimeScales(*taus)
    t_end = 1.2 * ts.burn_in + 2.0 * ts.tau_max
    ladder = _ladder_flow(ts, tuple(rates))
    for k, d0 in enumerate(rates):
        sig = exponential_signal(d0)
        one = integrate_flow(sig, ts, steady_state_init(sig, ts), t_end=t_end)
        assert np.array_equal(ladder.t, one.t)
        for name in ("m", "v", "r"):
            assert np.array_equal(getattr(ladder, name)[:, k:k + 1], getattr(one, name)), name


omega_cells = st.one_of(st.floats(min_value=0.0, max_value=10.0),
                        st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def omega_grids(draw):
    n = draw(st.integers(2, 4))
    seeds = draw(st.integers(1, 4))
    grids = [draw(arrays(float, (n, n), elements=omega_cells)) for _ in range(seeds)]
    return grids, [0.9 + 0.01 * i for i in range(n)]


def grid_report_reference(grids, axis):
    """The per-(seed, row) scoring loop, written out: (hits, trials, argmin_cols).  A row
    is scored when exactly one column holds its minimum and that minimum is finite."""
    hits = trials = 0
    argmins = []
    for g in grids:
        cols = []
        for row in range(len(axis)):
            vals = np.where(np.isfinite(g[row]), g[row], np.inf)
            winners = np.flatnonzero(vals == vals.min())
            if winners.size > 1 or vals.min() == np.inf:
                cols.append(-1)
                continue
            col = int(winners[0])
            cols.append(col)
            trials += 1
            if col == row:
                hits += 1
        argmins.append(cols)
    return hits, trials, argmins


@settings(max_examples=200, deadline=None)
@given(data=omega_grids(), order=st.randoms())
def test_grid_report_invariant_under_seed_permutation(data, order):
    grids, axis = data
    assume(grid_report_reference(grids, axis)[1] > 0)  # else no row can be scored
    perm = list(range(len(grids)))
    order.shuffle(perm)
    base = grid_report(grids, axis)
    moved = grid_report([grids[i] for i in perm], axis)
    assert (moved.hits, moved.trials, moved.rate, moved.p_value) == (
        base.hits, base.trials, base.rate, base.p_value)
    assert moved.argmin_cols == [base.argmin_cols[i] for i in perm]


@settings(max_examples=200, deadline=None)
@given(data=omega_grids())
def test_non_finite_cell_never_wins_a_row(data):
    grids, axis = data
    assume(grid_report_reference(grids, axis)[1] > 0)
    report = grid_report(grids, axis)
    for g, cols in zip(grids, report.argmin_cols):
        for row, col in enumerate(cols):
            vals = np.where(np.isfinite(g[row]), g[row], np.inf)
            if col >= 0:  # a finite winner, strictly below every other cell of its row
                assert np.isfinite(g[row, col])
                assert all(vals[j] > vals[col] for j in range(len(axis)) if j != col)
            else:  # a row of non-finite cells, or a tied minimum
                assert np.sum(vals == vals.min()) > 1 or vals.min() == np.inf


# few distinct values, so ties and all-equal rows are common
tied_cells = st.sampled_from([0.0, 0.5, 1.0, np.nan, np.inf, -np.inf])


@st.composite
def tied_grids(draw):
    n = draw(st.integers(1, 4))
    cells = st.one_of(tied_cells, omega_cells)
    return [draw(arrays(float, (n, n), elements=cells)) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=300, deadline=None)
@given(grids=tied_grids())
@example(grids=[np.zeros((2, 2))])  # every row tied: none is scored
def test_grid_report_equals_the_per_row_loop(grids):
    axis = [0.9 + 0.01 * i for i in range(len(grids[0]))]
    hits, trials, argmins = grid_report_reference(grids, axis)
    if trials == 0:
        with pytest.raises(DomainError, match="can be scored"):
            grid_report(grids, axis)
        return
    report = grid_report(grids, axis)
    assert (report.hits, report.trials, report.argmin_cols) == (hits, trials, argmins)
    assert all(type(c) is int for cols in report.argmin_cols for c in cols)
    assert report.p_value == binomial_diagonal_test(hits, trials, len(axis))


# ---------------------------------------------------------------- CSV writer

BLOCK = reporting._BLOCK_ROWS
SPECIAL_BITS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310,
                         2.2250738585072014e-308, 1e16, 0.1, 1.0]).view(np.int64).tolist()
float_bits = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(SPECIAL_BITS))
NAN_PAYLOADS = [0x7FF800000000BEEF, 0x7FF8000000000001]
CONSTANT_BITS = [*np.array([-0.0, 5e-324]).view(np.int64).tolist(), NAN_PAYLOADS[0]]
# (bits, odd bits): equal as floats, or both NaN, but not as bits
NEAR_PAIRS = [tuple(np.array([0.0, -0.0]).view(np.int64).tolist()), tuple(NAN_PAYLOADS)]
SAFE_TEXT = "abcXYZ019 .-_+e"


def float_column_bits(draw, n):
    """Any bits; or one bit pattern throughout; or that with one odd entry at row 0, at the
    last row, or on either side of the first block boundary."""
    shape = draw(st.sampled_from(["any", "constant", "near-constant"]))
    if shape == "any":
        return draw(arrays(np.int64, n, elements=float_bits))
    if shape == "constant":
        return np.full(n, draw(st.one_of(st.sampled_from(CONSTANT_BITS), float_bits)), np.int64)
    bits, odd = draw(st.sampled_from(NEAR_PAIRS + [pair[::-1] for pair in NEAR_PAIRS]))
    col = np.full(n, bits, np.int64)
    rows = [i for i in (0, n - 1, BLOCK - 1, BLOCK) if 0 <= i < n]
    if rows:
        col[draw(st.sampled_from(rows))] = odd
    return col


def csv_column(draw, kind, n, text):
    """(column, reference field texts): a float64/int64 array, or a float or text list."""
    if kind == "int":
        col = draw(arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)))
        return col, [str(x) for x in col.tolist()]
    if kind == "text":
        pool = draw(st.lists(text, min_size=1, max_size=4))
        picks = draw(arrays(np.int64, n, elements=st.integers(0, len(pool) - 1)))
        col = [pool[i] for i in picks]
        return col, col
    col = float_column_bits(draw, n).view(np.float64)
    if kind == "float-list":  # Python floats or numpy float64 scalars
        col = col.tolist() if draw(st.booleans()) else list(col)
    return col, [repr(float(x)) for x in col]


@st.composite
def csv_families(draw):
    """(header, shared, tables): 1-4 tables under one header of 1-4 names, the first 0-2
    columns shared; each column is a (column, reference field texts) pair."""
    n = draw(st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    alphabet = draw(st.sampled_from(["", ",", '"', "\r", "\n"])) + SAFE_TEXT
    text = st.text(alphabet, max_size=4)
    kinds = draw(st.lists(st.sampled_from(["float", "int", "float-list", "text"]),
                          min_size=1, max_size=4))
    n_shared = draw(st.integers(0, min(2, len(kinds))))
    shared = [csv_column(draw, kind, n, text) for kind in kinds[:n_shared]]
    tables = [[csv_column(draw, kind, n, text) for kind in kinds[n_shared:]]
              for _ in range(draw(st.integers(1, 4)))]
    return draw(st.lists(text, min_size=len(kinds), max_size=len(kinds))), shared, tables


@settings(max_examples=100, deadline=None)
@given(family=csv_families())
def test_write_csv_bytes_equal_a_csv_writer_of_repr_float_fields(family):
    header, shared, tables = family
    lone = len(header) == 1
    files = [[header] + [list(row) for row in zip(*(texts for _, texts in shared + table))]
             for table in tables]
    quoted = any(any(c in f for c in ',"\r\n') or (lone and f == "")
                 for fields in files for row in fields for f in row)
    with tempfile.TemporaryDirectory() as tmp:
        want = [Path(tmp) / f"want_{k}.csv" for k in range(len(tables))]
        got = [Path(tmp) / f"got_{k}.csv" for k in range(len(tables))]
        for path, fields in zip(want, files):
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(fields)
        args = (got, header, [col for col, _ in shared], [[col for col, _ in t] for t in tables])
        if quoted:  # csv.writer quoted a field; the writer refuses instead
            naive = ["".join(",".join(row) + "\r\n" for row in fields).encode()
                     for fields in files]
            assert [path.read_bytes() for path in want] != naive
            with pytest.raises(DomainError, match="quoting"):
                reporting.write_csvs(*args)
        else:
            assert reporting.write_csvs(*args) == got
            assert [path.read_bytes() for path in got] == [path.read_bytes() for path in want]


# ---------------------------------------------------------------- the loss finiteness bound

@functools.lru_cache(maxsize=None)
def bounded_problem(kind):
    return make_problem(kind, seed=1)


def aligned_corner(kind, corner):
    """Every coordinate at +-corner, signed so the largest sample's logits add up."""
    if kind == "quadratic":
        return np.full(QUADRATIC_DIM, corner)
    x, _ = _make_blobs(1)  # the data seed of ``bounded_problem``
    signs = np.sign(x[np.abs(x).sum(axis=1).argmax()])
    if kind == "logistic":
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
    shape = (rows, prob.init_theta(0).size)
    fractions = data.draw(arrays(float, shape, elements=st.one_of(st.just(1.0),
                                                                  st.floats(0.0, 1.0))))
    signs = data.draw(arrays(float, shape, elements=st.sampled_from([-1.0, 1.0])))
    aligned = aligned_corner(kind, corner)
    thetas = np.vstack([corner * fractions * signs, aligned, -aligned])
    assert np.abs(thetas).max() < prob.loss_finite_below
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses = prob.loss(thetas)
    assert np.isfinite(losses).all()


# ---------------------------------------------------------------- block optimizer kernel

@st.composite
def kernel_batches(draw, c: int) -> tuple:
    """(pairs, epsilon, bias_correction), the arguments of a ``CellConfigs``: c (beta1, beta2)
    pairs that vary by row, and one drawn epsilon and bias correction."""
    epsilon, bias_correction = draw(st.sampled_from([0.0, 1e-8])), draw(st.booleans())
    pairs = [(draw(st.sampled_from([0.5, 0.9, 0.99])), draw(st.sampled_from([0.5, 0.9, 0.999])))
             for _ in range(c)]
    return pairs, epsilon, bias_correction


# zeros are frequent, so epsilon = 0 rows often meet a zero second moment
kernel_values = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def kernel_blocks(draw, steps: int, c: int, d: int):
    """(grads, m0, v0): free draws; or one gradient g repeated from its fixed point (m = g,
    v = g * g), where the kernel may fill the block with step 0; or that block with the sign
    of some zeros flipped after the first row, which it must not fill."""
    mode = draw(st.sampled_from(["free", "steady", "signed-zero"]))
    if mode == "free":
        m0 = draw(arrays(float, (c, d), elements=kernel_values))
        v0 = np.abs(draw(arrays(float, (c, d), elements=kernel_values)))
        return draw(arrays(float, (steps, c, d), elements=kernel_values)), m0, v0
    g = draw(arrays(float, (c, d), elements=st.one_of(st.just(-0.0), kernel_values)))
    grads = np.repeat(g[None], steps, axis=0)
    if mode == "signed-zero":
        flip = draw(arrays(bool, grads.shape)) & (grads == 0.0)
        flip[0] = False
        grads[flip] = -grads[flip]
    return grads, g.copy(), g * g


def same_bits(a, b) -> bool:
    """Equal float64 bit patterns, so 0.0 and -0.0 differ."""
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def run_kernel(state, grads, cells):
    """R of every step, or the DomainError message."""
    try:
        return optimizer_step(state, grads, cells)
    except DomainError as exc:
        return str(exc)


# the one-step call (T = 1) and a block (T > 1) each also run at a training-sized width
@pytest.mark.parametrize("steps_drawn, d_drawn", [
    (st.integers(1, 8), st.integers(1, 5)),
    (st.just(1), st.integers(64, 80)),
    (st.integers(2, 8), st.integers(64, 80)),
], ids=["narrow", "wide-one-step", "wide-block"])
@settings(max_examples=200, deadline=None)
@given(data=st.data(), c=st.integers(1, 4), k0=st.integers(0, 3))
def test_block_kernel_equals_single_steps(steps_drawn, d_drawn, data, c, k0):
    steps, d = data.draw(steps_drawn), data.draw(d_drawn)
    cells = CellConfigs(*data.draw(kernel_batches(c)))
    grads, m0, v0 = data.draw(kernel_blocks(steps, c, d))
    block, single = (MomentState(np.stack((m0, v0)), k0) for _ in range(2))

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
        assert same_bits(block.mv, np.stack((m0, v0)))
        assert block.k == k0
        return
    assert same_bits(got, np.stack(want))
    assert same_bits(block.mv, single.mv)
    assert block.k == single.k == k0 + steps


def adam_by_coordinate(batch, grads, m0, v0, k0):
    """(R, m, v) of ``grads`` (T, C, d) stepped from (m0, v0) at step k0 by the cells of
    ``batch = (pairs, epsilon, bias_correction)``, as a Python-float loop over rows,
    coordinates and steps in the kernel's operation order; None where epsilon = 0 meets a zero
    second moment.  It shares no array layout with the kernel."""
    r, m, v = np.empty(grads.shape), m0.copy(), v0.copy()
    pairs, eps, bias_correction = batch
    for i, (b1, b2) in enumerate(pairs):
        for x in range(grads.shape[2]):
            mi, vi = float(m0[i, x]), float(v0[i, x])
            for t, g in enumerate(grads[:, i, x].tolist()):
                mi = (1.0 - b1) * g + b1 * mi
                vi = ((1.0 - b2) * g) * g + b2 * vi
                if eps == 0.0 and vi == 0.0:
                    return None
                m_hat, v_hat = mi, vi
                if bias_correction:
                    j = k0 + t + 1
                    m_hat, v_hat = mi / (1.0 - b1 ** j), vi / (1.0 - b2 ** j)
                denom = math.sqrt(v_hat) + eps
                r[t, i, x] = m_hat / (math.nan if denom == math.inf else denom)
            m[i, x], v[i, x] = mi, vi
    return r, m, v


@settings(max_examples=300, deadline=None)
@given(data=st.data(), steps=st.integers(1, 8), c=st.integers(1, 3), d=st.integers(1, 4),
       k0=st.integers(0, 3))
def test_kernel_equals_a_python_float_loop(data, steps, c, d, k0):
    batch = data.draw(kernel_batches(c))
    grads, m0, v0 = data.draw(kernel_blocks(steps, c, d))
    state = MomentState(np.stack((m0, v0)), k0)
    got = run_kernel(state, grads, CellConfigs(*batch))
    want = adam_by_coordinate(batch, grads, m0, v0, k0)
    if want is None:
        assert isinstance(got, str) and "epsilon = 0" in got
        assert same_bits(state.mv, np.stack((m0, v0))) and state.k == k0
        return
    r, m, v = want
    assert same_bits(got, r)
    assert same_bits(state.mv, np.stack((m, v)))
    assert state.k == k0 + steps


# huge entries overflow the stepped m and v, or only the corrected v
overflow_values = st.one_of(kernel_values, st.sampled_from([1e154, 1e306, 1.7e308, -1.7e308]),
                            st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), c=st.integers(1, 3), d=st.integers(1, 4), k0=st.integers(0, 3))
@example(data=None, c=1, d=1, k0=0)
def test_an_overflowed_moment_makes_r_non_finite(data, c, d, k0):
    if data is None:  # m, v and R(g = 1) finite, but v_hat = 1e306 / (1 - 0.999) overflows
        batch = [(0.9, 0.999)], 0.0, True
        grads, m0, v0 = np.ones((1, 1, 1)), np.zeros((1, 1)), np.full((1, 1), 1e306)
    else:
        batch = data.draw(kernel_batches(c))
        grads = data.draw(arrays(float, (1, c, d), elements=overflow_values))
        m0 = data.draw(arrays(float, (c, d), elements=overflow_values))
        v0 = np.abs(data.draw(arrays(float, (c, d), elements=overflow_values)))
    state = MomentState(np.stack((m0, v0)), k0)
    with np.errstate(over="ignore", invalid="ignore"):
        r = run_kernel(state, grads, CellConfigs(*batch))
        assume(not isinstance(r, str))  # epsilon = 0 met a zero second moment
        pairs, _, bias_correction = batch
        v_hat = state.mv[1] / np.array([[1.0 - b2 ** state.k if bias_correction else 1.0]
                                        for _, b2 in pairs])
    overflowed = ~(np.isfinite(state.mv).all(axis=0) & np.isfinite(v_hat))
    assert not np.isfinite(r[0][overflowed]).any()


def test_block_kernel_zero_moment_error_matches_single_steps():
    # v = 2e-323 halves to zero at step 3 of the beta2 = 0.5 row; the other row's v stays 1
    cells = CellConfigs([(0.9, b2) for b2 in (0.999, 0.5)], epsilon=0.0, bias_correction=False)
    grads = np.zeros((4, 2, 1))

    def fresh():
        return MomentState(np.array([[[1.0], [1.0]], [[1.0], [2e-323]]]))

    block, single = fresh(), fresh()
    got = run_kernel(block, grads, cells)
    want = [run_kernel(single, g[None], cells) for g in grads[:3]]
    assert isinstance(got, str) and "epsilon = 0" in got
    assert [isinstance(w, str) for w in want] == [False, False, True] and want[2] == got
    assert block.k == 0 and np.array_equal(block.mv, fresh().mv)
    assert single.k == 2


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), k=st.integers(0, 5))
def test_adam_probe_equals_one_cell_steps(data, d, k):
    # the probe steps the gradient and its rescalings side by side in one cell; each R must be,
    # bit for bit, the step of that one rescaled gradient from its own copy of the state
    batch = data.draw(kernel_batches(1))
    cell = CellConfigs(*batch)
    m = data.draw(arrays(float, d, elements=st.floats(-10.0, 10.0)))
    v = data.draw(arrays(float, d, elements=st.floats(1e-3, 10.0)))  # epsilon = 0 needs v > 0
    g = data.draw(arrays(float, d, elements=kernel_values))
    lambdas = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    state = MomentState(np.stack((m, v)), k)
    calls = []

    def recorded_step(*args):
        calls.append(optimizer_step(*args))
        return calls[-1]

    with mock.patch.object(invariance, "optimizer_step", recorded_step):
        result = exact_invariance_probe("adam", state, g, lambdas, cell)
    assert len(calls) == 1
    probed = calls[0].reshape(len(lambdas) + 1, d)
    alone = []
    for lam in [None] + lambdas:
        one = MomentState(np.stack((m, v))[:, None], k)
        alone.append(optimizer_step(one, (g if lam is None else lam * g)[None, None], cell)[0, 0])
    assert same_bits(probed, np.stack(alone))
    assert state.k == k and same_bits(state.mv, np.stack((m, v)))
    assert result.deviations == [float(np.max(np.abs(r - alone[0]))) for r in alone[1:]]


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
    """``integrate_flow`` as RK4 over ``flow_rhs`` on the stacked (2, d) state from t = 0."""
    n_steps = max(1, round(t_end / h))
    h = t_end / n_steps
    stages = (np.arange(n_steps) * h)[:, None] + np.array([0.0, 0.5 * h, h])
    y = np.array([init.m, init.v], dtype=float)
    t, ys = rk4_reference(functools.partial(flow_rhs, ts=ts), 0.0, y, h, signal.g(stages))
    _abort_if_invalid(t[-1], ys[-1])
    m, v = ys[:, 0], ys[:, 1]
    return FlowTrace(t=t, m=m, v=v, r=m / np.sqrt(v))


def flow_outcome(integrate, *args):
    try:
        return integrate(*args)
    except FlowAbort as exc:
        return exc


def interpolated_signal(knots: np.ndarray, values: np.ndarray) -> GradientSignal:
    """g(t) through ``values`` (knots, d) by ``np.interp``: a forcing for ``integrate_flow``,
    which reads g alone, so its drift evaluators fail if called."""
    def unread(t):
        raise AssertionError("integrate_flow evaluated the drift")
    return GradientSignal(
        g=lambda t: np.stack([np.interp(t, knots, col) for col in values.T], -1),
        delta_analytic=unread, delta_prime_analytic=unread)


@st.composite
def flow_signals(draw, d):
    """(kind, signal): the CLI kinds, an interpolated signal, and an all-zero one."""
    kind = draw(st.sampled_from(["exp", "sin-log", "const", "interpolated", "zero"]))
    values = st.tuples(st.floats(0.1, 3.0), st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])
    if kind == "exp":
        return kind, exponential_signal(
            draw(st.lists(st.floats(-0.2, 0.2), min_size=d, max_size=d)),
            draw(st.lists(values, min_size=d, max_size=d)))
    if kind == "sin-log":
        return kind, sinusoidal_log_signal(draw(st.floats(0.0, 1.0)), draw(st.floats(0.1, 3.0)),
                                           draw(values))
    if kind == "const":
        return kind, constant_signal(draw(st.lists(values, min_size=d, max_size=d)))
    if kind == "zero":  # v decays from 1 and crosses zero once h is large against tau2
        return kind, constant_signal(np.zeros(d))
    # a drop to zero between the stages of one step can drive any stage's v below zero
    knots = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 50.0])
    return kind, interpolated_signal(knots, draw(arrays(float, (knots.size, d),
                                                        elements=st.one_of(st.just(0.0), values))))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.integers(1, 9), tau1=st.floats(0.2, 3.0), tau2=st.floats(0.2, 3.0),
       h_per_tau=st.floats(0.01, 4.0), n_steps=st.integers(1, 60))
def test_integrate_flow_equals_rk4_over_flow_rhs(data, d, tau1, tau2, h_per_tau, n_steps):
    kind, sig = data.draw(flow_signals(d))
    ts = TimeScales(tau1, tau2)
    if kind in ("interpolated", "zero"):  # a zero coordinate has no drift for steady_state_init
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


def relax_reference(x0, tau, forcing, h):
    """The relaxation kernel as one Python-float loop per coordinate that steps and stores every
    stage point x, x2, x3, x4 of each step serially, k written as (-x + f) / tau."""
    shape, n = np.shape(x0), len(forcing)
    forcing = np.reshape(forcing, (3 * n, -1))
    taus = np.broadcast_to(tau, shape).ravel().tolist()
    points = np.empty((4 * n + 1, forcing.shape[1]))
    half, sixth = 0.5 * h, h / 6.0
    for c, (x, tau_c) in enumerate(zip(np.ravel(x0).tolist(), taus)):
        f = iter(forcing[:, c].tolist())
        pts = []
        for f1, f2, f4 in zip(f, f, f):
            k1 = (-x + f1) / tau_c
            x2 = x + half * k1
            k2 = (-x2 + f2) / tau_c
            x3 = x + half * k2
            k3 = (-x3 + f2) / tau_c
            x4 = x + h * k3
            k4 = (-x4 + f4) / tau_c
            pts += (x, x2, x3, x4)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pts.append(x)
        points[:, c] = pts
    return points.reshape((4 * n + 1,) + shape)


# signed zeros, ordinary values, and values whose stage slopes or sums overflow
relax_values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0),
                         st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308]),
                         st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def relax_cases(draw):
    """(x0, tau, forcing, h) as the kernel's callers pass them: a float state with a float tau
    (``tracking_check``), or a (2, d) state with a (2, 1) tau broadcast over d
    (``integrate_flow``'s stacked m and v)."""
    n, h = draw(st.integers(1, 12)), draw(st.floats(1e-3, 4.0))
    shape = draw(st.sampled_from([(), (2, 1), (2, 3), (2, 7)]))
    taus = st.floats(0.05, 5.0)
    if shape:
        x0 = draw(arrays(float, shape, elements=relax_values))
        tau = draw(arrays(float, (2, 1), elements=taus))
    else:
        x0, tau = draw(relax_values), draw(taus)
    return x0, tau, draw(arrays(float, (n, 3) + shape, elements=relax_values)), h


@settings(max_examples=300, deadline=None)
@given(case=relax_cases())
@example(case=(-0.0, 0.5, np.array([[-0.0, 0.0, -0.0]]), 0.1))  # signed zeros, n = 1
@example(case=(np.array([[0.0, -0.0], [-0.0, 0.0]]), np.array([[1.0], [2.0]]),
               np.array([[[[-0.0, 0.0], [0.0, -0.0]]] * 3] * 2), 0.25))
@example(case=(1.0, 0.05, np.array([[1.7e308, -1.7e308, 1e308]]), 4.0))  # the slopes overflow
@example(case=(0.5, 1.0, np.broadcast_to(2.0, (4, 3)), 0.5))  # tracking_check's constant y
@example(case=(np.array([[1e308], [-1e308]]), np.array([[0.5], [0.05]]),
               np.full((3, 3, 2, 1), 1.7e308), 1.0))
def test_relax_equals_the_serial_stage_point_loop(case):
    got, want = _relax(*case), relax_reference(*case)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    nan = np.isnan(want)  # a NaN's sign may differ: -x + f and f - x differ only there
    assert np.array_equal(np.isnan(got), nan)
    assert same_bits(got[~nan], want[~nan])


# ---------------------------------------------------------------- row-wise EMA smoothing

@pytest.mark.parametrize("window", [1, 2, 200])
@settings(max_examples=100, deadline=None)
@given(series=arrays(float, array_shapes(min_dims=1, max_dims=3, max_side=12),
                     elements=st.one_of(st.floats(-1e300, 1e300), st.just(np.nan))))
def test_ema_rows_equal_their_one_dimensional_calls(window, series):
    smoothed = ema_smooth(series, window)
    assert smoothed.shape == series.shape and smoothed.flags.c_contiguous
    for lead in np.ndindex(series.shape[:-1]):
        assert smoothed[lead].tobytes() == ema_smooth(series[lead], window).tobytes(), lead


# ---------------------------------------------------------------- the CLI under malformed input

FUZZ_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "", "x", ","]
FUZZ_FIELDS = [v.encode() for v in FUZZ_VALUES] + [b"\xff"]  # one byte that is not UTF-8
CLI_BASES = {  # small runs: each command takes milliseconds
    "flow": ["flow", "--signal=exp", "--t-end=12"],
    "probe": ["probe"],
    "probe --step-scale": ["probe", "--step-scale", "--steps=40"],
    "sweep": ["sweep", "--problem=logistic", "--steps=12", "--seeds=1", "--window=3"],
    "report --grid": ["report", "--grid={csv}"],
    "report --ingest": ["report", "--ingest={csv}"],
}
VALID_CSV = {
    "report --grid": b"beta1,beta2,seed,omega1,omega2,window\r\n0.9,0.9,0,0.1,0.5,3\r\n"
                     b"0.9,0.99,0,0.2,0.4,3\r\n0.99,0.9,0,0.3,0.3,3\r\n0.99,0.99,0,0.4,0.1,3\r\n",
    "report --ingest": b"beta1,0.9,0.99\r\n0.9,0.1,0.2\r\n0.99,0.3,0.4\r\n",
}


def value_flags(command: str) -> dict:
    """Each flag of ``command`` that takes a value, but --out, mapped to its choices or None."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.option_strings[-1]: a.choices for a in sub.choices[command]._actions
            if a.option_strings and a.nargs is None and a.dest != "out"}


@st.composite
def cli_cases(draw):
    """(argv, CSV bytes or None): a small base run with up to three of its own flags set to
    malformed or extreme values, ``--flag=value`` so that argparse takes ``-1``; a report's
    valid CSV may have one field replaced."""
    base = draw(st.sampled_from(sorted(CLI_BASES)))
    argv = list(CLI_BASES[base])
    flags = value_flags(argv[0])
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(FUZZ_VALUES + list(flags[flag] or [])))}")
    text = VALID_CSV.get(base)
    if text is not None and draw(st.booleans()):
        rows = [line.split(b",") for line in text.split(b"\r\n")[:-1]]
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(FUZZ_FIELDS))
        text = b"".join(b",".join(r) + b"\r\n" for r in rows)
    return argv, text


def csv_floats(path: Path, skip) -> list[float]:
    """Every field of a written CSV that reads as a float, but those ``skip(row, name)`` names."""
    floats = []
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            for name, text in row.items():
                with contextlib.suppress(ValueError):
                    if not skip(row, name):
                        floats.append(float(text))
    return floats


def run_cli(argv, text):
    """The exit code of ``main`` and, on exit 0, every non-finite float it wrote but the omegas
    of diverged sweep cells."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if text is not None:
            (tmp / "in.csv").write_bytes(text)
        argv = [a.replace("{csv}", str(tmp / "in.csv")) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--out", str(tmp / "out")])
        if code != 0:
            return code, []
        observed = json.loads((tmp / "out" / "manifest.json").read_text())["observed"]
        diverged = {cell.rpartition(":")[0] for cell in observed.get("diverged", [])}

        def diverged_omega(row, name):
            cell = f"{row.get('beta1')},{row.get('beta2')},{row.get('seed')}"
            return name in ("omega1", "omega2") and cell in diverged

        bad = [x for path in (tmp / "out").rglob("*.csv") for x in csv_floats(path, diverged_omega)
               if not np.isfinite(x)]
        return code, bad


@settings(max_examples=150, deadline=None)
@given(case=cli_cases())
@example(case=(["report", "--grid={csv}"], VALID_CSV["report --grid"].replace(b"0.2", b"\xff")))
@example(case=(["report", "--ingest={csv}"], VALID_CSV["report --ingest"].replace(b"0.3", b"\xff")))
@example(case=(["report", "--grid={csv}"],
               VALID_CSV["report --grid"].replace(b"0.2", b"1" * 200000)))
@example(case=(["report", "--ingest={csv}"],
               VALID_CSV["report --ingest"].replace(b"0.3", b"1" * 200000)))
@example(case=(["report", "--ingest={csv}"],  # omegas below 0: a parse error
               b"beta1,0.9,0.99\r\n0.9,-3,1\r\n0.99,2,-1e300\r\n"))
@example(case=(["flow", "--signal=sin-log", "--omega=1e300"], None))
@example(case=(["flow", "--signal=exp", "--delta0=1e-160", "--tau1=1e155", "--tau2=1e155",
                "--t-end=2e156", "--h=1e154"], None))
@example(case=(["flow", "--signal=const", "--scale=1e200"], None))
@example(case=(["flow", "--signal=exp", "--delta0=1e308"], None))
@example(case=(["flow", "--signal=exp", "--tau1=1e300", "--t-end=12"], None))
def test_cli_ends_in_a_documented_exit_code(case):
    # a traceback, an escaped RuntimeWarning (an error under pytest) or an exit 0 run that
    # wrote inf or nan outside a diverged cell's omegas fails here
    code, bad = run_cli(*case)
    assert code in (0, 1, 2)
    assert bad == []
