"""Training runs over the momentum grid and their oscillation statistics.

The protocol: train each problem over the 3x3 grid (beta1, beta2) in
{0.9, 0.99, 0.999}^2, repeat across seeds, smooth the ||R_k|| series with a
window-200 EMA and score each cell by every metric of ``metrics.METRICS``;
``metrics.grid_report`` then tests how often each row's smoothest column
lands on the diagonal.

Everything is deterministic given (problem, betas, eta, seed): minibatches come
from a counter-based stream, so reruns are bit-identical.  A sweep trains
every (beta1, beta2, seed) cell as one row of a single lockstep batch: one
``CellConfigs`` row and one learning rate per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, require_distinct, require_indexable
from .metrics import METRICS, ema_smooth
from .optimizers import CellConfigs, MomentState, optimizer_step, row_norms
from .problems import Problem
from .rng import CounterRng

DEFAULT_BETA_AXIS = (0.9, 0.99, 0.999)
DEFAULT_WINDOW = 200
DEFAULT_BATCH = 32

_BATCH_STREAM = 2
_INDEX_BLOCK = 64  # steps of minibatch indices drawn at once per seed, equal to per-step draws
LOSS_EVERY = 10  # the full-data loss is recorded on steps k % LOSS_EVERY == 0


@dataclass(frozen=True)
class RunTrace:
    """Per-step update norm of one run; ``loss[j]`` is the loss before its j-th step whose global
    k is a multiple of LOSS_EVERY, so a continued trace's ``loss[0]`` is at the first one from its
    start.  ``run_trace_csvs`` is handed only traces that start at step 0."""

    loss: np.ndarray
    norm_r: np.ndarray  # one entry per step run, so its size is the step a diverged run stopped at
    diverged: bool = False


@dataclass
class RunPoint:
    """A lockstep run between two steps, which ``train_cells`` advances in place: the (C, d)
    parameters, the (2, C, d) moments and step counter k, each row's seed and which rows live."""

    theta: np.ndarray
    state: MomentState
    seeds: Sequence[int]
    alive: np.ndarray  # (C,) bool: False from the step a row diverged at


def start_point(problem: Problem, seeds: Sequence[int]) -> RunPoint:
    """Step 0 of one row per seed: ``problem.init_theta(seed)``, zero moments, every row alive.
    An empty seed list is a ``DomainError``."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise DomainError("a run point needs at least one seed")
    theta = np.stack([problem.init_theta(s) for s in seeds])
    return RunPoint(theta, MomentState(np.zeros((2,) + theta.shape)), seeds,
                    np.ones(len(seeds), dtype=bool))


def train_cells(problem: Problem, cells: CellConfigs, point: RunPoint, steps: int,
                eta: float | Sequence[float], batch_size: int = DEFAULT_BATCH) -> list[RunTrace]:
    """Train the C rows of ``point`` in lockstep for ``steps`` steps; one trace per row.

    Row i steps with row i of ``cells`` at ``eta``, one learning rate for every row or one per
    row; its minibatch index row at step k, the point's global step counter, is words
    [k * batch, (k + 1) * batch) of ``CounterRng(seed_i, stream=2)``.  Each step makes one
    gradient and one optimizer call for the (C, d) rows, then the parameter step
    ``theta' = theta - eta * R``, and at every k that is a multiple of LOSS_EVERY one full-data
    loss call per seed.  So j steps continued for n - j equal n steps, and each row is
    bit-identical to the cell trained alone.

    The loss is the full-data objective at the pre-step parameters; the gradient fed to the
    optimizer is the minibatch one (full-batch for the quadratic).  A cell whose loss or update
    turns non-finite is flagged as diverged and its trace is cut before that step, instead of
    raising; off the cadence the loss runs for that check on each row not inside
    ``problem.loss_finite_below``, so no non-finite loss goes unseen.  It keeps its row and
    steps on with the batch: rows never mix, so its neighbours cannot tell.  The loop ends early
    once every cell has diverged, and a row dead at the start has an empty, diverged trace.
    Rows times ``steps``, or an index block, past numpy's index type is a ``DomainError``
    raised before anything is allocated.
    """
    if steps < 1 or batch_size < 1:
        raise DomainError(f"steps and batch_size must be >= 1, got {steps} and {batch_size}")
    n_cells, etas = len(cells), np.asarray(eta, dtype=float).ravel()
    if len(point.seeds) != n_cells or etas.size not in (1, n_cells):
        raise DomainError(f"{len(point.seeds)} seeds and {etas.size} eta values for "
                          f"{n_cells} config rows")
    eta = np.broadcast_to(etas, n_cells)[:, None].copy()  # a (C, 1) column, one rate per row
    theta, state, alive, k0 = point.theta, point.state, point.alive, point.state.k
    seed_set = list(dict.fromkeys(point.seeds))
    seed_of_row = np.array([seed_set.index(s) for s in point.seeds])
    # one loss call per seed: one over all 27 rows of an mlp sweep peaks 1.6 MB higher, no faster
    seed_rows = [np.flatnonzero(seed_of_row == i) for i in range(len(seed_set))]
    require_indexable(n_cells * steps, 8, f"{n_cells} rows of {steps} steps")
    if problem.n_samples:  # each index block draws (seeds, up to _INDEX_BLOCK steps, batch)
        require_indexable(len(seed_set) * min(_INDEX_BLOCK, steps) * batch_size, 8,
                          f"index blocks of {len(seed_set)} seeds at batch size {batch_size}")
    batches = [CounterRng(s, stream=_BATCH_STREAM, counter=k0 * batch_size) for s in seed_set]

    first = -(-k0 // LOSS_EVERY)  # the first recorded loss is at step first * LOSS_EVERY
    losses = np.empty((n_cells, -(-(k0 + steps) // LOSS_EVERY) - first))
    norms = np.empty((n_cells, steps))
    n_done = np.where(alive, steps, 0)
    # a diverging row overflows silently: it is detected as non-finite below
    with np.errstate(over="ignore", invalid="ignore"):
        # a point whose rows are all dead takes no step, as the run that killed them stopped
        for j in range(steps if alive.any() else 0):
            k = k0 + j
            recorded = k % LOSS_EVERY == 0
            # off the cadence only a live row the bound cannot vouch for needs its loss
            # (written as not-below, so a NaN theta is checked too)
            check = alive if recorded else alive & ~(
                np.abs(theta).max(axis=1) < problem.loss_finite_below)
            loss_k = np.zeros(n_cells)
            for rows in seed_rows if check.any() else ():
                rows = rows[check[rows]]
                if rows.size:
                    loss_k[rows] = problem.loss(theta[rows])
            if recorded:
                losses[:, k // LOSS_EVERY - first] = loss_k
            if problem.n_samples and j % _INDEX_BLOCK == 0:
                draws = min(_INDEX_BLOCK, steps - j) * batch_size
                block = np.stack([b.integers(0, problem.n_samples, draws).reshape(-1, batch_size)
                                  for b in batches])
            idx = block[seed_of_row, j % _INDEX_BLOCK] if problem.n_samples else None
            r = optimizer_step(state, problem.grad(theta, idx)[None], cells)[0]
            norms[:, j] = row_norms(r)
            theta -= np.multiply(eta, r, out=r)  # theta' = theta - eta * R
            del r  # frees R's moment buffer before the next step allocates its own
            died = alive & ~(np.isfinite(loss_k) & np.isfinite(norms[:, j]))
            if died.any():
                n_done[died], alive[died] = j, False
                if not alive.any():
                    break

    return [RunTrace(loss=losses[i, :-(-(k0 + n) // LOSS_EVERY) - first], norm_r=norms[i, :n],
                     diverged=bool(n < steps)) for i, n in enumerate(n_done)]


def _omegas(traces: dict, window: int) -> dict[str, dict]:
    """Per metric of ``METRICS``, each cell's score of its smoothed update-norm trace, NaN for a
    diverged run or one shorter than 3 steps; the rest have the full step count: one smoothing."""
    finished = [cell for cell, tr in traces.items() if not tr.diverged and tr.norm_r.size >= 3]
    omegas = {name: dict.fromkeys(traces, np.nan) for name in METRICS}
    if finished:
        smoothed = ema_smooth(np.stack([traces[cell].norm_r for cell in finished]), window)
        for name, metric in METRICS.items():
            omegas[name].update(zip(finished, map(metric, smoothed)))
    return omegas


@dataclass(frozen=True)
class SweepResult:
    """A sweep's traces by cell, and ``omegas[metric][cell]``, the cell's score by that metric."""

    traces: dict[tuple[float, float, int], RunTrace]
    omegas: dict[str, dict[tuple[float, float, int], float]]


def sweep_grid(problem: Problem, beta_axis: Sequence[float] = DEFAULT_BETA_AXIS, *,
               seeds: Sequence[int], steps: int, batch_size: int = DEFAULT_BATCH,
               eta: float | None = None, window: int = DEFAULT_WINDOW) -> SweepResult:
    """Run every (beta1, beta2, seed) cell and measure its omegas.

    Every cell of every seed trains at ``eta`` (by default ``problem.default_eta``) as one
    row of a single lockstep batch; the finished cells are smoothed in one call and each is
    measured by every metric of ``METRICS``; ``grid_report(result.omegas[metric])`` scores
    them.  A repeated beta or seed would count one run as two, so it is a ``DomainError``,
    raised before training.
    """
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    axis = [float(b) for b in beta_axis]
    seed_list = [int(s) for s in seeds]
    if not axis or not seed_list:
        raise DomainError("beta axis and seed list must be nonempty")
    require_distinct(axis, "the beta axis")
    require_distinct(seed_list, "the seed list")
    if eta is None:
        eta = problem.default_eta

    cells = [(b1, b2, s) for s in seed_list for b1 in axis for b2 in axis]
    configs = CellConfigs([(b1, b2) for b1, b2, _ in cells])
    point = start_point(problem, [s for _, _, s in cells])
    traces = dict(zip(cells, train_cells(problem, configs, point, steps, eta, batch_size)))
    return SweepResult(traces=traces, omegas=_omegas(traces, window))
