"""Training runs over the momentum grid and their oscillation statistics.

The protocol: train each problem over the 3x3 grid
(beta1, beta2) in {0.9, 0.99, 0.999}^2, repeat across seeds, smooth the
||R_k|| series with a window-200 EMA, score the oscillation per cell, and
test how often each row's smoothest column lands on the diagonal.

Everything is deterministic given (problem, config, seed): minibatches come
from a counter-based stream, so reruns are bit-identical.  A sweep trains
every (beta1, beta2, seed) cell as one row of a single lockstep batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, SweepAbort
from .metrics import (OscillationGridReport, ema_smooth, grid_report, omega_grids,
                      oscillation_omega1, oscillation_omega2)
from .optimizers import CellConfigs, MomentState, OptimizerConfig, optimizer_step, row_norms
from .problems import Problem
from .rng import CounterRng

DEFAULT_BETA_AXIS = (0.9, 0.99, 0.999)
DEFAULT_WINDOW = 200
DEFAULT_BATCH = 32
DEFAULT_ETA = {"quadratic": 0.01, "logistic": 0.01, "mlp": 0.003}

_BATCH_STREAM = 2
_INDEX_BLOCK = 64  # steps of minibatch indices drawn at once per seed, equal to per-step draws
LOSS_EVERY = 10  # the full-data loss is recorded on steps k % LOSS_EVERY == 0


@dataclass(frozen=True)
class RunTrace:
    """Per-step update norm of one run; ``loss[j]`` is the loss before step j * LOSS_EVERY."""

    k: np.ndarray
    loss: np.ndarray
    norm_r: np.ndarray
    config: OptimizerConfig
    seed: int
    diverged: bool = False


def train_cells(problem: Problem, configs: Sequence[OptimizerConfig], seed: int | Sequence[int],
                steps: int, batch_size: int = DEFAULT_BATCH) -> list[RunTrace]:
    """Train C cells in lockstep; one trace per config, in order.

    ``seed`` is one seed for every row or one per config row.  Row i starts
    from ``problem.init_theta(seed_i)`` and draws its minibatch index row from
    ``CounterRng(seed_i, stream=2)``; each step makes one gradient and one
    optimizer call for the (C, d) rows, and every LOSS_EVERY-th step one
    full-data loss call per seed.  Each row is bit-identical to the cell
    trained alone.

    The loss is the full-data objective at the pre-step parameters; the
    gradient fed to the optimizer is the minibatch one (full-batch for the
    quadratic).  A cell whose loss or update turns non-finite is flagged as
    diverged and its trace is cut before that step, instead of raising; off
    the cadence the loss runs for that check on each row not inside
    ``problem.loss_finite_below``, so no non-finite loss goes unseen.  It
    keeps its row and steps on with the batch: rows never mix, so its
    neighbours cannot tell.  The loop ends early once every cell has diverged.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    configs = tuple(configs)
    cells = CellConfigs(configs)
    n_cells = len(configs)
    row_seeds = [int(seed)] * n_cells if np.ndim(seed) == 0 else [int(s) for s in seed]
    if len(row_seeds) != n_cells:
        raise DimensionError(f"{len(row_seeds)} seeds for {n_cells} config rows")
    seed_set = list(dict.fromkeys(row_seeds))
    seed_of_row = np.array([seed_set.index(s) for s in row_seeds])
    # the loss runs per seed, so the mlp's full-data buffer holds one seed's rows
    seed_rows = [np.flatnonzero(seed_of_row == i) for i in range(len(seed_set))]
    theta = np.stack([problem.init_theta(s) for s in row_seeds])
    state = MomentState(m=np.zeros_like(theta), v=np.zeros_like(theta), theta=theta, k=0)
    batches = [CounterRng(s, stream=_BATCH_STREAM) for s in seed_set]

    losses = np.empty((n_cells, -(-steps // LOSS_EVERY)))
    norms = np.empty((n_cells, steps))
    n_done = np.full(n_cells, steps)
    alive = np.ones(n_cells, dtype=bool)
    # a diverging row overflows silently: it is detected as non-finite below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            recorded = k % LOSS_EVERY == 0
            # off the cadence only a live row the bound cannot vouch for needs its loss
            # (written as not-below, so a NaN theta is checked too)
            check = alive if recorded else alive & ~(
                np.abs(state.theta).max(axis=1) < problem.loss_finite_below)
            loss_k = np.zeros(n_cells)
            for rows in seed_rows:
                rows = rows[check[rows]]
                if rows.size:
                    loss_k[rows] = problem.loss(state.theta[rows])
            if recorded:
                losses[:, k // LOSS_EVERY] = loss_k
            if problem.n_samples and k % _INDEX_BLOCK == 0:
                draws = min(_INDEX_BLOCK, steps - k) * batch_size
                block = np.stack([b.integers(0, problem.n_samples, draws).reshape(-1, batch_size)
                                  for b in batches])
            idx = block[seed_of_row, k % _INDEX_BLOCK] if problem.n_samples else None
            r = optimizer_step(state, problem.grad(state.theta, idx)[None], cells)
            norms[:, k] = row_norms(r[0])
            died = alive & ~(np.isfinite(loss_k) & np.isfinite(norms[:, k]))
            n_done[died], alive[died] = k, False
            if not alive.any():
                break

    return [RunTrace(k=np.arange(n), loss=losses[i, :-(-n // LOSS_EVERY)], norm_r=norms[i, :n],
                     config=cfg, seed=s, diverged=bool(n < steps))
            for i, (cfg, s, n) in enumerate(zip(configs, row_seeds, n_done))]


METRICS = ("omega1", "omega2")


def _omegas(trace: RunTrace, window: int) -> dict[str, float]:
    """omega1 and omega2 of one smoothing of the update-norm series; NaN for diverged runs."""
    if trace.diverged or trace.norm_r.size < 3:
        return dict.fromkeys(METRICS, float("nan"))
    smoothed = ema_smooth(trace.norm_r, window)
    return {"omega1": oscillation_omega1(smoothed), "omega2": oscillation_omega2(smoothed)}


@dataclass(frozen=True)
class SweepResult:
    """All traces of a grid sweep, their omega1 and omega2, and the diagonal-selection report."""

    report: OscillationGridReport
    traces: dict[tuple[float, float, int], RunTrace]
    omegas: dict[tuple[float, float, int], dict[str, float]]
    window: int
    metric: str


def sweep_grid(problem: Problem, beta_axis: Sequence[float] = DEFAULT_BETA_AXIS,
               seeds: Sequence[int] = (0, 1, 2), steps: int = 5000,
               batch_size: int = DEFAULT_BATCH, eta: float | None = None,
               epsilon: float = 1e-8, window: int = DEFAULT_WINDOW,
               metric: str = "omega1") -> SweepResult:
    """Run every (beta1, beta2, seed) cell and score diagonal selection.

    Every cell of every seed trains as one row of a single lockstep batch;
    each cell is smoothed once and scored by both metrics.  A ``SweepAbort``,
    carrying the traces, is raised when no row of the grids can be scored.
    """
    axis = [float(b) for b in beta_axis]
    seed_list = [int(s) for s in seeds]
    if not axis or not seed_list:
        raise DomainError("beta axis and seed list must be nonempty")
    if metric not in METRICS:
        raise DomainError(f"unknown metric {metric!r}")
    if eta is None:
        eta = DEFAULT_ETA.get(problem.kind, 0.01)

    cells = [(b1, b2, s) for s in seed_list for b1 in axis for b2 in axis]
    configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=eta, epsilon=epsilon, bias_correction=True)
               for b1, b2, _ in cells]
    traces = train_cells(problem, configs, seed=[s for _, _, s in cells], steps=steps,
                         batch_size=batch_size)
    results = dict(zip(cells, traces))
    omegas = {cell: _omegas(tr, window) for cell, tr in results.items()}

    try:
        report = grid_report(omega_grids({cell: om[metric] for cell, om in omegas.items()},
                                         axis, seed_list), axis)
    except DomainError as exc:  # every row unscorable, e.g. every cell diverged
        raise SweepAbort(results, str(exc)) from None
    return SweepResult(report=report, traces=results, omegas=omegas, window=window,
                       metric=metric)
