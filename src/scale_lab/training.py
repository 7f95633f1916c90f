"""Training runs over the momentum grid and their oscillation statistics.

The protocol: train each problem over the 3x3 grid
(beta1, beta2) in {0.9, 0.99, 0.999}^2, repeat across seeds, smooth the
||R_k|| series with a window-200 EMA, score the oscillation per cell, and
test how often each row's smoothest column lands on the diagonal.

Everything is deterministic given (problem, config, seed): minibatches come
from a counter-based stream, so reruns are bit-identical.  The cells of one
seed share that stream, so they train in lockstep as one stacked batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError
from .metrics import OscillationGridReport, ema_smooth, grid_report, oscillation_omega1, oscillation_omega2
from .optimizers import CellConfigs, MomentState, OptimizerConfig, optimizer_step, row_norms
from .problems import Problem
from .rng import CounterRng

DEFAULT_BETA_AXIS = (0.9, 0.99, 0.999)
DEFAULT_WINDOW = 200
DEFAULT_BATCH = 32
DEFAULT_ETA = {"quadratic": 0.01, "logistic": 0.01, "mlp": 0.003}

_BATCH_STREAM = 2


@dataclass(frozen=True)
class RunTrace:
    """Per-step loss and update norm of one training run."""

    k: np.ndarray
    loss: np.ndarray
    norm_r: np.ndarray
    config: OptimizerConfig
    seed: int
    problem_kind: str
    method: str = "adam"
    steps_requested: int = 0
    diverged: bool = False


def train_cells(problem: Problem, configs: Sequence[OptimizerConfig], seed: int, steps: int,
                batch_size: int = DEFAULT_BATCH, method: str = "adam") -> list[RunTrace]:
    """Train C cells of one seed in lockstep; one trace per config, in order.

    Every cell starts from ``problem.init_theta(seed)`` and sees the same
    minibatch stream, so the cells are stacked as (C, d) rows and each step
    draws one minibatch and makes one loss, gradient and optimizer call for
    all of them.  Each row is bit-identical to the cell trained alone.

    The loss is the full-data objective at the pre-step parameters; the
    gradient fed to the optimizer is the minibatch one (full-batch for the
    quadratic).  A non-finite loss or update truncates that cell's trace,
    flags it as diverged and drops it from the batch instead of raising.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    configs = tuple(configs)
    cells = CellConfigs(configs)
    n_cells = len(configs)
    theta = np.tile(problem.init_theta(seed), (n_cells, 1))
    state = MomentState(m=np.zeros_like(theta), v=np.zeros_like(theta), theta=theta, k=0)
    batches = CounterRng(seed, stream=_BATCH_STREAM)

    losses = np.empty((n_cells, steps))
    norms = np.empty((n_cells, steps))
    n_done = np.full(n_cells, steps)
    live = np.arange(n_cells)  # the cell index of each row still training

    def drop(finite: np.ndarray, k: int) -> None:
        nonlocal live, state, cells
        n_done[live[~finite]] = k
        keep = np.flatnonzero(finite)
        live = live[keep]
        if live.size:
            cells = cells.take(keep)
            state = MomentState(state.m[keep], state.v[keep], state.theta[keep], state.k)

    # a diverging row overflows silently: it is detected as non-finite and dropped below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            loss_k = problem.loss(state.theta)
            finite = np.isfinite(loss_k)
            if not finite.all():
                drop(finite, k)
                loss_k = loss_k[finite]
                if not live.size:
                    break
            idx = None
            if problem.n_samples:
                idx = batches.integers(0, problem.n_samples, batch_size)
            r = optimizer_step(method, state, problem.grad(state.theta, idx)[None], cells)
            norm_k = row_norms(r[0])
            losses[live, k], norms[live, k] = loss_k, norm_k
            finite = np.isfinite(norm_k)
            if not finite.all():
                drop(finite, k)
                if not live.size:
                    break

    return [RunTrace(k=np.arange(n), loss=losses[i, :n], norm_r=norms[i, :n],
                     config=cfg, seed=seed, problem_kind=problem.kind, method=method,
                     steps_requested=steps, diverged=bool(n < steps))
            for i, (cfg, n) in enumerate(zip(configs, n_done))]


def run_training(problem: Problem, config: OptimizerConfig, seed: int, steps: int,
                 batch_size: int = DEFAULT_BATCH, method: str = "adam") -> RunTrace:
    """Train one cell for ``steps`` iterations and record (loss, ||R_k||) per step.

    The one-cell case of ``train_cells``; see there for the protocol.
    """
    return train_cells(problem, [config], seed, steps, batch_size, method)[0]


METRICS = ("omega1", "omega2")


def _omegas(trace: RunTrace, window: int) -> dict[str, float]:
    """omega1 and omega2 of one smoothing of the update-norm series; NaN for diverged runs."""
    if trace.diverged or trace.norm_r.size < 3:
        return dict.fromkeys(METRICS, float("nan"))
    smoothed = ema_smooth(trace.norm_r, window)
    return {"omega1": oscillation_omega1(smoothed), "omega2": oscillation_omega2(smoothed)}


def omega_of_trace(trace: RunTrace, window: int = DEFAULT_WINDOW, metric: str = "omega1") -> float:
    """Oscillation of the smoothed update-norm series; NaN for diverged runs."""
    if metric not in METRICS:
        raise DomainError(f"unknown metric {metric!r}")
    return _omegas(trace, window)[metric]


@dataclass(frozen=True)
class SweepResult:
    """All traces of a grid sweep, their omega1 and omega2, and the diagonal-selection report."""

    report: OscillationGridReport
    traces: dict[tuple[float, float, int], RunTrace]
    omegas: dict[tuple[float, float, int], dict[str, float]]
    window: int
    metric: str
    params: dict = field(default_factory=dict)


def sweep_grid(problem: Problem, beta_axis: Sequence[float] = DEFAULT_BETA_AXIS,
               seeds: Sequence[int] = (0, 1, 2), steps: int = 5000,
               batch_size: int = DEFAULT_BATCH, eta: float | None = None,
               epsilon: float = 1e-8, window: int = DEFAULT_WINDOW,
               metric: str = "omega1") -> SweepResult:
    """Run every (beta1, beta2, seed) cell and score diagonal selection.

    The cells of each seed train as one lockstep batch; each cell is smoothed
    once and scored by both metrics.
    """
    axis = [float(b) for b in beta_axis]
    seed_list = [int(s) for s in seeds]
    if not axis or not seed_list:
        raise DomainError("beta axis and seed list must be nonempty")
    if metric not in METRICS:
        raise DomainError(f"unknown metric {metric!r}")
    if eta is None:
        eta = DEFAULT_ETA.get(problem.kind, 0.01)

    pairs = [(b1, b2) for b1 in axis for b2 in axis]
    configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=eta, epsilon=epsilon, bias_correction=True)
               for b1, b2 in pairs]
    results = {}
    for s in seed_list:
        traces = train_cells(problem, configs, seed=s, steps=steps, batch_size=batch_size)
        results.update(((b1, b2, s), tr) for (b1, b2), tr in zip(pairs, traces))
    omegas = {cell: _omegas(tr, window) for cell, tr in results.items()}

    grids = []
    for s in seed_list:
        grid = np.empty((len(axis), len(axis)))
        for i, b1 in enumerate(axis):
            for j, b2 in enumerate(axis):
                grid[i, j] = omegas[(b1, b2, s)][metric]
        grids.append(grid)

    report = grid_report(grids, axis)
    return SweepResult(report=report, traces=results, omegas=omegas, window=window,
                       metric=metric, params={"steps": steps, "batch_size": batch_size,
                                              "eta": eta, "epsilon": epsilon,
                                              "problem": problem.kind, "seeds": seed_list})
