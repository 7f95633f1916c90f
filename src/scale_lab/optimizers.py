"""Discrete first-order optimizers exposing the update vector.

Adam maintains exponential moving averages of the gradient and its square,

    m' = b1 * m + (1 - b1) * g
    v' = b2 * v + (1 - b2) * g**2

and steps the parameters along the normalized update

    R = m_hat / (sqrt(v_hat) + eps),      theta' = theta - eta * R,

where (m_hat, v_hat) are the bias-corrected moments when enabled and the raw
ones otherwise.  R is returned separately from the parameter step because the
scale-sensitivity analysis operates on R alone.  signSGD and plain gradient
descent are included as the exactly scale-invariant and exactly scale-linear
reference updates.

Every step works on one cell's 1-D vectors or on C cells stacked as (C, d)
rows (``CellConfigs``), with the same elementwise arithmetic per row, so a
cell stepped in a batch is bit-identical to the same cell stepped alone.

All functions are pure: they never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for the Adam family.

    ``weight_decay > 0`` enables AdamW-style decoupled decay: the parameters
    are shrunk multiplicatively after the Adam step.  ``epsilon = 0`` is the
    analysis mode; the caller must then keep v strictly positive.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eta: float = 1e-3
    epsilon: float = 1e-8
    bias_correction: bool = True
    weight_decay: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise DomainError(f"betas must lie in (0,1), got ({self.beta1}, {self.beta2})")
        if self.epsilon < 0.0:
            raise DomainError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.weight_decay < 0.0:
            raise DomainError(f"weight_decay must be nonnegative, got {self.weight_decay}")


@dataclass(frozen=True)
class MomentState:
    """Per-coordinate optimizer state: moments, parameters, step counter."""

    m: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    k: int = 0

    def __post_init__(self):
        if not (self.m.shape == self.v.shape == self.theta.shape):
            raise DimensionError(
                f"m/v/theta shapes disagree: {self.m.shape}, {self.v.shape}, {self.theta.shape}"
            )


@dataclass(frozen=True)
class UpdateVector:
    """Unitless update direction R, same shape as the parameters."""

    r: np.ndarray

    def norm(self, ord: float | None = 2) -> float:
        return float(np.linalg.norm(self.r, ord))


def zero_state(dim: int, theta: np.ndarray | None = None) -> MomentState:
    """Fresh state with m = v = 0."""
    theta = np.zeros(dim) if theta is None else np.asarray(theta, dtype=float)
    return MomentState(m=np.zeros(dim), v=np.zeros(dim), theta=theta, k=0)


class CellConfigs:
    """C optimizer configurations stepped in lockstep, one row per cell.

    Each hyperparameter becomes a (C, 1) column that broadcasts against
    (C, d) state, so row i computes exactly what ``configs[i]`` computes
    alone.  Bias corrections stay Python-float powers, as in one cell.
    """

    def __init__(self, configs: Sequence[OptimizerConfig]):
        self.configs = tuple(configs)
        if not self.configs:
            raise DomainError("a cell batch needs at least one config")

        def column(values) -> np.ndarray:
            return np.array([[x] for x in values], dtype=float)

        cfgs = self.configs
        self.beta1, self.beta2 = column(c.beta1 for c in cfgs), column(c.beta2 for c in cfgs)
        self.keep1, self.keep2 = column(1.0 - c.beta1 for c in cfgs), column(1.0 - c.beta2 for c in cfgs)
        self.eta, self.epsilon = column(c.eta for c in cfgs), column(c.epsilon for c in cfgs)
        self.decay = column(1.0 - c.eta * c.weight_decay if c.weight_decay > 0.0 else 1.0
                            for c in cfgs)
        self.bias_correction = any(c.bias_correction for c in cfgs)
        self.exact_epsilon = any(c.epsilon == 0.0 for c in cfgs)

    def __len__(self) -> int:
        return len(self.configs)

    def take(self, rows: Sequence[int]) -> CellConfigs:
        """The sub-batch of the given rows, in that order."""
        return CellConfigs([self.configs[i] for i in rows])

    def corrections(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Bias-correction divisors for step ``k + 1``; 1.0 for uncorrected rows."""
        cfgs = self.configs
        return (np.array([[1.0 - c.beta1 ** (k + 1) if c.bias_correction else 1.0] for c in cfgs]),
                np.array([[1.0 - c.beta2 ** (k + 1) if c.bias_correction else 1.0] for c in cfgs]))


def adam_step(state: MomentState, g: np.ndarray,
              config: OptimizerConfig | CellConfigs) -> tuple[MomentState, UpdateVector]:
    """One Adam step; returns the new state and the update vector R.

    With an ``OptimizerConfig`` the state is one cell's 1-D vectors; with a
    ``CellConfigs`` it holds C cells as (C, d) rows and R has the same shape.
    Raises ``DimensionError`` on shape mismatch and ``DomainError`` when
    ``epsilon = 0`` meets a zero second-moment coordinate.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != state.m.shape:
        raise DimensionError(f"gradient shape {g.shape} != state shape {state.m.shape}")
    if isinstance(config, CellConfigs):
        if state.m.ndim != 2 or state.m.shape[0] != len(config):
            raise DimensionError(f"state shape {state.m.shape} does not hold {len(config)} cells")
        return _adam_cells(state, g, config)
    one, upd = _adam_cells(MomentState(state.m[None], state.v[None], state.theta[None], state.k),
                           g[None], CellConfigs([config]))
    return MomentState(one.m[0], one.v[0], one.theta[0], one.k), UpdateVector(upd.r[0])


def _adam_cells(state: MomentState, g: np.ndarray,
                cells: CellConfigs) -> tuple[MomentState, UpdateVector]:
    """The Adam kernel over (C, d) rows; every operation is elementwise per row."""
    m = cells.beta1 * state.m + cells.keep1 * g
    v = cells.beta2 * state.v + cells.keep2 * g * g

    if cells.bias_correction:
        c1, c2 = cells.corrections(state.k)
        m_hat, v_hat = m / c1, v / c2
    else:
        m_hat, v_hat = m, v

    denom = np.sqrt(v_hat) + cells.epsilon
    if cells.exact_epsilon and ((denom == 0.0) & (cells.epsilon == 0.0)).any():
        raise DomainError("epsilon = 0 with a zero second-moment coordinate")
    r = m_hat / denom

    # rows without weight decay multiply by exactly 1.0, which changes no bit
    theta = (state.theta - cells.eta * r) * cells.decay
    return MomentState(m=m, v=v, theta=theta, k=state.k + 1), UpdateVector(r)


def optimizer_step(method: str, state: MomentState, g: np.ndarray,
                   cells: CellConfigs) -> tuple[MomentState, UpdateVector]:
    """One step of ``method`` (adam, gd or signsgd) over the (C, d) cells of ``state``.

    gd and signsgd move theta by ``eta * R`` and leave the moments alone.
    """
    if method == "adam":
        return adam_step(state, g, cells)
    if method == "gd":
        upd = gd_step(g)
    elif method == "signsgd":
        upd = signsgd_step(g)
    else:
        raise DomainError(f"unknown optimizer id {method!r}")
    return MomentState(state.m, state.v, state.theta - cells.eta * upd.r, state.k + 1), upd


def row_norms(r: np.ndarray) -> np.ndarray:
    """2-norm of each row of a (C, d) array.

    A batched matmul runs one BLAS dot per row, the same call
    ``np.linalg.norm`` makes for one vector, so each norm is bit-identical
    to ``UpdateVector(r[i]).norm(2)``.
    """
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def signsgd_step(g: np.ndarray) -> UpdateVector:
    """Coordinate-wise sign update; sign(0) = 0."""
    return UpdateVector(np.sign(np.asarray(g, dtype=float)))


def gd_step(g: np.ndarray) -> UpdateVector:
    """Plain gradient descent: R = g."""
    return UpdateVector(np.asarray(g, dtype=float).copy())


def constant_gradient_closed_form(c: float | np.ndarray, k: int, beta1: float, beta2: float) -> UpdateVector:
    """R after ``k`` raw Adam steps from zero state under a constant gradient c.

    Geometric sums give m_k = (1 - b1**k) c and v_k = (1 - b2**k) c**2, hence

        R_k = sign(c) * (1 - b1**k) / sqrt(1 - b2**k),

    independent of |c|.  Serves as the oracle for the scale-independence of
    raw Adam from zero initialization.
    """
    if k < 1:
        raise DomainError(f"closed form needs k >= 1, got {k}")
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(c == 0.0):
        raise DomainError("closed form requires a nonzero constant gradient")
    magnitude = (1.0 - beta1 ** k) / np.sqrt(1.0 - beta2 ** k)
    return UpdateVector(np.sign(c) * magnitude)
