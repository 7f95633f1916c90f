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

``optimizer_step`` is the one kernel: it steps C cells stacked as (C, d) rows
(``CellConfigs``) in place over a block of T gradients, each row and step
bit-identical to that cell stepped alone, one step at a time.  ``adam_step``
is the pure one-step API on top of it.
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


@dataclass
class MomentState:
    """Per-coordinate optimizer state: moments, parameters, step counter; mutable."""

    m: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    k: int = 0

    def __post_init__(self):
        if not (self.m.shape == self.v.shape == self.theta.shape):
            raise DimensionError(f"m/v/theta shapes disagree: "
                                 f"{self.m.shape}, {self.v.shape}, {self.theta.shape}")


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
    alone; the moment coefficients stack as (2, C, 1), b1 over b2.
    """

    def __init__(self, configs: Sequence[OptimizerConfig]):
        self.configs = cfgs = tuple(configs)
        if not cfgs:
            raise DomainError("a cell batch needs at least one config")

        def column(values) -> np.ndarray:
            return np.array([[x] for x in values], dtype=float)

        self.betas = np.stack((column(c.beta1 for c in cfgs), column(c.beta2 for c in cfgs)))
        self.keeps = 1.0 - self.betas
        self.eta, self.epsilon = column(c.eta for c in cfgs), column(c.epsilon for c in cfgs)
        # None when no row decays or has epsilon 0, so the kernel skips that work
        decay = column(1.0 - c.eta * c.weight_decay if c.weight_decay > 0.0 else 1.0 for c in cfgs)
        self.decay = decay if (decay != 1.0).any() else None
        self.exact_rows = self.epsilon == 0.0 if (self.epsilon == 0.0).any() else None
        # bias-correction divisors are powers of these betas, b1 rows then b2 rows
        self._corrected = ([c.beta1 if c.bias_correction else None for c in cfgs]
                           + [c.beta2 if c.bias_correction else None for c in cfgs])
        self.bias_correction = any(c.bias_correction for c in cfgs)

    def __len__(self) -> int:
        return len(self.configs)

    def divisors(self, k: int, steps: int) -> np.ndarray:
        """Bias-correction divisors ``1 - b ** j`` of steps j = k + 1 .. k + steps as Python
        floats, as one cell computes them, shaped (steps, 2, C, 1); 1.0 for uncorrected rows."""
        return np.array([1.0 if b is None else 1.0 - b ** j
                         for j in range(k + 1, k + steps + 1) for b in self._corrected]
                        ).reshape(steps, 2, len(self), 1)


def adam_step(state: MomentState, g: np.ndarray,
              config: OptimizerConfig | CellConfigs) -> tuple[MomentState, UpdateVector]:
    """One Adam step; returns the new state and the update vector R.

    With an ``OptimizerConfig`` the state is one cell's vectors; with a
    ``CellConfigs`` it holds C cells as (C, d) rows and R has the same shape.
    The kernel steps copies, so ``state`` and ``g`` are never mutated.
    Raises ``DimensionError`` on shape mismatch and ``DomainError`` when
    ``epsilon = 0`` meets a zero second-moment coordinate.
    """
    g, shape = np.asarray(g, dtype=float), state.m.shape
    if g.shape != shape:
        raise DimensionError(f"gradient shape {g.shape} != state shape {shape}")
    cells = config if isinstance(config, CellConfigs) else CellConfigs([config])
    rows = shape if cells is config else (1, g.size)  # one cell is one row
    if len(rows) != 2 or rows[0] != len(cells):
        raise DimensionError(f"state shape {shape} does not hold {len(cells)} cells")
    new = MomentState(*(a.reshape(rows).copy() for a in (state.m, state.v, state.theta)), state.k)
    r = optimizer_step("adam", new, g.reshape((1,) + rows), cells)[0]
    return (MomentState(*(a.reshape(shape) for a in (new.m, new.v, new.theta)), new.k),
            UpdateVector(r.reshape(shape)))


def optimizer_step(method: str, state: MomentState, grads: np.ndarray,
                   cells: CellConfigs) -> np.ndarray:
    """Step the (C, d) cells of ``state`` in place over T gradients ``grads`` (T, C, d).

    ``method`` is adam, gd or signsgd.  Returns R of every step, shaped (T, C, d),
    and advances ``state.k`` by T.  Step t is bit-identical to the t-th of T
    one-step calls: only the m, v and theta recurrences run step by step; the
    increments, bias corrections, ``epsilon = 0`` check and R are computed for
    the whole block in the same operation order.  gd and signsgd move theta by
    ``eta * R`` and leave the moments alone.  A ``DomainError`` changes no state.
    """
    if grads.shape[1:] != state.theta.shape:
        raise DimensionError(f"gradient block {grads.shape} does not fit state {state.theta.shape}")
    if method == "adam":
        r, decay = _adam_block(state, grads, cells), cells.decay
    elif method in ("gd", "signsgd"):
        r, decay = (gd_step if method == "gd" else signsgd_step)(grads).r, None
    else:
        raise DomainError(f"unknown optimizer id {method!r}")
    step, theta = cells.eta * r, state.theta
    for t in range(len(r)):  # theta' = (theta - eta * R) * decay
        np.subtract(theta, step[t], out=theta)
        if decay is not None:
            np.multiply(theta, decay, out=theta)
    state.k += len(r)
    return r


def _adam_block(state: MomentState, grads: np.ndarray, cells: CellConfigs) -> np.ndarray:
    """Advance m and v in place over the block and return its R; every operation is per row."""
    # mv[t] = (keep1 * g_t, (keep2 * g_t) * g_t), then the moments after step t
    mv = np.multiply(cells.keeps, grads[:, None])
    mv[:, 1] *= grads
    prev, decayed = np.array((state.m, state.v)), np.empty((2,) + state.m.shape)
    for t in range(len(mv)):  # m = b1 * m + keep1 * g,  v = b2 * v + keep2 * g * g
        np.multiply(cells.betas, prev, out=decayed)
        prev = np.add(decayed, mv[t], out=mv[t])

    hat = mv / cells.divisors(state.k, len(mv)) if cells.bias_correction else mv
    denom = np.sqrt(hat[:, 1]) + cells.epsilon
    if cells.exact_rows is not None and ((denom == 0.0) & cells.exact_rows).any():
        raise DomainError("epsilon = 0 with a zero second-moment coordinate")
    state.m[...], state.v[...] = prev
    return np.divide(hat[:, 0], denom, out=denom)


def row_norms(r: np.ndarray) -> np.ndarray:
    """2-norm of each row of a (..., d) array, shaped (...).

    A batched matmul runs one BLAS dot per row, the same call
    ``np.linalg.norm`` makes for one vector, so each norm is bit-identical
    to ``UpdateVector(row).norm(2)``.
    """
    return np.sqrt(np.matmul(r[..., None, :], r[..., :, None])[..., 0, 0])


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
