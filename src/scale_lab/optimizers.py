"""The Adam kernel: the moment recurrences and the update vector.

Adam maintains exponential moving averages of the gradient and its square,

    m' = b1 * m + (1 - b1) * g
    v' = b2 * v + (1 - b2) * g**2

and normalizes them into the update vector

    R = m_hat / (sqrt(v_hat) + eps),

where (m_hat, v_hat) are the bias-corrected moments when enabled and the raw
ones otherwise.  The kernel steps the moments and returns R, which is all the
scale-sensitivity analysis reads; ``train_cells`` alone takes the parameter
step ``theta' = theta - eta * R``.

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
    """Adam hyperparameters.

    ``epsilon = 0`` is the analysis mode; the caller must then keep v
    strictly positive.  ``eta`` is read by ``train_cells`` alone: the kernel
    returns R and takes no parameter step.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eta: float = 1e-3
    epsilon: float = 1e-8
    bias_correction: bool = True

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise DomainError(f"betas must lie in (0,1), got ({self.beta1}, {self.beta2})")
        if self.epsilon < 0.0:
            raise DomainError(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass
class MomentState:
    """Per-coordinate optimizer state: moments and step counter k (an integer >= 0); mutable."""

    m: np.ndarray
    v: np.ndarray
    k: int = 0

    def __post_init__(self):
        if self.m.shape != self.v.shape:
            raise DimensionError(f"m/v shapes disagree: {self.m.shape}, {self.v.shape}")
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 0:
            raise DomainError(f"step counter k must be an integer >= 0, got {self.k!r}")


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
        self.epsilon = column(c.epsilon for c in cfgs)
        # None when no row has epsilon 0, so the kernel skips that check
        self.exact_rows = self.epsilon == 0.0 if (self.epsilon == 0.0).any() else None
        # bias-correction divisors are powers of the distinct corrected betas; _slots maps
        # the b1 rows over the b2 rows to their beta's slot, slot 0 holding 1.0 for no correction
        corrected = [[c.beta1 if c.bias_correction else None for c in cfgs],
                     [c.beta2 if c.bias_correction else None for c in cfgs]]
        self._bases = sorted({b for row in corrected for b in row} - {None})
        self._slots = np.array([[0 if b is None else 1 + self._bases.index(b) for b in row]
                                for row in corrected])
        self.bias_correction = bool(self._bases)

    def __len__(self) -> int:
        return len(self.configs)

    def divisors(self, k: int, steps: int) -> np.ndarray:
        """Bias-correction divisors ``1 - b ** j`` of steps j = k + 1 .. k + steps as Python
        floats, as one cell computes them, shaped (steps, 2, C, 1); 1.0 for uncorrected rows."""
        table = np.array([[1.0] + [1.0 - b ** j for b in self._bases]
                          for j in range(k + 1, k + steps + 1)])
        return table[:, self._slots, None]


def adam_step(state: MomentState, g: np.ndarray,
              config: OptimizerConfig | CellConfigs) -> tuple[MomentState, np.ndarray]:
    """One Adam step; returns the stepped moments and the update vector R.

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
    new = MomentState(state.m.reshape(rows).copy(), state.v.reshape(rows).copy(), state.k)
    r = optimizer_step(new, g.reshape((1,) + rows), cells)[0]
    return MomentState(new.m.reshape(shape), new.v.reshape(shape), new.k), r.reshape(shape)


def optimizer_step(state: MomentState, grads: np.ndarray, cells: CellConfigs) -> np.ndarray:
    """Adam-step the (C, d) cells of ``state`` in place over T gradients ``grads`` (T, C, d).

    Returns R of every step, shaped (T, C, d), and advances ``state.k`` by T.
    Step t is bit-identical to the t-th of T one-step calls: only the m and v
    recurrences run step by step, step 0 on the state's own (C, d) planes and
    each later step in two calls for both moments; the increments, bias
    corrections, ``epsilon = 0`` check and R are computed for the whole block
    in the same operation order, in one (T, 2, C, d) buffer that R is a view
    of.  A ``DomainError`` changes no state.
    """
    if grads.shape[1:] != state.m.shape:
        raise DimensionError(f"gradient block {grads.shape} does not fit state {state.m.shape}")
    # mv[t] = (keep1 * g_t, (keep2 * g_t) * g_t), then the moments after step t
    mv = np.multiply(cells.keeps, grads[:, None])
    mv[:, 1] *= grads
    # m = b1 * m + keep1 * g,  v = b2 * v + keep2 * g * g
    for plane, beta, moment in zip(mv[0], cells.betas, (state.m, state.v)):
        plane += beta * moment
    decayed = np.empty(mv.shape[1:]) if len(mv) > 1 else None
    for prev, moments in zip(mv[:-1], mv[1:]):
        np.add(np.multiply(cells.betas, prev, out=decayed), moments, out=moments)

    # v == 0 exactly where sqrt(v_hat) + epsilon == 0 on an epsilon = 0 row: 1 - b ** j
    # lies in (0, 1], so the bias correction never makes a nonzero v zero
    if cells.exact_rows is not None and ((mv[:, 1] == 0.0) & cells.exact_rows).any():
        raise DomainError("epsilon = 0 with a zero second-moment coordinate")
    state.m[...], state.v[...] = mv[-1]
    if cells.bias_correction:
        mv /= cells.divisors(state.k, len(mv))
    state.k += len(mv)
    denom = np.sqrt(mv[:, 1], out=mv[:, 1])
    denom += cells.epsilon
    return np.divide(mv[:, 0], denom, out=denom)


def row_norms(r: np.ndarray) -> np.ndarray:
    """2-norm of each row of a (..., d) array, shaped (...).

    A batched matmul runs one BLAS dot per row, the same call
    ``np.linalg.norm`` makes for one vector, so each norm is bit-identical
    to ``np.linalg.norm(row)``.
    """
    return np.sqrt(np.matmul(r[..., None, :], r[..., :, None])[..., 0, 0])


def constant_gradient_closed_form(c: float | np.ndarray, k: int, beta1: float, beta2: float) -> np.ndarray:
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
    return np.sign(c) * magnitude
