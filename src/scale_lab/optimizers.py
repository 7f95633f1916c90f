"""The Adam kernel: the moment recurrences and the update vector.

Adam maintains exponential moving averages of the gradient and its square,

    m' = b1 * m + (1 - b1) * g
    v' = b2 * v + (1 - b2) * g**2

and normalizes them into the update vector

    R = m_hat / (sqrt(v_hat) + eps),

where (m_hat, v_hat) are the bias-corrected moments when enabled and the raw
ones otherwise.  The kernel steps the moments and returns R, which is all the
scale-sensitivity analysis reads; ``train_cells`` alone takes the parameter
step ``theta' = theta - eta * R``.  Overflow is decided here: wherever
``sqrt(v_hat) + eps`` is inf, R is NaN, never 0, so a non-finite m, v or
v_hat is a non-finite R, which is what every caller checks.

``optimizer_step`` is the one kernel entry: it steps C cells stacked as (C, d)
rows (``CellConfigs``, one epsilon and bias correction for all) in place over
a block of T gradients, each row and step bit-identical to that cell stepped
alone, one step at a time.  A steady block, whose T > 1 gradients share the
float64 bits of the first (0.0 and -0.0 differ) and whose step 0 leaves m and
v bit-identical, is filled with step 0's moments: later steps repeat its bits.
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
        if not self.epsilon >= 0.0:  # NaN too
            raise DomainError(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass
class MomentState:
    """Mutable optimizer state: moments ``mv``, m then v as (2, ..., d), and step counter k >= 0."""

    mv: np.ndarray
    k: int = 0

    def __post_init__(self):
        if self.mv.ndim < 2 or len(self.mv) != 2:
            raise DimensionError(f"moments must stack m and v as (2, ..., d), got {self.mv.shape}")
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 0:
            raise DomainError(f"step counter k must be an integer >= 0, got {self.k!r}")


class CellConfigs:
    """C optimizer configurations stepped in lockstep, one row per cell.

    One epsilon and one bias-correction setting serve every row (a batch
    mixing either is a ``DomainError``); the betas become (2, C, 1) columns,
    b1 then b2, that broadcast against the (2, C, d) moments, so row i
    computes exactly what ``configs[i]`` computes alone.
    """

    def __init__(self, configs: Sequence[OptimizerConfig]):
        cfgs = tuple(configs)
        if not cfgs:
            raise DomainError("a cell batch needs at least one config")
        shared = sorted({(c.epsilon, c.bias_correction) for c in cfgs})
        if len(shared) > 1:
            raise DomainError(f"a cell batch shares one (epsilon, bias_correction), got {shared}")
        self.epsilon, self.bias_correction = float(shared[0][0]), bool(shared[0][1])
        betas = [[c.beta1 for c in cfgs], [c.beta2 for c in cfgs]]
        self.betas = np.array(betas, dtype=float)[:, :, None]
        self.keeps = 1.0 - self.betas
        # divisors are powers of the distinct betas; _slots maps b1 over b2 rows to their slots
        self._bases = sorted({b for row in betas for b in row})
        self._slots = np.array([[self._bases.index(b) for b in row] for row in betas])

    def __len__(self) -> int:
        return self.betas.shape[1]

    def divisors(self, k: int, steps: int) -> np.ndarray:
        """Bias-correction divisors ``1 - b ** j`` of steps j = k + 1 .. k + steps as Python
        floats, as one cell computes them, shaped (steps, 2, C, 1)."""
        table = np.array([[1.0 - b ** j for b in self._bases]
                          for j in range(k + 1, k + steps + 1)])
        return table[:, self._slots, None]


def _repeats_step_zero(grads: np.ndarray, moments: np.ndarray, start: np.ndarray) -> bool:
    """Whether all ``grads`` have the first's bits and step 0's ``moments`` those of ``start``."""
    g, after, before = (np.asarray(a, dtype=float).view(np.int64)
                        for a in (grads, moments, start))
    return bool((g[1:] == g[0]).all()) and np.array_equal(after, before)


def optimizer_step(state: MomentState, grads: np.ndarray, cells: CellConfigs) -> np.ndarray:
    """Adam-step the (2, C, d) moments of ``state`` in place over T gradients ``grads`` (T, C, d).

    Returns R of every step, shaped (T, C, d), and advances ``state.k`` by T.
    Step t is bit-identical to the t-th of T one-step calls: only the m and v
    recurrences run step by step, each step in two calls for both moments,
    step 0 from the state's own moments; the increments, bias corrections,
    ``epsilon = 0`` check and R are computed for the whole block in the same
    operation order, in one (T, 2, C, d) buffer that R is a view of.  R is
    NaN wherever the denominator overflowed (module docstring).  A steady
    block is filled, not stepped.  A ``DomainError`` changes no state.
    """
    if grads.shape[1:] != state.mv.shape[1:] or state.mv.shape[1:-1] != (len(cells),):
        raise DimensionError(f"gradient block {grads.shape} does not fit the state "
                             f"{state.mv.shape} of {len(cells)} cells")
    # mv[t] = (keep1 * g_t, (keep2 * g_t) * g_t), then the moments after step t
    mv = np.multiply(cells.keeps, grads[:, None])
    mv[:, 1] *= grads
    # m = b1 * m + keep1 * g,  v = b2 * v + keep2 * g * g
    mv[0] += cells.betas * state.mv
    if len(mv) > 1 and _repeats_step_zero(grads, mv[0], state.mv):
        mv[1:] = mv[0]
    elif len(mv) > 1:
        decayed = np.empty(mv.shape[1:])
        for prev, moments in zip(mv[:-1], mv[1:]):
            np.add(np.multiply(cells.betas, prev, out=decayed), moments, out=moments)

    # with epsilon = 0, v == 0 exactly where sqrt(v_hat) + epsilon == 0: 1 - b ** j
    # lies in (0, 1], so the bias correction never makes a nonzero v zero
    if cells.epsilon == 0.0 and (mv[:, 1] == 0.0).any():
        raise DomainError("epsilon = 0 with a zero second-moment coordinate")
    state.mv[...] = mv[-1]
    if cells.bias_correction:
        mv /= cells.divisors(state.k, len(mv))
    state.k += len(mv)
    denom = np.sqrt(mv[:, 1], out=mv[:, 1])
    denom += cells.epsilon
    denom[denom == np.inf] = np.nan  # an overflowed v or v_hat makes R NaN, not 0
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
