"""Oscillation metrics and the diagonal-selection significance test.

The update-norm series is smoothed with an exponential moving average
(alpha = 2 / (window + 1), seeded at the first sample, so window 1 is the
identity) and summarized by

    omega1 = mean |x_{k+1} - x_k|            (first differences)
    omega2 = mean |x_{k+1} - 2 x_k + x_{k-1}|  (second differences)

both normalized over T - 1 terms; omega2 fills its leftmost slot, which has
no centered stencil, by reusing the first interior difference one-sidedly.

Whether the smoothest column of an n x n (beta1, beta2) grid sits on the
diagonal is scored per (row, seed), on the rows whose minimum one column
holds alone, and tested against a Binomial(N, 1/n) null with an exact
one-sided tail computed in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError


def ema_smooth(series: Sequence[float] | np.ndarray, window: int) -> np.ndarray:
    """EMA with alpha = 2/(window+1), s_0 = x_0, of each row of a (..., T) array (a 1-D
    series is one row); the loop runs over T, each step for every row at once, so each
    row is bit-identical to its own 1-D call.  Window 1 returns the input bit-exactly."""
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    x = np.asarray(series, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DomainError("cannot smooth an empty series")
    if window == 1:
        return x.copy()
    alpha = 2.0 / (window + 1)
    steps = np.moveaxis(x, -1, 0)  # views: steps[k] holds sample k of every row
    out = np.empty_like(steps)
    out[0] = steps[0]
    for k in range(1, len(steps)):
        out[k] = alpha * steps[k] + (1.0 - alpha) * out[k - 1]
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def oscillation_omega1(series: Sequence[float]) -> float:
    """Mean absolute first difference."""
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise DomainError(f"omega1 needs at least 2 samples, got {x.size}")
    return float(np.mean(np.abs(np.diff(x))))


def oscillation_omega2(series: Sequence[float]) -> float:
    """Mean absolute second difference over T-1 slots (left slot one-sided)."""
    x = np.asarray(series, dtype=float)
    if x.size < 3:
        raise DomainError(f"omega2 needs at least 3 samples, got {x.size}")
    interior = np.abs(x[2:] - 2.0 * x[1:-1] + x[:-2])
    terms = np.concatenate([[interior[0]], interior])
    return float(np.sum(terms) / (x.size - 1))


# How a sweep cell is scored, by name: --metric's choices (first the default) and grid.csv's order
METRICS = {"omega1": oscillation_omega1, "omega2": oscillation_omega2}


def binomial_diagonal_test(k: int, n: int, width: int) -> float:
    """Exact one-sided tail P(X >= k) for X ~ Binomial(n, 1/width).

    ``width`` is the length of the beta axis: under the null each row's
    smoothest column is uniform over its ``width`` columns.  Computed from
    integer binomial coefficients: the tail equals
    sum_{j >= k} C(n, j) (width-1)^(n-j) divided by width^n.
    """
    if n < 1:
        raise DomainError(f"binomial test needs n >= 1, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"k must lie in [0, {n}], got {k}")
    if width < 1:
        raise DomainError(f"axis width must be >= 1, got {width}")
    numerator = sum(math.comb(n, j) * (width - 1) ** (n - j) for j in range(k, n + 1))
    return numerator / width ** n


@dataclass(frozen=True)
class OscillationGridReport:
    """Diagonal-selection statistics of per-seed oscillation grids."""

    hits: int                    # K: scored rows whose argmin column equals the row
    trials: int                  # N: scored (row, seed) pairs
    p_value: float
    argmin_cols: list[list[int]]  # per seed, per row; -1 for an unscored row

    @property
    def rate(self) -> float:
        return self.hits / self.trials


def omega_grids(cells: Mapping[tuple[float, float, int], float], axis: Sequence[float],
                seeds: Sequence[int]) -> list[np.ndarray]:
    """Per seed, the (n x n) matrix of ``cells[(beta1, beta2, seed)]``; row i fixes axis[i]."""
    return [np.array([[cells[(b1, b2, s)] for b2 in axis] for b1 in axis], dtype=float)
            for s in seeds]


def grid_report(omega_grids: Sequence[np.ndarray], beta_axis: Sequence[float]) -> OscillationGridReport:
    """Score diagonal selection over (row, seed) pairs and attach the exact test.

    NaN and infinite entries are +inf in the argmin (a diverged run never
    wins).  A row is scored only when exactly one column holds its minimum
    and that minimum is finite: a tied row or a row of diverged cells is no
    evidence either way, so it is left out of K and N and its argmin is -1.
    Pooling independent grids of one axis is one call on their concatenated
    list.  Raises ``DomainError`` when no row can be scored.
    """
    grids = [np.asarray(g, dtype=float) for g in omega_grids]
    if not grids:
        raise DomainError("empty grid list")
    n = len(beta_axis)
    for g in grids:
        if g.shape != (n, n):
            raise DomainError(f"grid shape {g.shape} does not match axis length {n}")

    vals = np.stack(grids)
    vals[~np.isfinite(vals)] = np.inf
    low = vals.min(axis=2, keepdims=True, initial=np.inf)  # an empty axis scores no row
    scored = ((vals == low).sum(axis=2) == 1) & (low[..., 0] < np.inf)
    if not scored.any():
        raise DomainError("no row of the grids can be scored: "
                          "every row is tied or all NaN or +inf")
    cols = np.where(scored, vals.argmin(axis=2), -1)
    hits, trials = int((cols == np.arange(n)).sum()), int(scored.sum())
    return OscillationGridReport(hits=hits, trials=trials, argmin_cols=cols.tolist(),
                                 p_value=binomial_diagonal_test(hits, trials, n))
