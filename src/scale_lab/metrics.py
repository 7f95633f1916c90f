"""Oscillation metrics and the diagonal-selection significance test.

The update-norm series is smoothed with an exponential moving average
(alpha = 2 / (window + 1), seeded at the first sample, so window 1 is the
identity) and summarized by

    omega1 = mean |x_{k+1} - x_k|            (first differences)
    omega2 = mean |x_{k+1} - 2 x_k + x_{k-1}|  (second differences)

both normalized over T - 1 terms; omega2 fills its leftmost slot, which has
no centered stencil, by reusing the first interior difference one-sidedly.

Whether the smoothest column of an n x n (beta1, beta2) grid sits on the
diagonal is scored per (row, seed) and tested against a Binomial(N, 1/n)
null with an exact one-sided tail computed in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError


def ema_smooth(series: Sequence[float], window: int) -> np.ndarray:
    """EMA with alpha = 2/(window+1), s_0 = x_0; window 1 returns the input bit-exactly."""
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise DomainError("cannot smooth an empty series")
    if window == 1:
        return x.copy()
    alpha = 2.0 / (window + 1)
    out = np.empty_like(x)
    out[0] = x[0]
    for k in range(1, x.size):
        out[k] = alpha * x[k] + (1.0 - alpha) * out[k - 1]
    return out


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


def binomial_diagonal_test(k: int, n: int, width: int = 3) -> float:
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

    omega: list[np.ndarray]      # one (n x n) matrix per seed; rows fix beta1
    beta_axis: list[float]
    hits: int                    # K: scored rows whose argmin column equals the row
    trials: int                  # N: scored (row, seed) pairs
    rate: float
    p_value: float
    argmin_cols: list[list[int]]            # per seed, per row; -1 for an unscored row
    degenerate_rows: list[tuple[int, int]]  # (seed, row) with an all-equal row


def omega_grids(cells: Mapping[tuple[float, float, int], float], axis: Sequence[float],
                seeds: Sequence[int]) -> list[np.ndarray]:
    """Per seed, the (n x n) matrix of ``cells[(beta1, beta2, seed)]``; row i fixes axis[i]."""
    return [np.array([[cells[(b1, b2, s)] for b2 in axis] for b1 in axis], dtype=float)
            for s in seeds]


def grid_report(omega_grids: Sequence[np.ndarray], beta_axis: Sequence[float]) -> OscillationGridReport:
    """Score diagonal selection over (row, seed) pairs and attach the exact test.

    NaN and infinite entries are +inf in the argmin (a diverged run never
    wins); ties resolve to the lowest column index.  Rows whose entries are
    all equal are flagged as degenerate; they are still scored by the tie rule
    unless every entry is NaN or infinite, in which case no column can win and
    the row is left out of K and N.  Raises ``DomainError`` when no row can be scored.
    """
    grids = [np.asarray(g, dtype=float) for g in omega_grids]
    if not grids:
        raise DomainError("empty grid list")
    axis = [float(b) for b in beta_axis]
    n = len(axis)
    for g in grids:
        if g.shape != (n, n):
            raise DomainError(f"grid shape {g.shape} does not match axis length {n}")

    vals = np.stack(grids)
    vals[~np.isfinite(vals)] = np.inf
    scored = (vals != np.inf).any(axis=2)  # a row of diverged cells is no evidence either way
    if not scored.any():
        raise DomainError("no row of the grids can be scored: every cell is NaN or +inf")
    cols = np.where(scored, vals.argmin(axis=2), -1)  # argmin takes the first minimum on ties
    hits, trials = int((cols == np.arange(n)).sum()), int(scored.sum())
    degenerate = (vals == vals[..., :1]).all(axis=2)
    return OscillationGridReport(
        omega=grids, beta_axis=axis, hits=hits, trials=trials,
        rate=hits / trials, p_value=binomial_diagonal_test(hits, trials, n),
        argmin_cols=cols.tolist(),
        degenerate_rows=list(map(tuple, np.argwhere(degenerate).tolist())),
    )


def combine_reports(reports: Sequence[OscillationGridReport]) -> tuple[int, int, float]:
    """Pool diagonal hits across independent reports of one axis width: (K, N, p)."""
    widths = {len(r.beta_axis) for r in reports}
    if len(widths) != 1:
        raise DomainError(f"cannot pool reports over axis widths {sorted(widths)}")
    k = sum(r.hits for r in reports)
    n = sum(r.trials for r in reports)
    return k, n, binomial_diagonal_test(k, n, widths.pop())
