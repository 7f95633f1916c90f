"""Operational probes of gradient scale invariance.

Two experiments on the discrete optimizer (the flow's sensitivity fit is in ``drift``):

* an instantaneous probe: freeze the optimizer state, rescale the current
  gradient by lambda > 0, and compare the update vectors;
* a step-rescale experiment: feed a gradient stream, one (steps, d) array
  (a constant gradient times a per-step multiplier, say), to raw Adam and
  record how ||R_k|| excurses and recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, require_distinct
from .optimizers import CellConfigs, MomentState, optimizer_step, row_norms

EXACT_TOL = 1e-12  # relative classification threshold for exact invariance / linearity
STEP_BLOCK = 1024  # stream steps per optimizer-kernel call; blocks bound the memory of a long run


@dataclass(frozen=True)
class RescaleProbeResult:
    """Deviations ||R(lambda g) - R(g)||_inf over a ladder of rescalings."""

    method: str
    lambda_values: list[float]
    deviations: list[float]
    classification: str  # exact-invariant | scale-linear | other


def exact_invariance_probe(method: str, state: MomentState | None, g: np.ndarray,
                           lambdas: Sequence[float],
                           cells: CellConfigs | None = None) -> RescaleProbeResult:
    """Probe one step with the internal state held fixed across rescalings.

    ``method`` is adam, gd (R = g) or signsgd (R = sign(g)); gd and signsgd are stateless and
    need no state or cells.  For adam, ``cells`` is one cell and ``state`` its (2, d) moments;
    the gradient and its rescalings run side by side along the coordinate axis of that cell,
    from copies of ``state``, in one ``optimizer_step``: every Adam operation acts per
    coordinate, so each is bit-identical to its own step.  An empty ``lambdas`` or ``g`` is a
    ``DomainError``: no rescaling is no evidence.  A rescaled gradient or R that is not finite
    (an overflowed m, v or corrected v, or the square root of a negative v) is a
    ``DomainError``, not evidence.  Both checks are relative: a deviation counts as zero when
    it is at most ``EXACT_TOL * max(||R(g)||_inf, ||R(lambda g)||_inf)``.
    """
    lams = [float(l) for l in lambdas]
    g = np.asarray(g, dtype=float)
    if not lams or g.size == 0:
        raise DomainError(f"nothing to probe: {len(lams)} rescalings of {g.size} gradient entries")
    if any(l <= 0.0 for l in lams):
        raise DomainError("rescaling factors must be strictly positive")
    if method not in ("adam", "gd", "signsgd"):
        raise DomainError(f"unknown optimizer id {method!r}")
    if method == "adam" and (state is None or cells is None):
        raise DomainError("adam probe needs a frozen state and its cell")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.stack([g] + [lam * g for lam in lams])
        if method == "adam":
            frozen = MomentState(np.tile(state.mv, len(rows))[:, None], state.k)
            r = optimizer_step(frozen, rows.reshape(1, 1, -1), cells).reshape(rows.shape)
        else:
            r = rows if method == "gd" else np.sign(rows)
        if not (np.isfinite(rows).all() and np.isfinite(r).all()):
            raise DomainError("a rescaled gradient, moment or R of the probe is not finite")
        base, *scaled = r
        # an overflowed lam * R(g) is inf, so that rescaling does not count as linear
        linear = [np.max(np.abs(r - lam * base)) for lam, r in zip(lams, scaled)]
    size = np.max(np.abs(r), axis=1)
    bounds = [EXACT_TOL * max(size[0], s) for s in size[1:]]
    deviations = [float(np.max(np.abs(r - base))) for r in scaled]
    if all(d <= b for d, b in zip(deviations, bounds)):
        cls = "exact-invariant"
    elif all(x <= b for x, b in zip(linear, bounds)):
        cls = "scale-linear"
    else:
        cls = "other"
    return RescaleProbeResult(method=method, lambda_values=lams,
                              deviations=deviations, classification=cls)


def step_scale_cells(stream: np.ndarray, pairs: Sequence[tuple[float, float]]) -> np.ndarray:
    """Feed the gradients ``stream[k]`` of a (steps, d) array to one raw-Adam cell (epsilon 0, no
    bias correction) per (beta1, beta2) of ``pairs``, all in lockstep; the (steps, C) ||R_k||.

    Every cell sees the same gradient, so the cells run as (C, d) rows of one state and column i,
    the norms of ``pairs[i]``, is bit-identical to the cell run alone.  The moments start at the
    fixed point of the first gradient (m = g0, v = g0^2), so a constant stream's norm sits at its
    steady value from the first step on.  A stream that is not a non-empty 2-D array is a
    ``DomainError``; so is, up front and named by its step, an entry that is not finite or at
    least 2**511 and a nonzero one below 2**-511, whose square underflows to a subnormal or
    zero.  In between, m and v are convex combinations of finite values below 2**1022.
    """
    stream = np.asarray(stream, dtype=float)
    if stream.ndim != 2 or stream.size == 0:
        raise DomainError(f"a gradient stream must be a non-empty (steps, d) array, "
                          f"got shape {stream.shape}")
    cells = CellConfigs(pairs, epsilon=0.0, bias_correction=False)
    size = np.abs(stream)
    for outside, why in [(~(size < 2.0 ** 511), "is not finite or at least 2**511"),  # NaN too
                         ((size > 0.0) & (size < 2.0 ** -511), "is below 2**-511: g * g underflows")]:
        if outside.any():
            step, i = np.argwhere(outside)[0]
            raise DomainError(f"a fed gradient entry at step {step}, coordinate {i}: "
                              f"|g| = {float(size[step, i])!r} {why}")
    shape = (len(cells), stream.shape[1])
    norm_r = np.empty((len(stream), len(cells)))
    with np.errstate(over="ignore"):  # m and v stay finite; an R may not
        state = MomentState(np.repeat([stream[:1], stream[:1] * stream[:1]], len(cells), axis=1))
        for k in range(0, len(stream), STEP_BLOCK):
            block = stream[k:k + STEP_BLOCK, None]
            r = optimizer_step(state, np.broadcast_to(block, (len(block),) + shape), cells)
            norm_r[k:k + len(block)] = row_norms(r)
    return norm_r


def step_scale_grid(stream: np.ndarray,
                    beta_axis: Sequence[float]) -> dict[tuple[float, float], np.ndarray]:
    """Every (beta1, beta2) pair of the axis mapped to its column of the ``step_scale_cells``
    norms of ``stream``, all pairs in lockstep.  A repeated beta is a ``DomainError``: its
    pairs would be computed twice and kept once."""
    axis = [float(b) for b in beta_axis]
    require_distinct(axis, "the beta axis")
    grid = [(b1, b2) for b1 in axis for b2 in axis]
    return dict(zip(grid, step_scale_cells(stream, grid).T))
