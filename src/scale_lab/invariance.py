"""Operational probes of gradient scale invariance.

Three experiments:

* an instantaneous probe: freeze the optimizer state, rescale the current
  gradient by lambda > 0, and compare the update vectors;
* a first-order sensitivity fit: drive the flow with exponential drifts and
  fit how the asymptotic deviation of ||R|| from 1 scales with the drift
  rate (slope 2 when tau1 = tau2, slope 1 with coefficient |tau2 - tau1|
  otherwise);
* a step-rescale experiment: multiply a constant gradient stream by a
  per-step multiplier array and record how ||R_k|| excurses and recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drift import _exponential_ladder, fit_power_law
from .errors import DomainError
from .flow import TimeScales
from .optimizers import CellConfigs, MomentState, OptimizerConfig, optimizer_step, row_norms

EXACT_TOL = 1e-12  # relative classification threshold for exact invariance / linearity
STEP_BLOCK = 1024  # stream steps per optimizer-kernel call; blocks bound the memory of a long run
_NORMAL_SQUARE_FLOOR = 2.0 ** -511  # the smallest |g| whose g * g is still a normal float


@dataclass(frozen=True)
class RescaleProbeResult:
    """Deviations ||R(lambda g) - R(g)||_inf over a ladder of rescalings."""

    method: str
    lambda_values: list[float]
    deviations: list[float]
    classification: str  # exact-invariant | scale-linear | other

    def deviation_at(self, lam: float) -> float:
        return self.deviations[self.lambda_values.index(lam)]


def exact_invariance_probe(method: str, state: MomentState | None, g: np.ndarray,
                           lambdas: Sequence[float],
                           config: OptimizerConfig | None = None) -> RescaleProbeResult:
    """Probe one step with the internal state held fixed across rescalings.

    ``method`` is adam, gd (R = g) or signsgd (R = sign(g)); gd and signsgd
    are stateless and need no state or config.  For adam the gradient and its
    rescalings run as the rows of one ``optimizer_step`` from copies of
    ``state``.  A rescaled gradient, stepped moment or R that is not finite
    (an overflow, or the square root of a negative v) is a ``DomainError``,
    not evidence.  Both checks are relative: a deviation counts as zero when
    it is at most ``EXACT_TOL * max(||R(g)||_inf, ||R(lambda g)||_inf)``.
    """
    lams = [float(l) for l in lambdas]
    if any(l <= 0.0 for l in lams):
        raise DomainError("rescaling factors must be strictly positive")
    if method not in ("adam", "gd", "signsgd"):
        raise DomainError(f"unknown optimizer id {method!r}")
    if method == "adam" and (state is None or config is None):
        raise DomainError("adam probe needs a frozen state and a config")
    g = np.asarray(g, dtype=float)
    moments = []
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.stack([g] + [lam * g for lam in lams])
        if method == "adam":
            frozen = MomentState(*(np.tile(a, (len(rows), 1))
                                   for a in (state.m, state.v, state.theta)), k=state.k)
            r = optimizer_step(frozen, rows[None], CellConfigs([config] * len(rows)))[0]
            moments = [frozen.m, frozen.v]
        else:
            r = rows if method == "gd" else np.sign(rows)
    if not all(np.isfinite(a).all() for a in [rows, r] + moments):
        raise DomainError("a rescaled gradient, stepped moment or R of the probe is not finite")
    base, *scaled = r
    size = np.max(np.abs(r), axis=1)
    bounds = [EXACT_TOL * max(size[0], s) for s in size[1:]]
    deviations = [float(np.max(np.abs(r - base))) for r in scaled]
    if all(d <= b for d, b in zip(deviations, bounds)):
        cls = "exact-invariant"
    elif all(np.max(np.abs(r - lam * base)) <= b for lam, r, b in zip(lams, scaled, bounds)):
        cls = "scale-linear"
    else:
        cls = "other"
    return RescaleProbeResult(method=method, lambda_values=lams,
                              deviations=deviations, classification=cls)


@dataclass(frozen=True)
class SensitivityFit:
    """Fitted scale sensitivity of the flow's asymptotic update norm."""

    slope: float            # log-log slope of | ||R|| - 1 | against delta0
    coefficient: float      # |deviation / delta0| extrapolated to delta0 -> 0
    delta0_grid: list[float]
    deviations: list[float]         # | ||R||_inf - 1 | per drift rate
    signed_deviations: list[float]  # ||R||_inf - 1, sign kept


def first_order_sensitivity(ts: TimeScales, delta0_grid: Sequence[float],
                            h: float | None = None) -> SensitivityFit:
    """Fit the asymptotic deviation of ||R|| from 1 across exponential drifts.

    Each drift rate is integrated from the first-order steady initialization
    until well past burn-in, and the deviation is read off the final sample.
    The coefficient uses Richardson extrapolation on the two smallest rates,
    which must be in ratio 2 as in a doubling grid, so the first-order
    coefficient is recovered even though the deviation carries an
    O(delta0^2) tail.
    """
    rates = sorted(float(d) for d in delta0_grid)
    if len(rates) < 3:
        raise DomainError(f"sensitivity fit needs at least 3 drift rates, got {len(rates)}")
    if abs(rates[1] - 2.0 * rates[0]) > 2e-12 * abs(rates[0]):
        raise DomainError(f"Richardson step needs the two smallest drift rates in ratio 2, "
                          f"got {rates[0]} and {rates[1]}")
    signed = [float(np.max(np.abs(trace.r[-1]))) - 1.0
              for _, trace in _exponential_ladder(ts, rates, h)]
    deviations = [abs(s) for s in signed]
    slope, _ = fit_power_law(rates, deviations)
    q0, q1 = signed[0] / rates[0], signed[1] / rates[1]
    coefficient = abs(2.0 * q0 - q1)
    return SensitivityFit(slope=slope, coefficient=coefficient, delta0_grid=rates,
                          deviations=deviations, signed_deviations=signed)


@dataclass(frozen=True)
class StepTrace:
    """Per-step record of a discrete run under a multiplier schedule."""

    steps: np.ndarray
    multiplier: np.ndarray
    norm_r: np.ndarray
    beta1: float
    beta2: float

    def transient_integral(self, start: int, reference: float | None = None) -> float:
        """Sum of |  ||R_k|| - reference | from ``start`` on.

        The reference defaults to the steady value before ``start``.
        """
        if reference is None:
            reference = float(self.norm_r[start - 1])
        return float(np.sum(np.abs(self.norm_r[start:] - reference)))


def step_scale_cells(base: np.ndarray, multipliers: np.ndarray,
                     configs: Sequence[OptimizerConfig], init: str = "steady") -> list[StepTrace]:
    """Feed ``multipliers[k] * base`` to C optimizer cells in lockstep and record ||R_k||.

    One positive multiplier per step; ``step_multipliers`` builds them from a
    piecewise schedule.  Every cell sees the same gradient, so the cells run
    as (C, d) rows of one state and each row is bit-identical to the cell run
    alone.  ``init="steady"`` starts the moments at the fixed point of the
    first gradient (m = g0, v = g0^2), so the pre-jump norm sits exactly at
    its steady value; ``init="zero"`` starts from m = v = 0.  A block whose
    moments are not finite (an overflowed gradient or g * g) is a ``DomainError``,
    and so is a nonzero fed entry ``|multipliers[k] * base|`` below 2**-511,
    whose square underflows to a subnormal or zero second moment.
    """
    mults = np.array(multipliers, dtype=float)
    if mults.ndim != 1 or mults.size == 0 or not (mults > 0.0).all():
        raise DomainError("multipliers must be a non-empty 1-D array of positive numbers")
    if init not in ("steady", "zero"):
        raise DomainError(f"unknown init mode {init!r}")
    base = np.asarray(base, dtype=float)
    smallest = np.abs(base[base != 0.0]).min(initial=np.inf) * mults.min()
    if smallest < _NORMAL_SQUARE_FLOOR:
        raise DomainError(f"a fed gradient entry |multipliers[k] * base| = {float(smallest)!r} "
                          f"is below 2**-511: its square underflows past the normal floats")
    steps = mults.size
    cells = CellConfigs(configs)
    base_rows = np.tile(base, (len(cells), 1))
    norm_r = np.empty((steps, len(cells)))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments raise below
        m = base_rows * mults[0] if init == "steady" else np.zeros_like(base_rows)
        state = MomentState(m=m, v=m * m, theta=np.zeros_like(m))
        for k in range(0, steps, STEP_BLOCK):
            block = mults[k:k + STEP_BLOCK, None, None]
            r = optimizer_step(state, base_rows * block, cells)
            if not (np.isfinite(state.m).all() and np.isfinite(state.v).all()):
                raise DomainError(f"a step-scale moment is not finite by step {k + len(block)}")
            norm_r[k:k + len(block)] = row_norms(r)
    return [StepTrace(steps=np.arange(steps), multiplier=mults, norm_r=norm_r[:, i],
                      beta1=cfg.beta1, beta2=cfg.beta2) for i, cfg in enumerate(cells.configs)]


def step_scale_grid(base: np.ndarray, multipliers: np.ndarray, beta_axis: Sequence[float],
                    init: str = "steady") -> dict[tuple[float, float], StepTrace]:
    """Raw Adam (epsilon = 0) on every (beta1, beta2) pair of the axis, all cells in lockstep."""
    grid = [(float(b1), float(b2)) for b1 in beta_axis for b2 in beta_axis]
    if not grid:
        return {}
    configs = [OptimizerConfig(beta1=b1, beta2=b2, epsilon=0.0, bias_correction=False)
               for b1, b2 in grid]
    return dict(zip(grid, step_scale_cells(base, multipliers, configs, init=init)))
