"""Operational probes of gradient scale invariance.

Three experiments:

* an instantaneous probe: freeze the optimizer state, rescale the current
  gradient by lambda > 0, and compare the update vectors;
* a first-order sensitivity fit: drive the flow with exponential drifts and
  fit how the asymptotic deviation of ||R|| from 1 scales with the drift
  rate (slope 2 when tau1 = tau2, slope 1 with coefficient |tau2 - tau1|
  otherwise);
* a step-rescale experiment: multiply a constant gradient stream by a
  piecewise schedule and record how ||R_k|| excurses and recovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .drift import _exponential_ladder, fit_power_law
from .errors import DomainError
from .flow import TimeScales
from .optimizers import (CellConfigs, MomentState, OptimizerConfig, optimizer_step, row_norms,
                         zero_state)
from .signals import _multiplier_schedule

EXACT_TOL = 1e-12  # classification threshold for exact invariance / linearity
STEP_BLOCK = 1024  # stream steps per optimizer-kernel call; blocks bound the memory of a long run


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

    The gradient and its rescalings run as the rows of one ``optimizer_step``
    from copies of ``state``; gd and signsgd need no state or config.  A
    rescaled gradient, stepped moment or R that is not finite (an overflow,
    or the square root of a negative v) is a ``DomainError``, not evidence.
    """
    lams = [float(l) for l in lambdas]
    if any(l <= 0.0 for l in lams):
        raise DomainError("rescaling factors must be strictly positive")
    if method == "adam" and (state is None or config is None):
        raise DomainError("adam probe needs a frozen state and a config")
    g = np.asarray(g, dtype=float)
    if state is None:
        state = zero_state(g.size)
    cells = CellConfigs([config or OptimizerConfig()] * (len(lams) + 1))
    frozen = MomentState(*(np.tile(a, (len(cells), 1)) for a in (state.m, state.v, state.theta)),
                         k=state.k)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.stack([g] + [lam * g for lam in lams])
        r = optimizer_step(method, frozen, rows[None], cells)[0]
    if not all(np.isfinite(a).all() for a in (rows, frozen.m, frozen.v, r)):
        raise DomainError("a rescaled gradient, stepped moment or R of the probe is not finite")
    base, *scaled = r
    deviations = [float(np.max(np.abs(r - base))) for r in scaled]
    # a NaN deviation fails both checks, so it classifies as other
    linear = all(float(np.max(np.abs(r - lam * base))) < EXACT_TOL
                 for lam, r in zip(lams, scaled))
    if all(d < EXACT_TOL for d in deviations):
        cls = "exact-invariant"
    elif linear:
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


@dataclass(frozen=True)
class StepScaleExperiment:
    """A constant base gradient scaled by a step schedule, across a beta grid."""

    base: np.ndarray
    schedule: list[tuple[int, float]]        # (step index, multiplier), sorted
    beta_grid: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        if any(m <= 0.0 for _, m in self.schedule):
            raise DomainError("multipliers must be strictly positive")

    def multiplier_at(self, k):
        """Multiplier active at step k (an int or an array of steps)."""
        return _multiplier_schedule(self.schedule)(k)


def step_scale_cells(exp: StepScaleExperiment, configs: Sequence[OptimizerConfig],
                     steps: int, init: str = "steady",
                     method: str = "adam") -> list[StepTrace]:
    """Feed the scaled gradient stream to C optimizer cells in lockstep and record ||R_k||.

    Every cell sees the same gradient, so the cells run as (C, d) rows of
    one state and each row is bit-identical to the cell run alone.  For
    Adam, ``init="steady"`` starts the moments at the fixed point of the
    first segment (m = g0, v = g0^2), so the pre-jump norm sits exactly at
    its steady value; ``init="zero"`` starts from m = v = 0.  signSGD and GD
    are stateless and ignore the init mode.
    """
    starts = sorted(k for k, _ in exp.schedule)
    if len(set(starts)) != len(starts):
        raise DomainError("schedule has two segments starting at the same step")
    boundaries = [0] + starts + [steps]
    if any(b - a < 1 for a, b in zip(boundaries[:-1], boundaries[1:])):
        raise DomainError("every schedule segment must cover at least one step")

    if init not in ("steady", "zero"):
        raise DomainError(f"unknown init mode {init!r}")
    cells = CellConfigs(configs)
    base_rows = np.tile(np.asarray(exp.base, dtype=float), (len(cells), 1))
    mults = exp.multiplier_at(np.arange(steps))
    m = base_rows * mults[0] if init == "steady" else np.zeros_like(base_rows)
    state = MomentState(m=m, v=m * m, theta=np.zeros_like(m))
    norm_r = np.empty((steps, len(cells)))
    for k in range(0, steps, STEP_BLOCK):
        block = mults[k:k + STEP_BLOCK, None, None]
        norm_r[k:k + len(block)] = row_norms(optimizer_step(method, state, base_rows * block,
                                                            cells))
    return [StepTrace(steps=np.arange(steps), multiplier=mults, norm_r=norm_r[:, i],
                      beta1=cfg.beta1, beta2=cfg.beta2) for i, cfg in enumerate(cells.configs)]


def run_step_scale_experiment(exp: StepScaleExperiment, config: OptimizerConfig,
                              steps: int, init: str = "steady",
                              method: str = "adam") -> StepTrace:
    """One cell of ``step_scale_cells``: feed the scaled stream to one optimizer."""
    return step_scale_cells(exp, [config], steps, init=init, method=method)[0]


def step_scale_grid(exp: StepScaleExperiment, steps: int, eta: float = 1e-3,
                    epsilon: float = 0.0, init: str = "steady") -> dict[tuple[float, float], StepTrace]:
    """Run the experiment for every (beta1, beta2) pair in the grid, all cells in lockstep."""
    if not exp.beta_grid:
        return {}
    configs = [OptimizerConfig(beta1=b1, beta2=b2, eta=eta, epsilon=epsilon,
                               bias_correction=False) for b1, b2 in exp.beta_grid]
    traces = step_scale_cells(exp, configs, steps, init=init)
    return dict(zip(exp.beta_grid, traces))
