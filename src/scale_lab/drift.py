"""Logarithmic-drift expansion: its remainders and the two ladder fits.

For a slowly varying gradient the moments track their inputs with a lag set
by the relaxation times, and after transients the flow obeys

    m(t) ~ g(t) (1 - tau1 * delta(t))
    v(t) ~ g(t)^2 (1 - 2 tau2 * delta(t))
    R(t) ~ sign(g(t)) (1 + (tau2 - tau1) * delta(t))

up to remainders of order Lambda^2 + Lambda', where Lambda and Lambda' bound
the drift and its derivative over the window.  The first-order term of R
cancels exactly when tau1 = tau2, which is the invariance property under
test.  This module measures the remainders of those expansions against the
explicit envelopes that come with them.  Two fits share one flow over a
ladder of exponential drifts: the first-order sensitivity of ||R|| (slope 2
when tau1 = tau2, else 1) and the order of the R remainder (2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .flow import FlowTrace, TimeScales, integrate_flow, predict_first_order, steady_state_init
from .signals import GradientSignal, exponential_signal

SUP_INFLATION = 1.01      # dense-sampled suprema are inflated by 1%
SUP_SAMPLES = 10001


@dataclass(frozen=True)
class DriftProfile:
    """Suprema of the drift and its derivative over an interval."""

    lambda_bound: float        # Lambda  = sup ||delta||_inf (inflated)
    lambda_prime_bound: float  # Lambda' = sup ||delta'||_inf (inflated)

    @property
    def remainder_factor(self) -> float:
        return self.lambda_bound ** 2 + self.lambda_prime_bound


def _sup_grid(interval: tuple[float, float]) -> np.ndarray:
    """The dense grid of SUP_SAMPLES points over ``interval`` that suprema are taken on; a
    one-point interval [t, t] is SUP_SAMPLES copies of t, so its suprema are the values at t."""
    t0, t1 = interval
    if t1 < t0:
        raise DomainError(f"empty interval [{t0}, {t1}]")
    return np.linspace(t0, t1, SUP_SAMPLES)


def drift_bounds(signal: GradientSignal, interval: tuple[float, float]) -> DriftProfile:
    """Lambda and Lambda' by dense sampling, inflated by 1%; a ``DomainError`` unless finite."""
    grid = _sup_grid(interval)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound is rejected below
        lam = float(np.max(np.abs(signal.delta(grid))))
        lam_p = float(np.max(np.abs(signal.delta_prime(grid))))
    if not np.isfinite(lam + lam_p):
        raise DomainError(f"drift bounds are not finite: Lambda={lam:g}, Lambda'={lam_p:g}")
    return DriftProfile(SUP_INFLATION * lam, SUP_INFLATION * lam_p)


@dataclass(frozen=True)
class RemainderChannel:
    """Measured expansion remainder of one channel over a window.

    ``bound_margin`` is min(envelope - |remainder|) over the window for the
    channels (m, v) whose envelopes have explicit constants; it is None for
    R, where only the measured constant is reported.  ``bound_sup`` is the
    largest envelope value over the window.
    """

    max_abs: float
    constant: float            # max_abs / (Lambda^2 + Lambda'), NaN if factor is 0
    bound_margin: Optional[float] = None
    bound_sup: Optional[float] = None


@dataclass(frozen=True)
class RemainderReport:
    """Remainders of the first-order expansion along one trace."""

    channels: dict[str, RemainderChannel]
    profile: DriftProfile
    fitted_order: Optional[float] = None


def measure_remainder(trace: FlowTrace, signal: GradientSignal, ts: TimeScales) -> RemainderReport:
    """Sup of |actual - first-order prediction| per channel, past ``ts.burn_in``.

    The m and v remainders are also compared pointwise against their explicit
    envelopes

        C * (exp(-(t - t0)/tau) + tau^2 (Lambda^2 + Lambda'))

    with C = |init mismatch| + B for m and |init mismatch| + 4 B^2 for v,
    B = sup |g| over the trace.
    """
    t0 = float(trace.t[0])
    keep = trace.t >= t0 + ts.burn_in
    if not np.any(keep):
        raise DomainError("empty post-burn-in window")
    t_win = trace.t[keep]
    profile = drift_bounds(signal, (float(t_win[0]), float(t_win[-1])))

    m_pred, v_pred, r_pred = predict_first_order(signal, ts, t_win)
    rm = np.max(np.abs(trace.m[keep] - m_pred), axis=1)
    rv = np.max(np.abs(trace.v[keep] - v_pred), axis=1)
    rr = np.max(np.abs(trace.r[keep] - r_pred), axis=1)

    b_sup = float(np.max(np.abs(signal.g(trace.t))))
    m0_pred, v0_pred, _ = predict_first_order(signal, ts, t0)
    coeff_m = float(np.max(np.abs(trace.m[0] - m0_pred)))
    coeff_v = float(np.max(np.abs(trace.v[0] - v0_pred)))
    c_m = coeff_m + b_sup
    c_v = coeff_v + 4.0 * b_sup * b_sup
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        try:
            factor = profile.remainder_factor
            env_m = c_m * (np.exp(-(t_win - t0) / ts.tau1) + ts.tau1 ** 2 * factor)
            env_v = c_v * (np.exp(-(t_win - t0) / ts.tau2) + ts.tau2 ** 2 * factor)
        except OverflowError:  # a Python float's ** 2 raises rather than giving inf
            env_m = env_v = np.array([np.inf])
    if not (np.isfinite(env_m).all() and np.isfinite(env_v).all()):
        raise DomainError("the remainder factor Lambda^2 + Lambda' or an m or v envelope overflows")

    def constant(max_abs: float) -> float:
        return max_abs / factor if factor > 0.0 else float("nan")

    channels = {
        "m": RemainderChannel(float(np.max(rm)), constant(float(np.max(rm))),
                              float(np.min(env_m - rm)), float(np.max(env_m))),
        "v": RemainderChannel(float(np.max(rv)), constant(float(np.max(rv))),
                              float(np.min(env_v - rv)), float(np.max(env_v))),
        "R": RemainderChannel(float(np.max(rr)), constant(float(np.max(rr))), None, None),
    }
    return RemainderReport(channels=channels, profile=profile)


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x; a ``DomainError`` unless
    there are 3 points or more, all finite and > 0, with 2 distinct log x values or more."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 3:
        raise DomainError(f"power-law fit needs at least 3 points, got {x.size}")
    if not (np.all(np.isfinite(x) & (x > 0.0)) and np.all(np.isfinite(y) & (y > 0.0))):
        raise DomainError("power-law fit needs finite, strictly positive data")
    lx, ly = np.log(x), np.log(y)
    if np.all(lx == lx[0]):  # a slope fitted over one abscissa is rank-deficient noise
        raise DomainError(f"power-law fit needs at least 2 distinct x values, got only {float(x[0])!r}")
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def _ladder(delta0_grid: Sequence[float]) -> tuple[float, ...]:
    """The drift rates as sorted floats; a ``DomainError``, before any flow is integrated,
    unless there are 3 or more, none zero, with 2 distinct magnitudes or more."""
    rates = tuple(sorted(float(d) for d in delta0_grid))
    if len(rates) < 3 or 0.0 in rates or len({abs(d) for d in rates}) < 2:
        raise DomainError(f"a drift-rate ladder needs 3 or more non-zero rates of 2 or more "
                          f"distinct magnitudes, got {list(rates)}")
    return rates


@lru_cache(maxsize=1)
def _ladder_flow(ts: TimeScales, rates: tuple[float, ...]) -> FlowTrace:
    """The flow of e^{delta0 t} from the steady init to 1.2 burn-in + 2 tau_max; column k is
    bit for bit the one-rate flow of ``rates[k]``.  Only the last (ts, rates) is cached, so
    the two ladder fits share one flow, its arrays read-only.  A ``FlowAbort`` carries the
    earliest abort time over all rates and is not cached: a repeated call aborts again.
    """
    t_end = 1.2 * ts.burn_in + 2.0 * ts.tau_max
    ladder = exponential_signal(rates)
    flow = integrate_flow(ladder, ts, steady_state_init(ladder, ts), t_end=t_end)
    for a in (flow.t, flow.m, flow.v, flow.r):
        a.flags.writeable = False
    return flow


@dataclass(frozen=True)
class SensitivityFit:
    """Fitted scale sensitivity of the flow's asymptotic update norm."""

    slope: float            # log-log slope of | ||R|| - 1 | against delta0
    coefficient: float      # |deviation / delta0| extrapolated to delta0 -> 0
    delta0_grid: list[float]        # the drift rates, sorted
    signed_deviations: list[float]  # ||R||_inf - 1 per drift rate


def first_order_sensitivity(ts: TimeScales, delta0_grid: Sequence[float]) -> SensitivityFit:
    """Fit the asymptotic deviation of ||R|| from 1 across exponential drifts.

    Each drift rate is a column of the ladder flow from the first-order steady
    initialization until well past burn-in, and its deviation is read off the
    final sample.  The coefficient uses Richardson extrapolation on the two
    smallest rates, which must be in ratio 2 as in a doubling grid, so the
    first-order coefficient |tau2 - tau1| is recovered even though the
    deviation carries an O(delta0^2) tail.
    """
    rates = _ladder(delta0_grid)
    if abs(rates[1] - 2.0 * rates[0]) > 2e-12 * abs(rates[0]):
        raise DomainError(f"Richardson step needs the two smallest drift rates in ratio 2, "
                          f"got {rates[0]} and {rates[1]}")
    signed = (np.abs(_ladder_flow(ts, rates).r[-1]) - 1.0).tolist()
    slope, _ = fit_power_law(rates, np.abs(signed))
    q0, q1 = signed[0] / rates[0], signed[1] / rates[1]
    coefficient = abs(2.0 * q0 - q1)
    return SensitivityFit(slope=slope, coefficient=coefficient, delta0_grid=list(rates),
                          signed_deviations=signed)


def remainder_order_sweep(ts: TimeScales, delta0_grid: Sequence[float]) -> RemainderReport:
    """R-channel remainders over exponential drifts, with a fitted order.

    Runs the drift rates as the columns of one lockstep flow, measures each column's
    deviation from the first-order prediction, and fits the log-log slope against the drift
    bound; the slope should sit near 2 for any (tau1, tau2) because the first-order term has
    been subtracted.  The channels and profile are the largest rate's.  If any rate aborts,
    ``FlowAbort.t`` is the earliest abort over all rates.
    """
    rates = _ladder(delta0_grid)
    flow = _ladder_flow(ts, rates)
    reports = []
    for k, d0 in enumerate(rates):
        column = FlowTrace(flow.t, *(a[:, k:k + 1] for a in (flow.m, flow.v, flow.r)))
        reports.append(measure_remainder(column, exponential_signal(d0), ts))
    slope, _ = fit_power_law([r.profile.lambda_bound for r in reports],
                             [r.channels["R"].max_abs for r in reports])
    return replace(reports[-1], fitted_order=slope)
