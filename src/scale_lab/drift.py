"""Logarithmic-drift expansion: predictors, remainders, and tracking bounds.

For a slowly varying gradient the moments track their inputs with a lag set
by the relaxation times, and after transients the flow obeys

    m(t) ~ g(t) (1 - tau1 * delta(t))
    v(t) ~ g(t)^2 (1 - 2 tau2 * delta(t))
    R(t) ~ sign(g(t)) (1 + (tau2 - tau1) * delta(t))

up to remainders of order Lambda^2 + Lambda', where Lambda and Lambda' bound
the drift and its derivative over the window.  The first-order term of R
cancels exactly when tau1 = tau2, which is the invariance property under
test.  This module measures the remainders of those expansions against the
explicit envelopes that come with them, and checks the scalar tracking
inequality they are built from on whole time grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError
from .flow import (FlowTrace, TimeScales, _rk4, _stage_times, integrate_flow,
                   predict_first_order, steady_state_init)
from .signals import GradientSignal, _fd_step, exponential_signal

SUP_INFLATION = 1.01      # dense-sampled suprema are inflated by 1%
SUP_SAMPLES = 10001
TRACKING_SLACK = 1e-9     # FP slack: zero-curvature signals meet the bound with equality


@dataclass(frozen=True)
class DriftProfile:
    """Suprema of the drift and its derivative over an interval."""

    lambda_bound: float        # Lambda  = sup ||delta||_inf (inflated)
    lambda_prime_bound: float  # Lambda' = sup ||delta'||_inf (inflated)
    interval: tuple[float, float]

    @property
    def remainder_factor(self) -> float:
        return self.lambda_bound ** 2 + self.lambda_prime_bound


def _sup_grid(interval: tuple[float, float], samples: int = SUP_SAMPLES) -> np.ndarray:
    """The dense grid over ``interval`` that sampled suprema are taken on."""
    t0, t1 = interval
    if t1 <= t0:
        raise DomainError(f"empty interval [{t0}, {t1}]")
    return np.linspace(t0, t1, samples)


def drift_bounds(signal: GradientSignal, interval: tuple[float, float],
                 samples: int = SUP_SAMPLES) -> DriftProfile:
    """Estimate Lambda and Lambda' by dense sampling with 1% safety inflation."""
    grid = _sup_grid(interval, samples)
    lam = float(np.max(np.abs(signal.delta(grid))))
    lam_p = float(np.max(np.abs(signal.delta_prime(grid))))
    return DriftProfile(SUP_INFLATION * lam, SUP_INFLATION * lam_p, tuple(interval))


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
    window: tuple[float, float]
    fitted_order: Optional[float] = None


def measure_remainder(trace: FlowTrace, signal: GradientSignal, ts: TimeScales,
                      burn_in: float | None = None) -> RemainderReport:
    """Sup of |actual - first-order prediction| per channel, past burn-in.

    The m and v remainders are also compared pointwise against their explicit
    envelopes

        C * (exp(-(t - t0)/tau) + tau^2 (Lambda^2 + Lambda'))

    with C = |init mismatch| + B for m and |init mismatch| + 4 B^2 for v,
    B = sup |g| over the trace.
    """
    t0 = float(trace.t[0])
    if burn_in is None:
        burn_in = ts.burn_in
    keep = trace.t >= t0 + burn_in
    if not np.any(keep):
        raise DomainError("empty post-burn-in window")
    t_win = trace.t[keep]
    profile = drift_bounds(signal, (float(t_win[0]), float(t_win[-1])))
    factor = profile.remainder_factor

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
    env_m = c_m * (np.exp(-(t_win - t0) / ts.tau1) + ts.tau1 ** 2 * factor)
    env_v = c_v * (np.exp(-(t_win - t0) / ts.tau2) + ts.tau2 ** 2 * factor)

    def constant(max_abs: float) -> float:
        return max_abs / factor if factor > 0.0 else float("nan")

    channels = {
        "m": RemainderChannel(float(np.max(rm)), constant(float(np.max(rm))),
                              float(np.min(env_m - rm)), float(np.max(env_m))),
        "v": RemainderChannel(float(np.max(rv)), constant(float(np.max(rv))),
                              float(np.min(env_v - rv)), float(np.max(env_v))),
        "R": RemainderChannel(float(np.max(rr)), constant(float(np.max(rr))), None, None),
    }
    return RemainderReport(channels=channels, profile=profile,
                           window=(float(t_win[0]), float(t_win[-1])))


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 3:
        raise DomainError(f"power-law fit needs at least 3 points, got {x.size}")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DomainError("power-law fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def _exponential_ladder(ts: TimeScales, rates: Sequence[float],
                        h: float | None) -> Iterator[tuple[GradientSignal, FlowTrace]]:
    """Per drift rate, the signal e^{delta0 t} and its flow from the steady init.

    The rates run as the columns of one flow to 1.2 burn-in + 2 tau_max, each bit for bit its
    one-rate flow; a ``FlowAbort`` carries the earliest abort time over all rates.
    """
    t_end = 1.2 * ts.burn_in + 2.0 * ts.tau_max
    ladder = exponential_signal(rates)
    flow = integrate_flow(ladder, ts, steady_state_init(ladder, ts, t0=0.0), t_end=t_end, h=h)
    for k, d0 in enumerate(rates):
        sig = exponential_signal(d0)
        m, v, r, theta = (a[:, k:k + 1] for a in (flow.m, flow.v, flow.r, flow.theta))
        yield sig, FlowTrace(flow.t, m, v, r, theta, ts, sig.kind, {**flow.meta, **sig.params})


def remainder_order_sweep(ts: TimeScales, delta0_grid: Sequence[float],
                          h: float | None = None) -> RemainderReport:
    """R-channel remainders over exponential drifts, with a fitted order.

    Runs the drift rates as the columns of one lockstep flow, measures each
    column's deviation from the first-order prediction, and fits the log-log
    slope against the drift bound; the slope should sit near 2 for any
    (tau1, tau2) because the first-order term has been subtracted.  If any
    rate aborts, ``FlowAbort.t`` is the earliest abort over all rates.
    """
    rates = sorted(float(d) for d in delta0_grid)
    reports = [measure_remainder(trace, sig, ts)
               for sig, trace in _exponential_ladder(ts, rates, h)]
    slope, _ = fit_power_law([r.profile.lambda_bound for r in reports],
                             [r.channels["R"].max_abs for r in reports])
    report = reports[-1]
    return RemainderReport(channels=dict(report.channels), profile=report.profile,
                           window=report.window, fitted_order=slope)


@dataclass(frozen=True)
class TrackingCheckResult:
    """Outcome of the scalar tracking-bound check for tau x' = -x + y."""

    max_residual: float
    bound_at_max: float
    margin: float              # min over samples of (bound - |residual|)
    passed: bool
    transient_coeff: float     # |x0 - y(t0) + tau y'(t0)|
    curvature_sup: float       # sup |y''| over the interval
    t: np.ndarray
    residual: np.ndarray
    bound: np.ndarray


def tracking_check(y: Callable[[np.ndarray], np.ndarray], tau: float, x0: float,
                   interval: tuple[float, float],
                   y_prime: Callable[[np.ndarray], np.ndarray] | None = None,
                   y_second: Callable[[np.ndarray], np.ndarray] | None = None,
                   h: float | None = None) -> TrackingCheckResult:
    """Verify |x - (y - tau y')| <= |x0 - y0 + tau y'0| e^{-(t-t0)/tau} + tau^2 sup|y''|.

    ``y``, ``y_prime`` and ``y_second`` map an array of times to an array of
    the same shape (a constant returned as a scalar is broadcast); each is
    called on whole time grids only, never once per sample.
    The state is integrated with fixed-step RK4 (default h = tau/200) and the
    residual compared against the bound at every sample.  Derivatives of y
    fall back to central differences when not supplied; a sampled sup|y''| is
    then inflated by 1%.  ``passed`` allows a relative slack of 1e-9 because
    signals with zero curvature (constant, linear) attain the bound exactly,
    which floating point cannot resolve as an inequality.
    """
    grid = _sup_grid(interval)
    t0, t1 = interval
    if tau <= 0.0:
        raise DomainError("tau must be positive")

    if y_prime is None:
        def y_prime(t):
            s = _fd_step(t)
            return (y(t + s) - y(t - s)) / (2.0 * s)
    sampled = y_second is None
    if sampled:
        def y_second(t):
            s = _fd_step(t)
            return (y(t + s) - 2.0 * y(t) + y(t - s)) / (s * s)

    def on(f, t: np.ndarray) -> np.ndarray:
        return np.broadcast_to(f(t), t.shape)

    m_sup = float(np.max(np.abs(on(y_second, grid))))
    if sampled:
        m_sup *= SUP_INFLATION

    if h is None:
        h = tau / 200.0
    stages, h = _stage_times(t0, t1, h)
    forcing = on(y, stages).tolist()
    ts_out, xs_out = _rk4(lambda t, x, f: (-x + f) / tau, t0, float(x0), h, forcing)

    y_vals, yp_vals = on(y, ts_out), on(y_prime, ts_out)
    residual = xs_out - (y_vals - tau * yp_vals)
    coeff = abs(x0 - float(y_vals[0]) + tau * float(yp_vals[0]))
    bound = coeff * np.exp(-(ts_out - t0) / tau) + tau * tau * m_sup

    margins = bound - np.abs(residual)
    i_max = int(np.argmax(np.abs(residual)))
    scale = max(1.0, coeff, tau * tau * m_sup)
    margin = float(np.min(margins))
    return TrackingCheckResult(
        max_residual=float(np.abs(residual[i_max])),
        bound_at_max=float(bound[i_max]),
        margin=margin,
        passed=bool(margin >= -TRACKING_SLACK * scale),
        transient_coeff=coeff,
        curvature_sup=m_sup,
        t=ts_out, residual=residual, bound=bound,
    )
