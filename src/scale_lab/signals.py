"""Time-parametrized gradient signals g(t) with their logarithmic drift.

The drift delta(t) = g'(t) / g(t) (coordinate-wise) is the local relative
growth rate of the gradient magnitude and the expansion parameter of the
whole analysis.  Analytic kinds carry exact g', delta and delta'; tabulated
signals fall back to central finite differences with stencil step
``1e-4 * max(1, |t|)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

FD_STEP_SCALE = 1e-4


def _fd_step(t: float) -> float:
    return FD_STEP_SCALE * max(1.0, abs(t))


@dataclass(frozen=True)
class GradientSignal:
    """A vector signal g(t) with optional analytic derivative evaluators.

    ``g`` maps a time to an array of shape (dimension,).  When ``g_prime`` or
    ``delta_prime`` are omitted they are replaced by central finite
    differences, so every signal supports the full drift API.
    """

    kind: str
    dimension: int
    g: Callable[[float], np.ndarray]
    g_prime: Optional[Callable[[float], np.ndarray]] = None
    delta_analytic: Optional[Callable[[float], np.ndarray]] = None
    delta_prime_analytic: Optional[Callable[[float], np.ndarray]] = None
    params: dict = field(default_factory=dict)

    def delta(self, t: float) -> np.ndarray:
        """Logarithmic drift g'(t)/g(t); domain error on a zero coordinate."""
        gt = self.g(t)
        if np.any(gt == 0.0):
            raise DomainError(f"drift undefined: g({t}) has a zero coordinate")
        if self.delta_analytic is not None:
            return np.broadcast_to(np.asarray(self.delta_analytic(t), dtype=float), gt.shape).copy()
        if self.g_prime is not None:
            return np.asarray(self.g_prime(t), dtype=float) / gt
        return self.delta_fd(t)

    def delta_fd(self, t: float) -> np.ndarray:
        """Finite-difference drift, available for every kind."""
        gt = self.g(t)
        if np.any(gt == 0.0):
            raise DomainError(f"drift undefined: g({t}) has a zero coordinate")
        h = _fd_step(t)
        return (self.g(t + h) - self.g(t - h)) / (2.0 * h * gt)

    def delta_prime(self, t: float) -> np.ndarray:
        """d(delta)/dt, analytic when declared, else central difference of delta."""
        if self.delta_prime_analytic is not None:
            shape = (self.dimension,)
            return np.broadcast_to(np.asarray(self.delta_prime_analytic(t), dtype=float), shape).copy()
        h = _fd_step(t)
        return (self.delta(t + h) - self.delta(t - h)) / (2.0 * h)


def _vec(value: float | Sequence[float], dimension: int | None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if dimension is not None and arr.size == 1:
        arr = np.full(dimension, arr[0])
    return arr


def constant_signal(value: float | Sequence[float] = 1.0, dimension: int | None = None) -> GradientSignal:
    """g(t) = c; zero drift."""
    c = _vec(value, dimension)
    d = c.size
    return GradientSignal(
        kind="constant",
        dimension=d,
        g=lambda t: c.copy(),
        g_prime=lambda t: np.zeros(d),
        delta_analytic=lambda t: np.zeros(d),
        delta_prime_analytic=lambda t: np.zeros(d),
        params={"value": c.tolist()},
    )


def exponential_signal(delta0: float, scale: float | Sequence[float] = 1.0,
                       dimension: int | None = None) -> GradientSignal:
    """g(t) = c * exp(delta0 * t); constant drift delta0."""
    c = _vec(scale, dimension)
    d = c.size
    if np.any(c == 0.0):
        raise DomainError("exponential signal needs a nonzero scale")
    return GradientSignal(
        kind="exponential",
        dimension=d,
        g=lambda t: c * np.exp(delta0 * t),
        g_prime=lambda t: delta0 * c * np.exp(delta0 * t),
        delta_analytic=lambda t: np.full(d, delta0),
        delta_prime_analytic=lambda t: np.zeros(d),
        params={"delta0": delta0, "scale": c.tolist()},
    )


def sinusoidal_log_signal(amplitude: float, omega: float, scale: float = 1.0,
                          dimension: int = 1) -> GradientSignal:
    """log |g| oscillates: g(t) = c * exp(a sin(w t)), so delta = a w cos(w t).

    Never crosses zero, which keeps it inside the expansion hypotheses for
    any amplitude.
    """
    if scale == 0.0:
        raise DomainError("sinusoidal-log signal needs a nonzero scale")
    d = dimension
    return GradientSignal(
        kind="sinusoidal-log",
        dimension=d,
        g=lambda t: np.full(d, scale * np.exp(amplitude * np.sin(omega * t))),
        g_prime=lambda t: np.full(
            d, scale * amplitude * omega * np.cos(omega * t) * np.exp(amplitude * np.sin(omega * t))
        ),
        delta_analytic=lambda t: np.full(d, amplitude * omega * np.cos(omega * t)),
        delta_prime_analytic=lambda t: np.full(d, -amplitude * omega * omega * np.sin(omega * t)),
        params={"amplitude": amplitude, "omega": omega, "scale": scale},
    )


def _multiplier_schedule(schedule: Sequence[tuple[float, float]]) -> Callable:
    """Multiplier at t (a number or an array): the last start <= t wins, 1 before the first."""
    sched = sorted((float(t), float(m)) for t, m in schedule)
    starts = np.array([t for t, _ in sched])
    mults = np.array([1.0] + [m for _, m in sched])
    return lambda t: mults[np.searchsorted(starts, t, side="right")]


def step_scale_signal(base: float | Sequence[float], schedule: Sequence[tuple[float, float]],
                      dimension: int | None = None) -> GradientSignal:
    """Piecewise-constant rescaling of a constant base gradient.

    ``schedule`` lists (start_time, multiplier) pairs; the multiplier active
    at time t is the one with the largest start_time <= t (identity before
    the first entry).  Drift is zero away from the jumps.
    """
    c = _vec(base, dimension)
    d = c.size
    sched = sorted((float(t), float(m)) for t, m in schedule)
    if any(m <= 0.0 for _, m in sched):
        raise DomainError("step-scale multipliers must be strictly positive")
    mult_at = _multiplier_schedule(sched)
    return GradientSignal(
        kind="step-scale",
        dimension=d,
        g=lambda t: c * mult_at(t),
        g_prime=lambda t: np.zeros(d),
        delta_analytic=lambda t: np.zeros(d),
        delta_prime_analytic=lambda t: np.zeros(d),
        params={"base": c.tolist(), "schedule": sched},
    )


def tabulated_signal(ts: Sequence[float], values: np.ndarray) -> GradientSignal:
    """Linear interpolation through sampled values; drift via finite differences."""
    ts = np.asarray(ts, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] != ts.size:
        values = values.T
    if values.shape[0] != ts.size:
        raise DomainError("tabulated signal: times and values disagree in length")
    d = values.shape[1]

    def g(t: float) -> np.ndarray:
        return np.array([np.interp(t, ts, values[:, i]) for i in range(d)])

    return GradientSignal(kind="tabulated", dimension=d, g=g,
                          params={"t0": float(ts[0]), "t1": float(ts[-1])})
