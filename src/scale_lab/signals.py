"""Time-parametrized gradient signals g(t) with their logarithmic drift.

The drift delta(t) = g'(t) / g(t) (coordinate-wise) is the local relative
growth rate of the gradient magnitude and the expansion parameter of the
whole analysis.  Analytic kinds carry exact delta and delta'; tabulated
signals fall back to central finite differences with stencil step
``1e-4 * max(1, |t|)``.

Every evaluator takes ``t`` as a number or as an array of times of any
shape and returns an array of shape ``np.shape(t) + (dimension,)``, so a
number gives ``(dimension,)`` and a time grid is evaluated in one call.
Each entry equals the evaluation at that time alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

FD_STEP_SCALE = 1e-4


def _fd_step(t):
    return FD_STEP_SCALE * np.maximum(1.0, np.abs(t))


def _require_nonzero(t, gt: np.ndarray) -> None:
    zero = np.any(gt == 0.0, axis=-1)
    if np.any(zero):
        raise DomainError(f"drift undefined: g({np.asarray(t)[zero].flat[0]}) has a zero coordinate")


@dataclass(frozen=True)
class GradientSignal:
    """A vector signal g(t) with optional analytic derivative evaluators.

    ``g`` and the optional evaluators map a time, or an array of times of any shape, to an array
    of shape ``np.shape(t) + (dimension,)``.  When ``delta_analytic`` or ``delta_prime_analytic``
    are omitted they are replaced by central finite differences, so every signal supports the
    full drift API.
    """

    kind: str
    dimension: int
    g: Callable[[float | np.ndarray], np.ndarray]
    delta_analytic: Optional[Callable[[float | np.ndarray], np.ndarray]] = None
    delta_prime_analytic: Optional[Callable[[float | np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)

    def delta(self, t) -> np.ndarray:
        """Logarithmic drift g'(t)/g(t); domain error on a zero coordinate."""
        gt = self.g(t)
        _require_nonzero(t, gt)
        return self.delta_fd(t) if self.delta_analytic is None else self.delta_analytic(t)

    def delta_fd(self, t) -> np.ndarray:
        """Finite-difference drift, available for every kind."""
        gt = self.g(t)
        _require_nonzero(t, gt)
        h = _fd_step(t)
        return (self.g(t + h) - self.g(t - h)) / (np.expand_dims(2.0 * h, -1) * gt)

    def delta_prime(self, t) -> np.ndarray:
        """d(delta)/dt, analytic when declared, else central difference of delta."""
        if self.delta_prime_analytic is not None:
            return self.delta_prime_analytic(t)
        h = _fd_step(t)
        return (self.delta(t + h) - self.delta(t - h)) / np.expand_dims(2.0 * h, -1)


def _vec(value: float | Sequence[float], dimension: int | None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if dimension is not None and arr.size == 1:
        arr = np.full(dimension, arr[0])
    return arr


def constant_signal(value: float | Sequence[float] = 1.0, dimension: int | None = None) -> GradientSignal:
    """g(t) = c; zero drift."""
    c = _vec(value, dimension)
    d = c.size
    zeros = lambda t: np.zeros(np.shape(t) + (d,))
    return GradientSignal(
        kind="constant",
        dimension=d,
        g=lambda t: np.full(np.shape(t) + (d,), c),
        delta_analytic=zeros,
        delta_prime_analytic=zeros,
        params={"value": c.tolist()},
    )


def exponential_signal(delta0: float | Sequence[float], scale: float | Sequence[float] = 1.0,
                       dimension: int | None = None) -> GradientSignal:
    """g(t) = c * exp(delta0 * t); constant drift delta0, one rate or one rate per coordinate.

    Coordinate k of a per-coordinate signal is bit for bit ``exponential_signal(delta0[k], c[k])``.
    """
    rates = np.asarray(delta0, dtype=float)
    c = _vec(scale, dimension or (rates.size if rates.ndim else None))
    d = c.size
    if rates.ndim and rates.shape != (d,):
        raise DomainError(f"exponential signal: {rates.size} rates for {d} coordinates")
    if np.any(c == 0.0):
        raise DomainError("exponential signal needs a nonzero scale")
    return GradientSignal(
        kind="exponential",
        dimension=d,
        g=lambda t: c * np.exp(rates * np.expand_dims(t, -1)),
        delta_analytic=lambda t: np.full(np.shape(t) + (d,), rates),
        delta_prime_analytic=lambda t: np.zeros(np.shape(t) + (d,)),
        params={"delta0": rates.tolist() if rates.ndim else delta0, "scale": c.tolist()},
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
    coords = lambda x: np.full(np.shape(x) + (d,), np.expand_dims(x, -1))
    return GradientSignal(
        kind="sinusoidal-log",
        dimension=d,
        g=lambda t: coords(scale * np.exp(amplitude * np.sin(omega * t))),
        delta_analytic=lambda t: coords(amplitude * omega * np.cos(omega * t)),
        delta_prime_analytic=lambda t: coords(-amplitude * omega * omega * np.sin(omega * t)),
        params={"amplitude": amplitude, "omega": omega, "scale": scale},
    )


def step_multipliers(schedule: Sequence[tuple[int, float]], steps: int) -> np.ndarray:
    """The per-step multipliers of a piecewise schedule over ``steps`` steps.

    ``schedule`` lists (start step, multiplier) pairs; the multiplier of step k
    is the one with the largest start <= k, 1 before the first start.  Every
    segment, the identity one before the first start included, covers at least
    one step.
    """
    sched = sorted((float(k), float(m)) for k, m in schedule)
    bounds = [0] + [k for k, _ in sched] + [steps]
    if any(b - a < 1 for a, b in zip(bounds[:-1], bounds[1:])):
        raise DomainError("every schedule segment must cover at least one step")
    if not all(m > 0.0 for _, m in sched):
        raise DomainError("multipliers must be strictly positive")
    mults = np.array([1.0] + [m for _, m in sched])
    return mults[np.searchsorted([k for k, _ in sched], np.arange(steps), side="right")]


def tabulated_signal(ts: Sequence[float], values: np.ndarray) -> GradientSignal:
    """Linear interpolation through sampled values; drift via finite differences."""
    ts = np.asarray(ts, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] != ts.size:
        values = values.T
    if values.shape[0] != ts.size:
        raise DomainError("tabulated signal: times and values disagree in length")
    d = values.shape[1]

    return GradientSignal(kind="tabulated", dimension=d,
                          g=lambda t: np.stack([np.interp(t, ts, values[:, i]) for i in range(d)], -1),
                          params={"t0": float(ts[0]), "t1": float(ts[-1])})
