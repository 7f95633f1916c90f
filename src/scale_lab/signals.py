"""Time-parametrized gradient signals g(t) with their logarithmic drift.

The drift delta(t) = g'(t) / g(t) (coordinate-wise) is the local relative
growth rate of the gradient magnitude and the expansion parameter of the
whole analysis.  Every signal carries its exact delta and delta'.

Every evaluator takes ``t`` as a number or as an array of times of any
shape and returns an array of shape ``np.shape(t) + (d,)`` for a d-coordinate
signal, so a number gives ``(d,)`` and a time grid is evaluated in one call.
Each entry equals the evaluation at that time alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError


def _require_nonzero(t, gt: np.ndarray) -> None:
    zero = np.any(gt == 0.0, axis=-1)
    if np.any(zero):
        raise DomainError(f"drift undefined: g({np.asarray(t)[zero].flat[0]}) has a zero coordinate")


@dataclass(frozen=True)
class GradientSignal:
    """A vector signal g(t) with its analytic drift delta(t) and drift derivative delta'(t).

    Each evaluator maps a time, or an array of times of any shape, to an array of shape
    ``np.shape(t) + (d,)``.
    """

    g: Callable[[float | np.ndarray], np.ndarray]
    delta_analytic: Callable[[float | np.ndarray], np.ndarray]
    delta_prime_analytic: Callable[[float | np.ndarray], np.ndarray]

    def delta(self, t) -> np.ndarray:
        """Logarithmic drift g'(t)/g(t); domain error on a zero coordinate."""
        _require_nonzero(t, self.g(t))
        return self.delta_analytic(t)

    def delta_prime(self, t) -> np.ndarray:
        """d(delta)/dt."""
        return self.delta_prime_analytic(t)


def constant_signal(value: float | Sequence[float] = 1.0) -> GradientSignal:
    """g(t) = c; zero drift."""
    c = np.atleast_1d(np.asarray(value, dtype=float))
    d = c.size
    zeros = lambda t: np.zeros(np.shape(t) + (d,))
    return GradientSignal(g=lambda t: np.full(np.shape(t) + (d,), c),
                          delta_analytic=zeros, delta_prime_analytic=zeros)


def exponential_signal(delta0: float | Sequence[float],
                       scale: float | Sequence[float] = 1.0) -> GradientSignal:
    """g(t) = c * exp(delta0 * t); constant drift delta0, one rate or one rate per coordinate.

    Coordinate k of a per-coordinate signal is bit for bit ``exponential_signal(delta0[k], c[k])``.
    """
    rates = np.asarray(delta0, dtype=float)
    bad = rates[~np.isfinite(rates)]
    if bad.size:
        raise DomainError(f"exponential signal: drift rate {bad[0]} is not finite")
    c = np.atleast_1d(np.asarray(scale, dtype=float))
    if rates.ndim and c.size == 1:  # one scale for every rate
        c = np.full(rates.size, c[0])
    d = c.size
    if rates.ndim and rates.shape != (d,):
        raise DomainError(f"exponential signal: {rates.size} rates for {d} coordinates")
    if np.any(c == 0.0):
        raise DomainError("exponential signal needs a nonzero scale")
    return GradientSignal(g=lambda t: c * np.exp(rates * np.expand_dims(t, -1)),
                          delta_analytic=lambda t: np.full(np.shape(t) + (d,), rates),
                          delta_prime_analytic=lambda t: np.zeros(np.shape(t) + (d,)))


def sinusoidal_log_signal(amplitude: float, omega: float, scale: float = 1.0) -> GradientSignal:
    """log |g| oscillates: g(t) = c * exp(a sin(w t)), so delta = a w cos(w t); one coordinate.

    Never crosses zero, which keeps it inside the expansion hypotheses for
    any amplitude.
    """
    if scale == 0.0:
        raise DomainError("sinusoidal-log signal needs a nonzero scale")
    coord = lambda x: np.expand_dims(x, -1)
    return GradientSignal(g=lambda t: coord(scale * np.exp(amplitude * np.sin(omega * t))),
                          delta_analytic=lambda t: coord(amplitude * omega * np.cos(omega * t)),
                          delta_prime_analytic=lambda t: coord(
                              -amplitude * omega * omega * np.sin(omega * t)))

