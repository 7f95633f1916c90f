"""References the tests compare the library against; the program itself calls none of them.

- ``flow_rhs``: the flow's right-hand side, which an RK4 loop over it must match
  ``integrate_flow`` with;
- ``steady_state_exponential_gains``: the exact asymptotic gains under an exponential
  gradient;
- ``tracking_check``: the scalar tracking inequality the drift expansion is built from,
  checked on whole time grids;
- ``delta_fd``: a central finite-difference drift, the check on a signal's analytic one;
- ``constant_gradient_closed_form``: raw Adam's R under a constant gradient;
- ``grid_cells``: per-seed matrices over a beta axis as the cell map ``grid_report`` scores.

They read private helpers of ``scale_lab`` where the library already has the step they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from scale_lab import DomainError, GradientSignal, TimeScales
from scale_lab.drift import _sup_grid
from scale_lab.flow import _abort_if_invalid, _finite_positive, _relax, _stage_times
from scale_lab.signals import _require_nonzero

FD_STEP_SCALE = 1e-4
TRACKING_SLACK = 1e-9     # FP slack: zero-curvature signals meet the bound with equality


# ---------------------------------------------------------------- flow

def flow_rhs(t: float, y: np.ndarray, g: np.ndarray, ts: TimeScales, h: float) -> np.ndarray:
    """Right-hand side d(m, v)/dt at the stacked (2, d) state ``y`` and gradient ``g``.

    Raises ``FlowAbort`` (a ``DomainError``) unless m and v are finite and v > 0; its message
    names ``h``, the step of the RK4 loop that called it.
    """
    _abort_if_invalid(t, y, h, ts.tau2)
    return np.stack([(-y[0] + g) / ts.tau1, (-y[1] + g * g) / ts.tau2])


def steady_state_exponential_gains(delta0: float, ts: TimeScales) -> tuple[float, float, float]:
    """Exact asymptotic ratios (m/g, v/g^2, R/sign(g)) under g(t) = c e^{delta0 t}.

    Substituting the exponential ansatz into the linear moment equations gives

        m_gain = 1 / (1 + tau1 * delta0)
        v_gain = 1 / (1 + 2 * tau2 * delta0)
        R_gain = m_gain / sqrt(v_gain)

    valid whenever both denominators stay positive (pole guard).
    """
    pm = 1.0 + ts.tau1 * delta0
    pv = 1.0 + 2.0 * ts.tau2 * delta0
    if pm <= 0.0 or pv <= 0.0:
        raise DomainError(f"steady-state pole crossed: 1+tau1*d0={pm}, 1+2*tau2*d0={pv}")
    m_gain = 1.0 / pm
    v_gain = 1.0 / pv
    return m_gain, v_gain, m_gain / math.sqrt(v_gain)


# ---------------------------------------------------------------- drift

@dataclass(frozen=True)
class TrackingCheckResult:
    """Outcome of the scalar tracking-bound check for tau x' = -x + y."""

    max_residual: float
    margin: float              # min over samples of (bound - |residual|)
    passed: bool
    transient_coeff: float     # |x0 - y(t0) + tau y'(t0)|
    curvature_sup: float       # sup |y''| over the interval
    t: np.ndarray
    residual: np.ndarray
    bound: np.ndarray


def tracking_check(y: Callable[[np.ndarray], np.ndarray], tau: float, x0: float,
                   interval: tuple[float, float], y_prime: Callable[[np.ndarray], np.ndarray],
                   y_second: Callable[[np.ndarray], np.ndarray],
                   h: float | None = None) -> TrackingCheckResult:
    """Verify |x - (y - tau y')| <= |x0 - y0 + tau y'0| e^{-(t-t0)/tau} + tau^2 sup|y''|.

    ``y``, ``y_prime`` and ``y_second`` map an array of times to an array of
    the same shape (a constant returned as a scalar is broadcast); each is
    called on whole time grids only, never once per sample.  The state is
    integrated with fixed-step RK4 (default h = tau/200) and the residual
    compared against the bound at every sample.  ``passed`` allows a relative
    slack of 1e-9 because signals with zero curvature (constant, linear)
    attain the bound exactly, which floating point cannot resolve as an
    inequality.
    """
    grid = _sup_grid(interval)
    t0, t1 = interval
    _finite_positive("tau", tau)

    def on(f, t: np.ndarray) -> np.ndarray:
        return np.broadcast_to(f(t), t.shape)

    m_sup = float(np.max(np.abs(on(y_second, grid))))

    if h is None:
        h = tau / 200.0
    ts_out, stages, h = _stage_times(t0, t1, h)
    xs_out = _relax(float(x0), tau, on(y, stages), h)[::4]

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
        margin=margin,
        passed=bool(margin >= -TRACKING_SLACK * scale),
        transient_coeff=coeff,
        curvature_sup=m_sup,
        t=ts_out, residual=residual, bound=bound,
    )


# ---------------------------------------------------------------- signals

def _fd_step(t):
    return FD_STEP_SCALE * np.maximum(1.0, np.abs(t))


def delta_fd(signal: GradientSignal, t) -> np.ndarray:
    """Central finite-difference drift of ``signal`` with stencil step ``1e-4 * max(1, |t|)``,
    the check on ``signal.delta``; shaped and guarded against a zero coordinate as it is."""
    gt = signal.g(t)
    _require_nonzero(t, gt)
    h = _fd_step(t)
    return (signal.g(t + h) - signal.g(t - h)) / (np.expand_dims(2.0 * h, -1) * gt)


# ---------------------------------------------------------------- optimizers

def constant_gradient_closed_form(c: float | np.ndarray, k: int, beta1: float, beta2: float) -> np.ndarray:
    """R after ``k`` raw Adam steps from zero state under a constant gradient c.

    Geometric sums give m_k = (1 - b1**k) c and v_k = (1 - b2**k) c**2, hence

        R_k = sign(c) * (1 - b1**k) / sqrt(1 - b2**k),

    independent of |c|.  Serves as the oracle for the scale-independence of
    raw Adam from zero initialization.
    """
    if k < 1:
        raise DomainError(f"closed form needs k >= 1, got {k}")
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(c == 0.0):
        raise DomainError("closed form requires a nonzero constant gradient")
    magnitude = (1.0 - beta1 ** k) / np.sqrt(1.0 - beta2 ** k)
    return np.sign(c) * magnitude


# ---------------------------------------------------------------- metrics

def grid_cells(grids, axis, seeds=None) -> dict:
    """``{(axis[i], axis[j], seed): grid[i, j]}`` for each seed's (n x n) grid, the seeds
    0, 1, ... unless given."""
    seeds = range(len(grids)) if seeds is None else seeds
    return {(b1, b2, s): g[i][j] for s, g in zip(seeds, grids)
            for i, b1 in enumerate(axis) for j, b2 in enumerate(axis)}
