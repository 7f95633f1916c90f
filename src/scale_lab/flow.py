"""The continuous-time limit of Adam and its fixed-step integrator.

With beta_i = exp(-dt / tau_i), the discrete moment recurrences converge
(dt -> 0) to the per-coordinate system

    tau1 * m'(t)  = -m(t) + g(t)
    tau2 * v'(t)  = -v(t) + g(t)**2

The normalized update R(t) = m(t) / sqrt(v(t)) is what the invariance
analysis tracks; under a prescribed g(t) the parameters never feed back into
it.  Integration is classical fourth-order Runge-Kutta with a fixed step,
which keeps traces uniformly sampled for the oscillation metrics; the moment
equations are linear scalar relaxations, so the global O(h^4) error is easy
to verify against their analytic exponential modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FlowAbort, require_indexable
from .signals import GradientSignal

BURN_IN_FACTOR = 10.0  # transients treated as decayed after 10 * max(tau)


def _finite_positive(name: str, x: float) -> float:
    """``x`` unchanged, or a ``DomainError`` naming it unless it is a finite float > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"{name} must be finite and strictly positive, got {x}")
    return x


def tau_from_beta(beta: float, dt: float) -> float:
    """Relaxation time tau = -dt / ln(beta) of a discrete EMA coefficient."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    return _finite_positive("tau", -_finite_positive("dt", dt) / math.log(beta))


def beta_from_tau(tau: float, dt: float) -> float:
    """Inverse map beta = exp(-dt / tau); a beta that rounds to 0 or 1 is a ``DomainError``."""
    beta = math.exp(-_finite_positive("dt", dt) / _finite_positive("tau", tau))
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta = exp(-dt / tau) rounds to {beta} at tau={tau}, dt={dt}")
    return beta


@dataclass(frozen=True)
class TimeScales:
    """The flow's two relaxation times; ``tau_from_beta`` maps a discrete beta to one."""

    tau1: float
    tau2: float

    def __post_init__(self):
        _finite_positive("tau1", self.tau1)
        _finite_positive("tau2", self.tau2)

    @property
    def tau_max(self) -> float:
        return max(self.tau1, self.tau2)

    @property
    def burn_in(self) -> float:
        return BURN_IN_FACTOR * self.tau_max


@dataclass(frozen=True)
class FlowState:
    """Instantaneous flow state; ``clamped`` flags a v floor applied at init."""

    m: np.ndarray
    v: np.ndarray
    clamped: bool = False


@dataclass(frozen=True)
class FlowTrace:
    """Uniformly sampled flow trajectory."""

    t: np.ndarray          # (n,)
    m: np.ndarray          # (n, d)
    v: np.ndarray          # (n, d)
    r: np.ndarray          # (n, d)

    @property
    def norm_r(self) -> np.ndarray:
        return np.linalg.norm(self.r, axis=1)

    @property
    def meta(self) -> dict:
        """``{"h": step}`` read off the uniform grid: the step ``flow`` records in its manifest."""
        return {"h": float(self.t[1] - self.t[0])}


def _abort_if_invalid(t: float, y: np.ndarray, h: float, tau2: float) -> None:
    """``FlowAbort`` at time t unless the stacked moments ``y`` = (m, v) are finite with v > 0;
    the exact flow keeps v > 0, so a v <= 0 is an RK4 stage of step ``h`` >> ``tau2`` overshooting."""
    if not np.isfinite(y).all():
        raise FlowAbort(t, f"m or v is not finite at t={t:.6g}: the gradient is not finite")
    if np.any(y[1] <= 0.0):
        raise FlowAbort(t, f"v crossed zero at t={t:.6g}: an RK4 stage overshot; "
                           f"the step h={h:.6g} is too large for tau2={tau2:.6g}")


def _stage_times(t0: float, t1: float, h: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Grid t_i = t0 + i * h, its (n, 3) RK4 stage times t_i + (0, h/2, h), h rounded to hit t1;
    a ``DomainError`` unless h is finite and positive or if the stage times would outgrow
    numpy's index type."""
    n_steps = (t1 - t0) / _finite_positive("step h", h)
    # 24 bytes of stage times per step
    require_indexable(n_steps, 24, f"h={h:g} splits [{t0:g}, {t1:g}] into {n_steps:g} steps")
    n_steps = max(1, round(n_steps))
    h = (t1 - t0) / n_steps
    t = t0 + np.arange(n_steps + 1) * h
    return t, t[:-1, None] + np.array([0.0, 0.5 * h, h]), h


def _relax(x0, tau, forcing, h: float) -> np.ndarray:
    """Classical fixed-step RK4 of tau x' = f - x; returns every stage point and the end state.

    ``x0`` is a float or an array, ``tau`` broadcasts to its shape and ``forcing[i]`` holds f at
    the ``_stage_times`` of step i.  Rows 4i to 4i + 3 of the (4n + 1, ...) result are the points
    step i evaluates f - x at (row 4i: the state at t0 + i * h).  Only the recurrence is serial:
    each coordinate steps its rows 4i as Python floats, then array ops over all of its steps
    fill its stage points x2, x3, x4 (rows 4i + 1 to 4i + 3) in place with the loop's own
    operations in its order, so every row has the bits the Python-float loop computes for it.
    """
    shape, n = np.shape(x0), len(forcing)
    forcing = np.reshape(forcing, (3 * n, -1))
    taus = np.broadcast_to(tau, shape).ravel().tolist()
    points = np.empty((4 * n + 1, forcing.shape[1]))
    half, sixth = 0.5 * h, h / 6.0
    # one coordinate's column at a time: numpy would buffer 2-D ops on the strided stage rows
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as in the loop
        for c, (x, tau_c) in enumerate(zip(np.ravel(x0).tolist(), taus)):
            f, col = forcing[:, c], points[:, c]
            fs = iter(memoryview(f))  # floats made one at a time keep memory flat
            xs = [x]
            for f1, f2, f4 in zip(fs, fs, fs):
                k1 = (f1 - x) / tau_c
                k2 = (f2 - (x + half * k1)) / tau_c
                k3 = (f2 - (x + half * k2)) / tau_c
                k4 = (f4 - (x + h * k3)) / tau_c
                x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                xs.append(x)
            col[::4] = xs
            for row, f_row, step in ((1, f[0::3], half), (2, f[1::3], half), (3, f[1::3], h)):
                # x + step * ((f - previous stage) / tau) in place: * and + commute bit for bit
                stage = col[row::4]
                np.subtract(f_row, col[row - 1:-1:4], out=stage)
                stage /= tau_c
                stage *= step
                stage += col[:-1:4]
    return points.reshape((4 * n + 1,) + shape)


def predict_first_order(signal: GradientSignal, ts: TimeScales, t):
    """First-order predictions (m_pred, v_pred, R_pred) at t, a number or an array."""
    g = signal.g(t)
    d = signal.delta(t)
    m_pred = g * (1.0 - ts.tau1 * d)
    v_pred = g * g * (1.0 - 2.0 * ts.tau2 * d)
    r_pred = np.sign(g) * (1.0 + (ts.tau2 - ts.tau1) * d)
    return m_pred, v_pred, r_pred


def steady_state_init(signal: GradientSignal, ts: TimeScales) -> FlowState:
    """First-order steady initialization: (m, v) from ``predict_first_order`` at t = 0.

    Skips the O(exp(-t/tau)) transient up to the expansion remainder.  v is
    floored at a small positive multiple of g^2 if the first-order formula
    goes nonpositive; the returned state is flagged ``clamped`` in that case.
    An overflow leaves a non-finite state, which ``integrate_flow`` aborts on at t = 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m, v, _ = predict_first_order(signal, ts, 0.0)
        g0 = signal.g(0.0)
        clamped = bool(np.any(v <= 0.0))
        v = np.maximum(v, 1e-12 * g0 * g0)
    return FlowState(m=m, v=v, clamped=clamped)


def integrate_flow(signal: GradientSignal, ts: TimeScales, init: FlowState,
                   t_end: float, h: float | None = None) -> FlowTrace:
    """Fixed-step RK4 integration of the flow from ``init`` at t = 0 to ``t_end``.

    The step is rounded so the grid hits ``t_end`` exactly, and every step's state is
    recorded (plus the initial one).  A state with no coordinates is a ``DomainError``.
    Aborts with ``FlowAbort`` at the first stage point, in time order, with an m or v
    coordinate that is not finite (an overflowed or NaN gradient) or a v coordinate <= 0 (an
    RK4 stage overshooting at a step much larger than tau2: the exact flow keeps v > 0), else
    at the first sample whose ||R|| overflows.
    """
    if h is None:
        h = min(ts.tau1, ts.tau2) / 50.0
    _finite_positive("t_end", t_end)
    if np.size(init.m) == 0 or np.size(init.v) == 0:
        raise DomainError(f"a flow needs at least one coordinate, got m of shape "
                          f"{np.shape(init.m)} and v of shape {np.shape(init.v)}")
    if np.any(init.v <= 0.0):
        raise DomainError("initial v must be strictly positive")

    t, stages, h = _stage_times(0.0, t_end, h)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite forcing aborts below
        g = signal.g(stages)
        seq = _relax(np.array([init.m, init.v], dtype=float), np.array([[ts.tau1], [ts.tau2]]),
                     np.stack([g, g * g], axis=2), h)
    bad = ~np.isfinite(seq).all(axis=(1, 2)) | np.any(seq[:, 1] <= 0.0, axis=-1)
    k = int(np.argmax(bad))  # the first invalid point, if any
    _abort_if_invalid(float(np.append(stages[:, [0, 1, 1, 2]], t[-1])[k]), seq[k], h, ts.tau2)

    ys = seq[::4].copy()  # the step points, without holding on to the stage points
    m, v = ys[:, 0], ys[:, 1]
    trace = FlowTrace(t=t, m=m, v=v, r=m / np.sqrt(v))
    with np.errstate(over="ignore"):
        bad = t[~np.isfinite(trace.norm_r)]
    if bad.size:
        raise FlowAbort(float(bad[0]), f"||R|| is not finite at t={bad[0]:.6g}: it overflowed")
    return trace
