"""The continuous-time limit of Adam and its fixed-step integrator.

With beta_i = exp(-dt / tau_i) and a learning rate eta = eta_bar * dt, the
discrete recurrences converge (dt -> 0) to the coupled per-coordinate system

    tau1 * m'(t)  = -m(t) + g(t)
    tau2 * v'(t)  = -v(t) + g(t)**2
    theta'(t)     = -eta_bar * m(t) / sqrt(v(t))

The normalized update R(t) = m(t) / sqrt(v(t)) is what the invariance
analysis tracks.  Integration is classical fourth-order Runge-Kutta with a
fixed step, which keeps traces uniformly sampled for the oscillation
metrics; the moment equations are linear, so the scheme's global O(h^4)
error is easy to verify against the analytic exponential-mode solutions
below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, FlowAbort
from .signals import GradientSignal

BURN_IN_FACTOR = 10.0  # transients treated as decayed after 10 * max(tau)


def tau_from_beta(beta: float, dt: float) -> float:
    """Relaxation time tau = -dt / ln(beta) of a discrete EMA coefficient."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0,1), got {beta}")
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    return -dt / math.log(beta)


def beta_from_tau(tau: float, dt: float) -> float:
    """Inverse map beta = exp(-dt / tau)."""
    if tau <= 0.0 or dt <= 0.0:
        raise DomainError("tau and dt must be positive")
    return math.exp(-dt / tau)


@dataclass(frozen=True)
class TimeScales:
    """Continuous-time parameters of the flow."""

    tau1: float
    tau2: float
    eta_bar: float = 1.0
    dt: float = 1.0

    def __post_init__(self):
        for name in ("tau1", "tau2", "eta_bar", "dt"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be strictly positive")

    @property
    def beta1(self) -> float:
        return beta_from_tau(self.tau1, self.dt)

    @property
    def beta2(self) -> float:
        return beta_from_tau(self.tau2, self.dt)

    @property
    def tau_max(self) -> float:
        return max(self.tau1, self.tau2)

    @property
    def burn_in(self) -> float:
        return BURN_IN_FACTOR * self.tau_max

    @classmethod
    def from_betas(cls, beta1: float, beta2: float, dt: float, eta: float) -> "TimeScales":
        """Discrete (beta1, beta2, eta) at step dt mapped to flow time scales."""
        return cls(tau1=tau_from_beta(beta1, dt), tau2=tau_from_beta(beta2, dt),
                   eta_bar=eta / dt, dt=dt)


@dataclass(frozen=True)
class FlowState:
    """Instantaneous flow state; ``clamped`` flags a v floor applied at init."""

    m: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    t: float = 0.0
    clamped: bool = False


@dataclass(frozen=True)
class FlowTrace:
    """Uniformly sampled flow trajectory."""

    t: np.ndarray          # (n,)
    m: np.ndarray          # (n, d)
    v: np.ndarray          # (n, d)
    r: np.ndarray          # (n, d)
    theta: np.ndarray      # (n, d)
    timescales: TimeScales
    signal_kind: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def norm_r(self) -> np.ndarray:
        return np.linalg.norm(self.r, axis=1)

    def after(self, t_min: float) -> "FlowTrace":
        """Sub-trace with t >= t_min (burn-in exclusion)."""
        keep = self.t >= t_min
        if not np.any(keep):
            raise DomainError(f"no samples at t >= {t_min}")
        return FlowTrace(self.t[keep], self.m[keep], self.v[keep], self.r[keep],
                         self.theta[keep], self.timescales, self.signal_kind, self.meta)


def _abort_if_v_nonpositive(t: float, v: np.ndarray) -> None:
    if np.any(v <= 0.0):
        raise FlowAbort(t, f"v crossed zero at t={t:.6g}: gradient floor assumption violated")


def flow_rhs(t: float, y: np.ndarray, g: np.ndarray, ts: TimeScales) -> np.ndarray:
    """Right-hand side d(m, v, theta)/dt at the stacked (3, d) state ``y`` and gradient ``g``.

    Raises ``FlowAbort`` (a ``DomainError``) unless v > 0 coordinate-wise.
    """
    m, v = y[0], y[1]
    _abort_if_v_nonpositive(t, v)
    dy = np.empty_like(y)
    dy[0] = (-m + g) / ts.tau1
    dy[1] = (-v + g * g) / ts.tau2
    dy[2] = -ts.eta_bar * m / np.sqrt(v)
    return dy


def _stage_times(t0: float, h: float, n_steps: int) -> np.ndarray:
    """The (n_steps, 3) RK4 stage times (t_i, t_i + h/2, t_i + h), t_i = t0 + i * h."""
    return (t0 + np.arange(n_steps) * h)[:, None] + np.array([0.0, 0.5 * h, h])


def _rk4(rhs: Callable, t0: float, y, h: float, forcing) -> Iterator[tuple[float, object]]:
    """Classical fixed-step RK4 of y' = rhs(t, y, f); yields (t, y) after each step.

    ``forcing[i]`` holds f at the three ``_stage_times`` of step i; ``y`` is
    a float or an array; step i ends at exactly t0 + i * h.
    """
    t = t0
    for i, (f1, f2, f4) in enumerate(forcing):
        k1 = rhs(t, y, f1)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1, f2)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2, f2)
        k4 = rhs(t + h, y + h * k3, f4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t0 + (i + 1) * h
        yield t, y


def _fixed_step(t0: float, t1: float, h: float) -> tuple[int, float]:
    """Step count and the step rounded so that the grid hits t1 exactly."""
    n_steps = max(1, round((t1 - t0) / h))
    return n_steps, (t1 - t0) / n_steps


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


def predict_first_order(signal: GradientSignal, ts: TimeScales, t):
    """First-order predictions (m_pred, v_pred, R_pred) at t, a number or an array."""
    g = signal.g(t)
    d = signal.delta(t)
    m_pred = g * (1.0 - ts.tau1 * d)
    v_pred = g * g * (1.0 - 2.0 * ts.tau2 * d)
    r_pred = np.sign(g) * (1.0 + (ts.tau2 - ts.tau1) * d)
    return m_pred, v_pred, r_pred


def steady_state_init(signal: GradientSignal, ts: TimeScales, t0: float = 0.0) -> FlowState:
    """First-order steady initialization: (m, v) from ``predict_first_order`` at t0.

    Skips the O(exp(-t/tau)) transient up to the expansion remainder.  v is
    floored at a small positive multiple of g^2 if the first-order formula
    goes nonpositive; the returned state is flagged ``clamped`` in that case.
    """
    m, v, _ = predict_first_order(signal, ts, t0)
    g0 = signal.g(t0)
    clamped = bool(np.any(v <= 0.0))
    v = np.maximum(v, 1e-12 * g0 * g0)
    return FlowState(m=m, v=v, theta=np.zeros_like(g0), t=t0, clamped=clamped)


def integrate_flow(signal: GradientSignal, ts: TimeScales, init: FlowState,
                   t_end: float, h: float | None = None, record_stride: int = 1) -> FlowTrace:
    """Fixed-step RK4 integration of the flow from ``init`` to ``t_end``.

    The step is rounded so the grid hits ``t_end`` exactly; every
    ``record_stride``-th state is recorded (plus the initial one).  Aborts
    with ``FlowAbort`` if any v coordinate reaches zero, which signals a
    violated gradient-floor assumption rather than an integrator failure.
    """
    if h is None:
        h = min(ts.tau1, ts.tau2) / 50.0
    if h <= 0.0:
        raise DomainError(f"step must be positive, got {h}")
    if t_end <= init.t:
        raise DomainError(f"t_end={t_end} must exceed init.t={init.t}")
    if np.any(init.v <= 0.0):
        raise DomainError("initial v must be strictly positive")

    n_steps, h = _fixed_step(init.t, t_end, h)
    y = np.array([init.m, init.v, init.theta], dtype=float)
    rec_t = np.empty(n_steps // record_stride + 1)
    rec_y = np.empty((rec_t.size,) + y.shape)
    rec_t[0], rec_y[0] = init.t, y
    forcing = signal.g(_stage_times(init.t, h, n_steps))
    rhs = functools.partial(flow_rhs, ts=ts)
    for i, (t, y) in enumerate(_rk4(rhs, init.t, y, h, forcing), 1):
        if i % record_stride == 0:
            rec_t[i // record_stride], rec_y[i // record_stride] = t, y
    _abort_if_v_nonpositive(t, y[1])  # flow_rhs checked the end of every earlier step

    rec_m, rec_v, rec_th = rec_y[:, 0], rec_y[:, 1], rec_y[:, 2]
    return FlowTrace(t=rec_t, m=rec_m, v=rec_v, r=rec_m / np.sqrt(rec_v), theta=rec_th,
                     timescales=ts, signal_kind=signal.kind,
                     meta={"h": h, "record_stride": record_stride, **signal.params})
