"""Adam, its continuous-time flow, and gradient-scale-invariance diagnostics."""

from .errors import DimensionError, DomainError, FlowAbort, SweepAbort
from .flow import (FlowState, FlowTrace, TimeScales, beta_from_tau, flow_rhs,
                   integrate_flow, predict_first_order, steady_state_exponential_gains,
                   steady_state_init, tau_from_beta)
from .drift import (DriftProfile, RemainderReport, TrackingCheckResult, drift_bounds,
                    fit_power_law, measure_remainder, remainder_order_sweep, tracking_check)
from .invariance import (RescaleProbeResult, SensitivityFit, StepTrace, exact_invariance_probe,
                         first_order_sensitivity, step_scale_cells, step_scale_grid)
from .metrics import (OscillationGridReport, binomial_diagonal_test, combine_reports, ema_smooth,
                      grid_report, omega_grids, oscillation_omega1, oscillation_omega2)
from .optimizers import (CellConfigs, MomentState, OptimizerConfig, adam_step,
                         constant_gradient_closed_form, zero_state)
from .problems import Problem, make_problem
from .rng import CounterRng
from .signals import (GradientSignal, constant_signal, exponential_signal,
                      sinusoidal_log_signal, step_multipliers, tabulated_signal)
from .training import RunTrace, SweepResult, sweep_grid, train_cells

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
