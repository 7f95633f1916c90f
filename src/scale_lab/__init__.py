"""Adam, its continuous-time flow, and gradient-scale-invariance diagnostics."""

from .errors import DomainError, FlowAbort
from .flow import (FlowState, FlowTrace, TimeScales, beta_from_tau, integrate_flow,
                   predict_first_order, steady_state_init, tau_from_beta)
from .drift import (DriftProfile, RemainderReport, SensitivityFit, drift_bounds,
                    first_order_sensitivity, fit_power_law, measure_remainder,
                    remainder_order_sweep)
from .invariance import (RescaleProbeResult, exact_invariance_probe, step_scale_cells,
                         step_scale_grid)
from .metrics import (OscillationGridReport, binomial_diagonal_test, ema_smooth, grid_report,
                      omega_grids, oscillation_omega1, oscillation_omega2)
from .optimizers import CellConfigs, MomentState
from .problems import Problem, make_problem
from .rng import CounterRng
from .signals import GradientSignal, constant_signal, exponential_signal, sinusoidal_log_signal
from .training import RunPoint, RunTrace, SweepResult, start_point, sweep_grid, train_cells

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
