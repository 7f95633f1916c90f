import dataclasses

import numpy as np
import pytest

import scale_lab
from scale_lab import (CellConfigs, DomainError, DriftProfile, FlowState,
                       FlowTrace, GradientSignal, MomentState,
                       OscillationGridReport, Problem, RemainderReport, RescaleProbeResult,
                       RunTrace, SensitivityFit, SweepResult, TimeScales, constant_signal,
                       exponential_signal, first_order_sensitivity, make_problem,
                       remainder_order_sweep, sinusoidal_log_signal, steady_state_init,
                       start_point, step_scale_cells, sweep_grid, train_cells)
from scale_lab import (cli, drift, errors, flow, invariance, metrics, optimizers, problems,
                       reporting, signals, training)
from scale_lab.optimizers import optimizer_step
from oracles import TrackingCheckResult, constant_gradient_closed_form, tracking_check

PROBLEM = dict(n_samples=0, loss=np.sum, grad=np.ones_like, init_theta=np.zeros,
               loss_finite_below=1.0, default_eta=0.01)
PROFILE = dict(lambda_bound=0.1, lambda_prime_bound=0.0)
FIT = dict(slope=2.0, coefficient=0.0, delta0_grid=[0.01], signed_deviations=[0.0])
REPORT = dict(hits=1, trials=1, p_value=1.0, argmin_cols=[[0]])


def raw_cells(*pairs):
    """Raw Adam cells (epsilon 0, no bias correction), one per (beta1, beta2) pair."""
    return CellConfigs(pairs, epsilon=0.0, bias_correction=False)


def one_cell(m, v, k=0):
    """The state of one cell as a (1, d) row."""
    return MomentState(np.array([[m], [v]], dtype=float), k)


class TestOptimizerStep:
    def test_first_step_from_zero_state(self):
        state = one_cell([0.0], [0.0])
        upd = optimizer_step(state, np.ones((1, 1, 1)), raw_cells((0.5, 0.5)))
        assert state.mv[0, 0, 0] == pytest.approx(0.5, abs=0)
        assert state.mv[1, 0, 0] == pytest.approx(0.5, abs=0)
        # 0.5 / sqrt(0.5)
        assert upd[0, 0, 0] == pytest.approx(0.7071067811865476, abs=1e-15)
        assert state.k == 1

    @pytest.mark.parametrize("c", [1.0, 3.0, 0.25])
    @pytest.mark.parametrize("betas", [(0.9, 0.999), (0.5, 0.5), (0.99, 0.9)])
    def test_bias_correction_first_step_is_unit(self, c, betas):
        # m_hat = g and v_hat = g^2 at the first step, so R = sign(g)
        cells = CellConfigs([betas], epsilon=0.0, bias_correction=True)
        upd = optimizer_step(one_cell([0.0], [0.0]), np.full((1, 1, 1), c), cells)
        assert upd[0, 0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_frozen_state_hand_values(self):
        # one state, two rows of one config: g = 1 keeps it fixed, g = 2 moves it
        state = MomentState(np.ones((2, 2, 1)))
        upd = optimizer_step(state, np.array([[[1.0], [2.0]]]),
                             raw_cells((0.9, 0.9), (0.9, 0.9)))
        assert state.mv[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
        assert state.mv[1, 0, 0] == pytest.approx(1.0, abs=1e-15)
        assert upd[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
        assert state.mv[0, 1, 0] == pytest.approx(1.1, abs=1e-15)
        assert state.mv[1, 1, 0] == pytest.approx(1.3, abs=1e-15)
        # 1.1 / sqrt(1.3), exact rational arithmetic
        assert upd[0, 1, 0] == pytest.approx(0.9647638212377321, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            optimizer_step(one_cell([0.0, 0.0], [0.0, 0.0]), np.ones((1, 1, 1)),
                           CellConfigs([(0.9, 0.999)]))

    def test_zero_v_with_zero_epsilon(self):
        with pytest.raises(DomainError):
            optimizer_step(one_cell([0.0], [0.0]), np.zeros((1, 1, 1)),
                           raw_cells((0.9, 0.9)))


class TestConfigValidation:
    @pytest.mark.parametrize("k", [-1, 2.5, np.array([2]), True, None])
    def test_step_counter_must_be_a_nonnegative_integer(self, k):
        with pytest.raises(DomainError, match="step counter"):
            MomentState(np.ones((2, 1)), k)

    @pytest.mark.parametrize("shape", [(2,), (1, 1), (3, 1), (4, 2, 1)])
    def test_moments_stack_m_and_v_on_a_leading_axis_of_2(self, shape):
        with pytest.raises(DomainError, match="stack m and v"):
            MomentState(np.ones(shape))

    def test_numpy_integer_step_counter(self):
        cells = CellConfigs([(0.9, 0.999)])
        upd = optimizer_step(one_cell([1.0], [1.0], np.int64(3)), np.ones((1, 1, 1)), cells)
        ref = optimizer_step(one_cell([1.0], [1.0], 3), np.ones((1, 1, 1)), cells)
        assert np.array_equal(upd, ref)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_beta_range(self, bad):
        # every row's pair is checked, not only the first
        with pytest.raises(DomainError, match=r"betas must lie in \(0,1\)"):
            CellConfigs([(0.9, 0.999), (bad, 0.999)])
        with pytest.raises(DomainError, match=r"betas must lie in \(0,1\)"):
            CellConfigs([(0.9, bad)])

    def test_negative_epsilon(self):
        with pytest.raises(DomainError):
            CellConfigs([(0.9, 0.999)], epsilon=-1e-8)

    def test_nan_epsilon(self):
        # a NaN epsilon would make every R NaN
        with pytest.raises(DomainError, match="nonnegative"):
            CellConfigs([(0.9, 0.999)], epsilon=float("nan"))


class TestAdamOnlyEngine:
    # the engine has one optimizer path: a removed setting fails loudly instead of being ignored
    @pytest.mark.parametrize("call", [
        lambda: CellConfigs([(0.9, 0.999)], weight_decay=0.1),
        lambda: CellConfigs([(0.9, 0.9)], eta=0.01),
        lambda: CellConfigs([(0.9, 0.9)], beta1=0.9),
        lambda: optimizer_step(MomentState(np.zeros((2, 1))), np.ones((1, 1, 1)),
                               CellConfigs([(0.9, 0.999)]), method="gd"),
        lambda: train_cells(make_problem("quadratic"), CellConfigs([(0.9, 0.999)]),
                            start_point(make_problem("quadratic"), [0]), steps=5, eta=1e-3,
                            method="gd"),
        lambda: step_scale_cells(np.ones((5, 1)), [(0.9, 0.9)], method="gd"),
        lambda: GradientSignal(g=np.ones, g_prime=np.zeros),
        lambda: MomentState(np.zeros((2, 1)), theta=np.zeros(1)),
        lambda: GradientSignal(g=np.ones),
        lambda: tracking_check(np.sin, tau=0.5, x0=0.0, interval=(0.0, 10.0)),
        lambda: step_scale_cells(np.ones((5, 1)), [(0.9, 0.9)], init="zero"),
        lambda: step_scale_cells(np.ones((5, 1)), configs=CellConfigs([(0.9, 0.999)])),
        lambda: step_scale_cells(np.ones((5, 1)), [(0.9, 0.9)], bias_correction=True),
        lambda: step_scale_cells(np.ones((5, 1)), [(0.9, 0.9)], epsilon=1e-8),
        lambda: RunTrace(k=np.arange(1), loss=np.zeros(1), norm_r=np.ones(1)),
        lambda: FlowTrace(np.arange(2.0), *[np.ones((2, 1))] * 3, signal_kind="x"),
        lambda: GradientSignal(g=np.ones, kind="constant"),
        lambda: GradientSignal(g=np.ones, dimension=1),
        lambda: GradientSignal(g=np.ones, params={}),
        lambda: constant_signal(1.5, dimension=4),
        lambda: exponential_signal(0.1, dimension=2),
        lambda: sinusoidal_log_signal(0.1, 0.5, dimension=2),
        lambda: FlowState(m=np.ones(1), v=np.ones(1), t=0.0),
        lambda: steady_state_init(constant_signal(1.0), TimeScales(1.0, 1.0), t0=0.0),
        lambda: first_order_sensitivity(TimeScales(1.0, 1.0), [0.01, 0.02, 0.04], h=0.01),
        lambda: remainder_order_sweep(TimeScales(1.0, 1.0), [0.01, 0.02, 0.04], h=0.01),
        lambda: TimeScales(1.0, 1.0, dt=1.0),
        lambda: sweep_grid(make_problem("quadratic"), seeds=(0,), steps=5, epsilon=0.0),
        lambda: SweepResult(traces={}, omegas={}, metric="omega1"),
        lambda: sweep_grid(make_problem("quadratic"), seeds=(0,), steps=5, metric="omega1"),
        lambda: SweepResult(report=None, traces={}, omegas={}),
        lambda: SweepResult(traces={}, omegas={}, window=1),
        lambda: Problem(**PROBLEM, dim_theta=1),
        lambda: Problem(**PROBLEM, meta={}),
        lambda: Problem(**PROBLEM, kind="quadratic"),
        lambda: DriftProfile(**PROFILE, interval=(0.0, 1.0)),
        lambda: RemainderReport(channels={}, profile=DriftProfile(**PROFILE), window=(0.0, 1.0)),
        lambda: SensitivityFit(**FIT, deviations=[0.0]),
        lambda: OscillationGridReport(**REPORT, omega=[np.zeros((1, 1))]),
        lambda: OscillationGridReport(**REPORT, degenerate_rows=[]),
        lambda: OscillationGridReport(**REPORT, rate=1.0),
        lambda: reporting.write_svg_lines("x.svg", [("a", [0.0], [1.0])], width=1),
        lambda: reporting.write_svg_lines("x.svg", [("a", [0.0], [1.0])], height=1),
        lambda: cli._manifest(cli.build_parser().parse_args(["report", "--grid", "g"]), skip=()),
    ], ids=["weight_decay", "CellConfigs-eta", "CellConfigs-beta1", "optimizer_step-method",
            "train_cells-method",
            "step_scale_cells-method", "g_prime", "MomentState-theta", "GradientSignal-no-drift",
            "tracking_check-no-derivatives", "step_scale_cells-init", "step_scale_cells-configs",
            "step_scale_cells-bias_correction", "step_scale_cells-epsilon",
            "RunTrace-k", "FlowTrace-signal_kind", "GradientSignal-kind",
            "GradientSignal-dimension", "GradientSignal-params", "constant_signal-dimension",
            "exponential_signal-dimension", "sinusoidal_log_signal-dimension", "FlowState-t",
            "steady_state_init-t0", "first_order_sensitivity-h", "remainder_order_sweep-h",
            "TimeScales-dt",
            "sweep_grid-epsilon", "SweepResult-metric", "sweep_grid-metric", "SweepResult-report",
            "SweepResult-window",
            "Problem-dim_theta", "Problem-meta", "Problem-kind", "DriftProfile-interval",
            "RemainderReport-window", "SensitivityFit-deviations", "OscillationGridReport-omega",
            "OscillationGridReport-degenerate_rows", "OscillationGridReport-rate",
            "write_svg_lines-width",
            "write_svg_lines-height", "_manifest-skip"])
    def test_removed_setting_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_public_surface(self):
        # every export, pinned so that one added or removed shows in review; the submodules
        # the package's own imports bind are attributes, not exports.  CellConfigs is the one
        # type that carries betas, epsilon and bias correction into optimizer_step
        assert sorted(scale_lab.__all__) == [
            "CellConfigs", "CounterRng", "DomainError", "DriftProfile", "FlowAbort", "FlowState",
            "FlowTrace", "GradientSignal", "MomentState", "OscillationGridReport", "Problem",
            "RemainderReport", "RescaleProbeResult", "RunPoint", "RunTrace", "SensitivityFit",
            "SweepResult", "TimeScales", "beta_from_tau", "binomial_diagonal_test",
            "constant_signal", "drift_bounds", "ema_smooth", "exact_invariance_probe",
            "exponential_signal", "first_order_sensitivity", "fit_power_law", "grid_report",
            "integrate_flow", "make_problem", "measure_remainder",
            "oscillation_omega1", "oscillation_omega2", "predict_first_order",
            "remainder_order_sweep", "sinusoidal_log_signal", "start_point", "steady_state_init",
            "step_scale_cells", "sweep_grid", "tau_from_beta", "train_cells"]
        star: dict = {}
        exec("from scale_lab import *", star)
        assert sorted(k for k in star if k != "__builtins__") == sorted(scale_lab.__all__)
        assert hasattr(scale_lab, "invariance") and "invariance" not in star
        assert "OptimizerConfig" not in dir(scale_lab)
        assert not hasattr(optimizers, "OptimizerConfig")

    def test_traces_hold_only_what_the_run_computed(self):
        assert "StepTrace" not in dir(scale_lab) and not hasattr(invariance, "StepTrace")
        assert not hasattr(reporting, "step_trace_csv")
        assert not hasattr(FlowTrace, "after")
        assert [f.name for f in dataclasses.fields(RunTrace)] == ["loss", "norm_r", "diverged"]
        assert [f.name for f in dataclasses.fields(FlowTrace)] == ["t", "m", "v", "r"]

    def test_records_keep_only_the_fields_the_program_reads(self):
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]
        assert names(GradientSignal) == ["g", "delta_analytic", "delta_prime_analytic"]
        assert names(FlowState) == ["m", "v", "clamped"]
        assert names(TimeScales) == ["tau1", "tau2"]
        assert names(Problem) == list(PROBLEM)
        assert names(SweepResult) == ["traces", "omegas"]
        assert names(MomentState) == ["mv", "k"]
        assert not hasattr(CellConfigs([(0.9, 0.999)]), "configs")
        assert names(OscillationGridReport) == list(REPORT)
        assert not hasattr(RescaleProbeResult, "deviation_at")
        assert names(TrackingCheckResult) == ["max_residual", "margin", "passed",
                                              "transient_coeff", "curvature_sup", "t",
                                              "residual", "bound"]
        assert names(DriftProfile) == list(PROFILE)
        assert names(drift.RemainderChannel) == ["max_abs", "constant", "bound_margin",
                                                 "bound_sup"]
        assert names(RemainderReport) == ["channels", "profile", "fitted_order"]
        assert names(SensitivityFit) == list(FIT)

    def test_test_only_constructors_are_gone(self):
        # tests build their own zero MomentState and their own signals; every src/ signal
        # carries its analytic drift
        assert not hasattr(scale_lab, "zero_state") and not hasattr(optimizers, "zero_state")
        assert not hasattr(scale_lab, "tabulated_signal")
        assert not hasattr(signals, "tabulated_signal")

    def test_test_only_oracles_left_the_package(self):
        # references that only tests call live in tests/oracles.py
        for module, name in [(flow, "flow_rhs"), (flow, "steady_state_exponential_gains"),
                             (drift, "tracking_check"), (drift, "TrackingCheckResult"),
                             (drift, "TRACKING_SLACK"), (signals, "FD_STEP_SCALE"),
                             (signals, "_fd_step"), (GradientSignal, "delta_fd"),
                             (optimizers, "constant_gradient_closed_form")]:
            assert not hasattr(module, name), (module.__name__, name)
            assert not hasattr(scale_lab, name), name

    def test_one_cell_conveniences_are_gone(self):
        # optimizer_step is the one kernel entry and the problems take (C, d) rows only;
        # a batch shares one epsilon, so no row mask of exact rows is kept
        assert not hasattr(scale_lab, "adam_step") and not hasattr(optimizers, "adam_step")
        assert not hasattr(problems, "_stacked")
        assert not hasattr(CellConfigs([(0.9, 0.999)], epsilon=0.0), "exact_rows")

    def test_one_jump_multiplier_column_is_built_by_the_cli(self):
        # probe --step-scale builds its one-jump column with np.where; no schedule builder is kept
        assert not hasattr(scale_lab, "step_multipliers")
        assert not hasattr(signals, "step_multipliers")

    def test_each_flow_concept_has_one_home(self):
        # both ladder fits live in drift next to the ladder flow they share, and the
        # beta <-> tau map is tau_from_beta / beta_from_tau alone
        assert drift.first_order_sensitivity is scale_lab.first_order_sensitivity
        assert drift.SensitivityFit is scale_lab.SensitivityFit
        for module, name in [(invariance, "first_order_sensitivity"),
                             (invariance, "SensitivityFit"), (drift, "_exponential_ladder"),
                             (TimeScales, "from_betas"), (TimeScales, "beta1"),
                             (TimeScales, "beta2")]:
            assert not hasattr(module, name), (module.__name__, name)

    def test_second_scoring_surface_is_gone(self):
        # grid_report is the one path from cell scores to K, N and p: it builds the grids of
        # the cell maps itself, pooling is one call on all of them, and a sweep with no
        # scorable row raises its DomainError
        for module, name in [(scale_lab, "combine_reports"), (metrics, "combine_reports"),
                             (scale_lab, "SweepAbort"), (errors, "SweepAbort"),
                             (training, "SweepAbort"), (training, "grid_report"),
                             (scale_lab, "omega_grids"), (metrics, "omega_grids")]:
            assert not hasattr(module, name), (module.__name__, name)


class TestClosedForm:
    def test_single_step(self):
        # sqrt(0.1)
        assert constant_gradient_closed_form(5.0, 1, 0.9, 0.9)[0] == pytest.approx(
            0.31622776601683794, abs=1e-15)
        assert constant_gradient_closed_form(-5.0, 1, 0.9, 0.9)[0] == pytest.approx(
            -0.31622776601683794, abs=1e-15)

    def test_large_k_limit(self):
        assert constant_gradient_closed_form(123.0, 10_000, 0.9, 0.999)[0] == pytest.approx(
            1.0, abs=1e-4)

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            constant_gradient_closed_form(1.0, 0, 0.9, 0.9)

    @pytest.mark.parametrize("c", [5.0, 0.01, -2.0, 1e6])
    @pytest.mark.parametrize("betas", [(0.9, 0.9), (0.9, 0.999), (0.99, 0.5)])
    def test_matches_iterated_raw_adam(self, c, betas):
        # scale independence of raw Adam from zero init, k = 1..50
        upd = optimizer_step(one_cell([0.0], [0.0]), np.full((50, 1, 1), c),
                             raw_cells(betas))
        for k in range(1, 51):
            oracle = constant_gradient_closed_form(c, k, *betas)
            assert upd[k - 1, 0, 0] == pytest.approx(oracle[0], abs=1e-12)


class TestProperties:
    def test_coordinate_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m, v, g = rng.normal(size=4), rng.uniform(0.5, 2.0, 4), rng.normal(size=4)
            perm = rng.permutation(4)
            cells = CellConfigs([(0.9, 0.99)])
            base, permuted = one_cell(m, v), one_cell(m[perm], v[perm])
            r1 = optimizer_step(base, g[None, None], cells)
            r2 = optimizer_step(permuted, g[perm][None, None], cells)
            assert np.array_equal(r1[..., perm], r2)
            assert np.array_equal(base.mv[..., perm], permuted.mv)

    def test_sign_of_r_matches_sign_of_new_m(self):
        rng = np.random.default_rng(11)
        cells = CellConfigs([(0.8, 0.95)], epsilon=1e-8)
        state = one_cell(rng.normal(size=6), rng.uniform(0.1, 1.0, 6))
        for _ in range(30):
            upd = optimizer_step(state, rng.normal(size=(1, 1, 6)), cells)
            assert np.array_equal(np.sign(upd[0]), np.sign(state.mv[0]))

    def test_bias_correction_is_transient_only(self):
        # raw and bias-corrected traces agree to 1e-6 from step 300 on
        rng = np.random.default_rng(3)
        stream = rng.uniform(0.5, 1.5, size=(400, 3)) * np.sign(rng.normal(size=(400, 3)))
        for b1, b2 in [(0.9, 0.9), (0.8, 0.9), (0.9, 0.5)]:
            r_raw, r_bc = (optimizer_step(one_cell([0.0] * 3, [0.0] * 3), stream[:, None],
                                          CellConfigs([(b1, b2)], epsilon=1e-12,
                                                      bias_correction=bc))
                           for bc in (False, True))
            assert np.max(np.abs(r_raw - r_bc)[299:]) < 1e-6
