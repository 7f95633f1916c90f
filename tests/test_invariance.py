import numpy as np
import pytest

from scale_lab import (DomainError, MomentState, OptimizerConfig, StepScaleExperiment,
                       TimeScales, exact_invariance_probe, first_order_sensitivity,
                       run_step_scale_experiment, step_scale_grid)

BETA_AXIS = (0.9, 0.99, 0.999)


class TestExactInvarianceProbe:
    def test_signsgd_is_exact_invariant(self):
        lambdas = np.logspace(-3, 3, 13)
        result = exact_invariance_probe("signsgd", None, np.array([3.7, -0.01]), lambdas)
        assert result.classification == "exact-invariant"
        assert all(d < 1e-15 for d in result.deviations)

    def test_gd_is_scale_linear_with_exact_deviation(self):
        g = np.array([1.0, -2.0])
        result = exact_invariance_probe("gd", None, g, [3.0])
        assert result.classification == "scale-linear"
        # || lambda g - g ||_inf = |lambda - 1| * ||g||_inf
        assert result.deviation_at(3.0) == 4.0

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_gd_deviation_formula(self, lam):
        g = np.array([0.3, -1.7, 0.9])
        result = exact_invariance_probe("gd", None, g, [lam])
        assert result.deviation_at(lam) == pytest.approx(
            abs(lam - 1.0) * np.max(np.abs(g)), rel=1e-15)

    def test_adam_frozen_state_is_other(self):
        state = MomentState(m=np.array([1.0]), v=np.array([1.0]), theta=np.zeros(1))
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        result = exact_invariance_probe("adam", state, np.array([1.0]), [2.0], cfg)
        assert result.classification == "other"
        # R = 1 at lambda=1 and 1.1/sqrt(1.3) at lambda=2
        assert result.deviation_at(2.0) == pytest.approx(1.0 - 0.9647638212377321,
                                                         abs=1e-14)

    def test_non_finite_step_is_domain_error(self):
        # sqrt of a negative stepped v is NaN: no deviation may be reported from it
        state = MomentState(m=np.zeros(1), v=-np.ones(1), theta=np.zeros(1))
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        with pytest.raises(DomainError):
            exact_invariance_probe("adam", state, np.array([1.0]), [2.0], cfg)

    def test_lambda_one_has_zero_deviation(self):
        state = MomentState(m=np.array([0.4]), v=np.array([0.9]), theta=np.zeros(1))
        cfg = OptimizerConfig(beta1=0.95, beta2=0.98)
        result = exact_invariance_probe("adam", state, np.array([1.3]), [1.0], cfg)
        assert result.deviation_at(1.0) == 0.0

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(DomainError):
            exact_invariance_probe("gd", None, np.ones(1), [1.0, -2.0])

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            exact_invariance_probe("lion", None, np.ones(1), [1.0])


class TestFirstOrderSensitivity:
    GRID = [0.01, 0.02, 0.04, 0.08]

    def test_equal_taus_second_order(self):
        fit = first_order_sensitivity(TimeScales(1.0, 1.0), self.GRID)
        assert fit.slope == pytest.approx(2.0, abs=0.2)
        assert fit.coefficient < 0.05  # first-order coefficient vanishes

    def test_unequal_taus_first_order(self):
        fit = first_order_sensitivity(TimeScales(1.0, 2.0), self.GRID)
        assert fit.slope == pytest.approx(1.0, abs=0.1)
        assert fit.coefficient == pytest.approx(1.0, abs=0.1)  # |tau2 - tau1|
        assert all(s > 0 for s in fit.signed_deviations)

    def test_reversed_taus_flip_the_sign(self):
        fit = first_order_sensitivity(TimeScales(2.0, 1.0), self.GRID)
        assert fit.coefficient == pytest.approx(1.0, abs=0.1)
        assert all(s < 0 for s in fit.signed_deviations)

    def test_needs_three_rates(self):
        with pytest.raises(DomainError):
            first_order_sensitivity(TimeScales(1.0, 1.0), [0.01, 0.02])

    @pytest.mark.parametrize("grid", [[0.01, 0.03, 0.09], [0.01, 0.01 * (2.0 + 1e-9), 0.04]])
    def test_richardson_step_needs_a_doubling_grid(self, grid):
        with pytest.raises(DomainError):
            first_order_sensitivity(TimeScales(1.0, 1.0), grid)


class TestStepScaleExperiment:
    def test_multiplier_schedule(self):
        exp = StepScaleExperiment(base=np.ones(1), schedule=[(10, 10.0), (20, 2.0)])
        assert exp.multiplier_at(0) == 1.0
        assert exp.multiplier_at(10) == 10.0
        assert exp.multiplier_at(25) == 2.0

    def test_nonpositive_multiplier_rejected(self):
        with pytest.raises(DomainError):
            StepScaleExperiment(base=np.ones(1), schedule=[(10, -1.0)])

    def test_segment_past_end_rejected(self):
        exp = StepScaleExperiment(base=np.ones(1), schedule=[(100, 2.0)])
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        with pytest.raises(DomainError):
            run_step_scale_experiment(exp, cfg, steps=50)

    def test_gd_like_jump_is_literal(self):
        # for Adam from steady init the pre-jump norm is pinned at 1
        exp = StepScaleExperiment(base=np.ones(1), schedule=[(50, 10.0)])
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        tr = run_step_scale_experiment(exp, cfg, steps=100)
        assert np.allclose(tr.norm_r[:50], 1.0, atol=1e-12)
        assert tr.norm_r[50] != pytest.approx(1.0, abs=1e-3)

    def test_steady_state_is_scale_free_for_any_betas(self):
        steps, jump = 32000, 16000
        exp = StepScaleExperiment(base=np.ones(1), schedule=[(jump, 10.0)],
                                  beta_grid=[(b1, b2) for b1 in BETA_AXIS for b2 in BETA_AXIS])
        traces = step_scale_grid(exp, steps=steps)
        for tr in traces.values():
            assert tr.norm_r[jump - 1] == pytest.approx(1.0, abs=1e-6)
            assert tr.norm_r[-1] == pytest.approx(1.0, abs=1e-6)

    def test_transient_integral_minimized_on_diagonal(self):
        steps, jump = 32000, 16000
        exp = StepScaleExperiment(base=np.ones(1), schedule=[(jump, 10.0)],
                                  beta_grid=[(b1, b2) for b1 in BETA_AXIS for b2 in BETA_AXIS])
        traces = step_scale_grid(exp, steps=steps)
        integrals = {k: tr.transient_integral(jump, reference=1.0)
                     for k, tr in traces.items()}
        for b1 in BETA_AXIS:
            row = {b2: integrals[(b1, b2)] for b2 in BETA_AXIS}
            assert min(row, key=row.get) == b1

    def test_zero_init_washes_out(self):
        exp = StepScaleExperiment(base=np.ones(1), schedule=[(400, 10.0)])
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        tr = run_step_scale_experiment(exp, cfg, steps=800, init="zero")
        assert tr.norm_r[399] == pytest.approx(1.0, abs=1e-6)

    def test_signsgd_norm_is_constant_sqrt_d(self):
        exp = StepScaleExperiment(base=np.ones(4), schedule=[(10, 10.0), (20, 0.3)])
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9)
        tr = run_step_scale_experiment(exp, cfg, steps=40, method="signsgd")
        assert np.allclose(tr.norm_r, 2.0, atol=0.0)  # sqrt(4) at every step

    def test_gd_norm_jumps_by_exactly_the_multiplier(self):
        exp = StepScaleExperiment(base=np.ones(1), schedule=[(10, 10.0)])
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9)
        tr = run_step_scale_experiment(exp, cfg, steps=20, method="gd")
        assert tr.norm_r[9] == 1.0
        assert tr.norm_r[10] == 10.0

    def test_duplicate_schedule_entries_rejected(self):
        exp = StepScaleExperiment(base=np.ones(1), schedule=[(10, 2.0), (10, 3.0)])
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        with pytest.raises(DomainError):
            run_step_scale_experiment(exp, cfg, steps=50)
