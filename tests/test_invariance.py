import numpy as np
import pytest

from scale_lab import (DomainError, MomentState, OptimizerConfig, TimeScales,
                       exact_invariance_probe, first_order_sensitivity, step_multipliers,
                       step_scale_cells, step_scale_grid)

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

    @pytest.mark.parametrize("method", ["adam", "gd", "signsgd"])
    def test_all_zero_update_is_exact_invariant(self, method):
        state = MomentState(m=np.zeros(2), v=np.ones(2), theta=np.zeros(2))
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        result = exact_invariance_probe(method, state, np.zeros(2), [0.1, 2.0, 10.0], cfg)
        assert result.classification == "exact-invariant"
        assert result.deviations == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("method,g,cls", [
        ("adam", 1e-160, "scale-linear"), ("gd", 1e-20, "scale-linear"),
        ("gd", 1e-300, "scale-linear"), ("signsgd", 1e-300, "exact-invariant"),
    ], ids=["adam-1e-160", "gd-1e-20", "gd-1e-300", "signsgd-1e-300"])
    def test_tiny_gradient_is_judged_relative_to_r(self, method, g, cls):
        # each deviation is far below EXACT_TOL in absolute terms; only its size relative to R counts
        state = MomentState(m=np.zeros(1), v=np.ones(1), theta=np.zeros(1))
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        result = exact_invariance_probe(method, state, np.array([g]), [2.0], cfg)
        assert result.classification == cls

    @pytest.mark.parametrize("lam", [0.5, 2.0, 1000.0])
    def test_sign_exact_scale_invariance(self, lam):
        # sign(0) = 0 and sign of a tiny entry is still 1, at every scale
        result = exact_invariance_probe("signsgd", None, np.array([3.7, -0.01, 0.0, 1e-300]), [lam])
        assert result.classification == "exact-invariant"
        assert result.deviations == [0.0]

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
        mults = step_multipliers([(10, 10.0), (20, 2.0)], steps=30)
        assert mults[0] == 1.0
        assert mults[10] == 10.0
        assert mults[25] == 2.0

    def test_nonpositive_multiplier_rejected(self):
        with pytest.raises(DomainError):
            step_multipliers([(10, -1.0)], steps=50)

    def test_segment_past_end_rejected(self):
        with pytest.raises(DomainError):
            step_multipliers([(100, 2.0)], steps=50)

    def test_gd_like_jump_is_literal(self):
        # for Adam from steady init the pre-jump norm is pinned at 1
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        tr = step_scale_cells(np.ones(1), step_multipliers([(50, 10.0)], steps=100), [cfg])[0]
        assert np.allclose(tr.norm_r[:50], 1.0, atol=1e-12)
        assert tr.norm_r[50] != pytest.approx(1.0, abs=1e-3)

    def test_steady_state_is_scale_free_for_any_betas(self):
        steps, jump = 32000, 16000
        traces = step_scale_grid(np.ones(1), step_multipliers([(jump, 10.0)], steps), BETA_AXIS)
        for tr in traces.values():
            assert tr.norm_r[jump - 1] == pytest.approx(1.0, abs=1e-6)
            assert tr.norm_r[-1] == pytest.approx(1.0, abs=1e-6)

    def test_transient_integral_minimized_on_diagonal(self):
        steps, jump = 32000, 16000
        traces = step_scale_grid(np.ones(1), step_multipliers([(jump, 10.0)], steps), BETA_AXIS)
        integrals = {k: tr.transient_integral(jump, reference=1.0)
                     for k, tr in traces.items()}
        for b1 in BETA_AXIS:
            row = {b2: integrals[(b1, b2)] for b2 in BETA_AXIS}
            assert min(row, key=row.get) == b1

    def test_zero_init_washes_out(self):
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        tr = step_scale_cells(np.ones(1), step_multipliers([(400, 10.0)], steps=800), [cfg],
                              init="zero")[0]
        assert tr.norm_r[399] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("init", ["steady", "zero"])
    @pytest.mark.parametrize("c", [2.0 ** -20, 2.0 ** 20], ids=["2**-20", "2**20"])
    def test_power_of_two_rescale_of_the_run_is_bitwise_invariant(self, c, init):
        # Adam is zero-order scale invariant for any betas: scaling every gradient by a power of
        # two scales m by c and v by c**2 without rounding, so every R is bit-identical
        base, mults = np.array([0.7, -2.5]), step_multipliers([(10, 10.0), (25, 0.3)], steps=40)
        configs = [OptimizerConfig(beta1=0.9, beta2=0.999, epsilon=0.0),
                   OptimizerConfig(beta1=0.99, beta2=0.9, epsilon=0.0, bias_correction=False)]
        for a, b in zip(step_scale_cells(base, mults, configs, init=init),
                        step_scale_cells(base, c * mults, configs, init=init)):
            assert np.array_equal(a.norm_r, b.norm_r)

    def test_fed_gradient_whose_square_underflows_rejected(self):
        # 1e-150 alone is fine; scaled by 1e-5 at step 10 its square is below the normal floats
        cfg = OptimizerConfig(beta1=0.9, beta2=0.9, epsilon=0.0, bias_correction=False)
        base = np.array([1e-150, -3.0])
        assert step_scale_cells(base, step_multipliers([(10, 1e-3)], steps=20), [cfg])
        with pytest.raises(DomainError, match=r"= 1e-155 is below 2\*\*-511.*underflows"):
            step_scale_cells(base, step_multipliers([(10, 1e-5)], steps=20), [cfg])
        traces = step_scale_cells(np.array([2.0 ** -511]), np.ones(5), [cfg])
        assert np.array_equal(traces[0].norm_r, np.ones(5))

    def test_duplicate_schedule_entries_rejected(self):
        with pytest.raises(DomainError):
            step_multipliers([(10, 2.0), (10, 3.0)], steps=50)
