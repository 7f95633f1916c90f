import numpy as np
import pytest

from scale_lab import (CellConfigs, DomainError, MomentState, TimeScales,
                       exact_invariance_probe, first_order_sensitivity, step_scale_cells)
from scale_lab.optimizers import optimizer_step

BETA_AXIS = (0.9, 0.99, 0.999)
BETA_PAIRS = [(b1, b2) for b1 in BETA_AXIS for b2 in BETA_AXIS]


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
        assert result.deviations[0] == 4.0

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_gd_deviation_formula(self, lam):
        g = np.array([0.3, -1.7, 0.9])
        result = exact_invariance_probe("gd", None, g, [lam])
        assert result.deviations[0] == pytest.approx(
            abs(lam - 1.0) * np.max(np.abs(g)), rel=1e-15)

    @pytest.mark.parametrize("method", ["adam", "gd", "signsgd"])
    def test_all_zero_update_is_exact_invariant(self, method):
        state = MomentState(np.stack((np.zeros(2), np.ones(2))))
        cell = CellConfigs([(0.9, 0.9)], epsilon=0.0, bias_correction=False)
        result = exact_invariance_probe(method, state, np.zeros(2), [0.1, 2.0, 10.0], cell)
        assert result.classification == "exact-invariant"
        assert result.deviations == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("method,g,cls", [
        ("adam", 1e-160, "scale-linear"), ("gd", 1e-20, "scale-linear"),
        ("gd", 1e-300, "scale-linear"), ("signsgd", 1e-300, "exact-invariant"),
    ], ids=["adam-1e-160", "gd-1e-20", "gd-1e-300", "signsgd-1e-300"])
    def test_tiny_gradient_is_judged_relative_to_r(self, method, g, cls):
        # each deviation is far below EXACT_TOL in absolute terms; only its size relative to R counts
        state = MomentState(np.array([[0.0], [1.0]]))
        cell = CellConfigs([(0.9, 0.9)], epsilon=0.0, bias_correction=False)
        result = exact_invariance_probe(method, state, np.array([g]), [2.0], cell)
        assert result.classification == cls

    @pytest.mark.parametrize("lam", [0.5, 2.0, 1000.0])
    def test_sign_exact_scale_invariance(self, lam):
        # sign(0) = 0 and sign of a tiny entry is still 1, at every scale
        result = exact_invariance_probe("signsgd", None, np.array([3.7, -0.01, 0.0, 1e-300]), [lam])
        assert result.classification == "exact-invariant"
        assert result.deviations == [0.0]

    def test_adam_frozen_state_is_other(self):
        state = MomentState(np.array([[1.0], [1.0]]))
        cell = CellConfigs([(0.9, 0.9)], epsilon=0.0, bias_correction=False)
        result = exact_invariance_probe("adam", state, np.array([1.0]), [2.0], cell)
        assert result.classification == "other"
        # R = 1 at lambda=1 and 1.1/sqrt(1.3) at lambda=2
        assert result.deviations[0] == pytest.approx(1.0 - 0.9647638212377321,
                                                         abs=1e-14)

    def test_non_finite_step_is_domain_error(self):
        # sqrt of a negative stepped v is NaN: no deviation may be reported from it
        state = MomentState(np.array([[0.0], [-1.0]]))
        cell = CellConfigs([(0.9, 0.9)], epsilon=0.0, bias_correction=False)
        with pytest.raises(DomainError):
            exact_invariance_probe("adam", state, np.array([1.0]), [2.0], cell)

    def test_overflowed_corrected_second_moment_is_domain_error(self):
        # v_hat = 1e306 / (1 - 0.999) overflows while m and v stay finite, so R is NaN (were
        # it 0 for every rescaling, it would read as exact invariance)
        state = MomentState(np.array([[0.0], [1e306]]))
        cell = CellConfigs([(0.9, 0.999)], epsilon=0.0, bias_correction=True)
        with pytest.raises(DomainError, match="moment or R of the probe is not finite"):
            exact_invariance_probe("adam", state, np.ones(1), [2.0, 10.0], cell)
        raw = CellConfigs([(0.9, 0.999)], epsilon=0.0, bias_correction=False)
        assert exact_invariance_probe("adam", state, np.ones(1), [2.0], raw).deviations[0] > 0.0

    def test_overflowed_linear_rescaling_is_other(self):
        # R(g) = 9e299, so 1e10 * R(g) overflows: not linear, and no RuntimeWarning escapes
        state = MomentState(np.array([[1e300], [1.0]]))
        cell = CellConfigs([(0.9, 0.9)], epsilon=0.0, bias_correction=False)
        result = exact_invariance_probe("adam", state, np.array([1.0]), [1e10], cell)
        assert result.classification == "other"
        assert result.deviations[0] == pytest.approx(9e299, rel=1e-9)

    def test_lambda_one_has_zero_deviation(self):
        state = MomentState(np.array([[0.4], [0.9]]))
        cell = CellConfigs([(0.95, 0.98)])
        result = exact_invariance_probe("adam", state, np.array([1.3]), [1.0], cell)
        assert result.deviations[0] == 0.0

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(DomainError):
            exact_invariance_probe("gd", None, np.ones(1), [1.0, -2.0])

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            exact_invariance_probe("lion", None, np.ones(1), [1.0])

    @pytest.mark.parametrize("method", ["adam", "gd", "signsgd"])
    @pytest.mark.parametrize("g, lambdas", [(np.ones(2), []), (np.ones(0), [2.0])],
                             ids=["no-rescaling", "empty-gradient"])
    def test_probe_without_evidence_is_domain_error(self, method, g, lambdas):
        # no rescaling (or nothing to rescale) proves nothing, not even for GD
        state = MomentState(np.stack((np.zeros(g.size), np.ones(g.size))))
        cell = CellConfigs([(0.9, 0.9)], epsilon=0.0, bias_correction=False)
        with pytest.raises(DomainError, match="nothing to probe"):
            exact_invariance_probe(method, state, g, lambdas, cell)


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
    def test_gd_like_jump_is_literal(self):
        # for Adam from steady init the pre-jump norm is pinned at 1
        norms = step_scale_cells(np.repeat([1.0, 10.0], 50)[:, None], [(0.9, 0.9)])
        assert norms.shape == (100, 1)
        assert np.allclose(norms[:50], 1.0, atol=1e-12)
        assert norms[50, 0] != pytest.approx(1.0, abs=1e-3)

    def test_steady_state_is_scale_free_for_any_betas(self):
        steps, jump = 32000, 16000
        columns = step_scale_cells(np.where(np.arange(steps) < jump, 1.0, 10.0)[:, None],
                                   BETA_PAIRS)
        for norms in columns.T:
            assert norms[jump - 1] == pytest.approx(1.0, abs=1e-6)
            assert norms[-1] == pytest.approx(1.0, abs=1e-6)

    def test_transient_integral_minimized_on_diagonal(self):
        steps, jump = 32000, 16000
        columns = step_scale_cells(np.where(np.arange(steps) < jump, 1.0, 10.0)[:, None],
                                   BETA_PAIRS)
        integrals = dict(zip(BETA_PAIRS, np.sum(np.abs(columns[jump:] - 1.0), axis=0)))
        for b1 in BETA_AXIS:
            row = {b2: integrals[(b1, b2)] for b2 in BETA_AXIS}
            assert min(row, key=row.get) == b1

    @pytest.mark.parametrize("c", [2.0 ** -20, 2.0 ** 20], ids=["2**-20", "2**20"])
    def test_power_of_two_rescale_of_the_run_is_bitwise_invariant(self, c):
        # Adam is zero-order scale invariant for any betas: scaling every gradient by a power of
        # two scales m by c and v by c**2 without rounding, so every R is bit-identical
        stream = np.repeat([1.0, 10.0, 0.3], [10, 15, 15])[:, None] * [0.7, -2.5]
        pairs = [(0.9, 0.999), (0.99, 0.9)]
        assert np.array_equal(step_scale_cells(stream, pairs), step_scale_cells(c * stream, pairs))

    @pytest.mark.parametrize("c", [2.0 ** -20, 2.0 ** 20], ids=["2**-20", "2**20"])
    def test_power_of_two_rescale_of_a_corrected_run_is_bitwise_invariant(self, c):
        # the same holds with bias correction: its divisors 1 - b ** j do not depend on g
        stream = np.repeat([1.0, 10.0, 0.3], [10, 15, 15])[:, None, None] * [0.7, -2.5]
        cells = CellConfigs([(0.9, 0.999), (0.99, 0.9)], epsilon=0.0)

        def run(grads):
            state = MomentState(np.repeat([grads[0], grads[0] * grads[0]], 2, axis=1))
            return optimizer_step(state, np.broadcast_to(grads, (40, 2, 2)), cells)

        assert np.array_equal(run(stream), run(c * stream))

    def test_fed_gradient_whose_square_underflows_rejected(self):
        # 1e-150 alone is fine; scaled by 1e-5 at step 10 its square is below the normal floats
        base = np.array([1e-150, -3.0])
        norms = step_scale_cells(np.repeat([1.0, 1e-3], 10)[:, None] * base, [(0.9, 0.9)])
        assert norms.shape == (20, 1) and np.isfinite(norms).all()
        with pytest.raises(DomainError, match=r"= 1e-155 is below 2\*\*-511.*underflows"):
            step_scale_cells(np.repeat([1.0, 1e-5], 10)[:, None] * base, [(0.9, 0.9)])
        assert np.array_equal(step_scale_cells(np.full((5, 1), 2.0 ** -511), [(0.9, 0.9)]),
                              np.ones((5, 1)))

    def test_largest_fed_gradient_keeps_every_moment_finite(self):
        # just below the ceiling 2**511 every norm is finite and nonzero; at 2**511 the entry is
        # refused by its step before any step
        top = np.nextafter(2.0 ** 511, 0.0)
        stream = np.repeat([1.0, 0.5, 1.0], [10, 5, 5])[:, None] * [top, -top]
        pairs = [(0.9, 0.999), (0.999, 0.9)]
        norms = step_scale_cells(stream, pairs)
        assert np.isfinite(norms).all() and (norms > 0.0).all()
        assert np.array_equal(norms[:10], np.full((10, 2), np.sqrt(2.0)))
        stream[16, 1] = -2.0 ** 511
        with pytest.raises(DomainError, match=r"step 16, coordinate 1: \|g\| = 6\.7\d*e\+153"):
            step_scale_cells(stream, pairs)

    def test_constant_stream_is_steady_from_the_first_step(self):
        # raw Adam's fixed point m = g0, v = g0^2 holds for unequal betas too: no transient
        norms = step_scale_cells(np.full((3000, 2), [0.7, -2.5]), [(0.9, 0.999), (0.999, 0.9)])
        assert np.array_equal(norms, np.full((3000, 2), np.sqrt(2.0)))
