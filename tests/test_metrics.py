import math
from fractions import Fraction

import numpy as np
import pytest

from scale_lab import (DomainError, binomial_diagonal_test, combine_reports,
                       ema_smooth, grid_report, oscillation_omega1,
                       oscillation_omega2)

# Row-published oscillation grid used as an external fixture: each row's
# minimum sits on the diagonal.
DIAGONAL_GRID = np.array([
    [0.6329, 1.063, 1.147],
    [0.4227, 0.2413, 0.2644],
    [0.5249, 0.2356, 0.05768],
])


class TestEmaSmooth:
    def test_window_one_is_bitwise_identity(self):
        x = np.array([0.1, -2.7, 3.14159, 1e-12, 7.0])
        out = ema_smooth(x, 1)
        assert np.array_equal(out, x) and out is not x

    def test_constant_series_fixed_point(self):
        out = ema_smooth(np.full(50, 2.5), 10)
        assert np.array_equal(out, np.full(50, 2.5))

    def test_one_step_recursion(self):
        out = ema_smooth([0.0, 1.0], 3)  # alpha = 0.5
        assert np.array_equal(out, [0.0, 0.5])

    def test_window_validation(self):
        with pytest.raises(DomainError):
            ema_smooth([1.0], 0)
        with pytest.raises(DomainError):
            ema_smooth([], 5)


class TestOmega1:
    def test_constant_is_zero(self):
        assert oscillation_omega1(np.full(10, 3.3)) == 0.0

    def test_unit_alternation(self):
        assert oscillation_omega1([0.0, 1.0, 0.0, 1.0, 0.0]) == 1.0

    def test_linear_ramp_gives_step(self):
        ramp = np.arange(20) * 0.25
        assert oscillation_omega1(ramp) == pytest.approx(0.25, rel=1e-14)

    def test_shift_invariance_and_linear_scaling(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        w = oscillation_omega1(x)
        assert oscillation_omega1(x + 17.0) == pytest.approx(w, rel=1e-12)
        assert oscillation_omega1(3.0 * x) == pytest.approx(3.0 * w, rel=1e-12)

    def test_accepts_smoothed_series(self):
        assert oscillation_omega1(ema_smooth([0.0, 1.0, 0.0], 1)) == 1.0

    def test_too_short(self):
        with pytest.raises(DomainError):
            oscillation_omega1([1.0])


class TestOmega2:
    def test_linear_ramp_is_zero(self):
        assert oscillation_omega2(np.arange(10) * 0.5) == 0.0

    def test_constant_is_zero(self):
        assert oscillation_omega2(np.full(10, 1.0)) == 0.0

    def test_spike_interior_term(self):
        # the single interior second difference is |0 - 2 + 0| = 2
        assert oscillation_omega2([0.0, 1.0, 0.0]) == 2.0

    def test_uniform_curvature_is_preserved(self):
        # every second difference of a parabola equals 2a; normalization
        # over T-1 one-sided-padded terms keeps that value exact
        t = np.arange(12, dtype=float)
        assert oscillation_omega2(0.5 * t * t) == pytest.approx(1.0, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64)
        assert oscillation_omega2(x + 5.0) == pytest.approx(oscillation_omega2(x),
                                                            rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert oscillation_omega2(rng.normal(size=30)) >= 0.0

    def test_too_short(self):
        with pytest.raises(DomainError):
            oscillation_omega2([1.0, 2.0])


class TestBinomialTest:
    def test_published_values(self):
        assert binomial_diagonal_test(3, 3) == pytest.approx(0.037037037, rel=1e-6)
        assert binomial_diagonal_test(9, 9) == pytest.approx(5.0805e-5, rel=1e-4)
        assert binomial_diagonal_test(7, 9) == pytest.approx(0.008281, rel=1e-4)

    def test_full_count_is_power_of_one_third(self):
        for n in range(1, 21):
            expected = Fraction(1, 3) ** n
            assert binomial_diagonal_test(n, n) == pytest.approx(float(expected), rel=1e-12)

    def test_strictly_decreasing_in_k(self):
        for n in (3, 9, 18):
            values = [binomial_diagonal_test(k, n) for k in range(n + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_k_zero_is_one(self):
        assert binomial_diagonal_test(0, 7) == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            binomial_diagonal_test(1, 0)
        with pytest.raises(DomainError):
            binomial_diagonal_test(5, 3)
        with pytest.raises(DomainError):
            binomial_diagonal_test(1, 3, width=0)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 7])
    def test_tail_matches_exact_fraction_for_any_width(self, width):
        for n in (1, 6, 13):
            for k in range(n + 1):
                tail = sum(Fraction(math.comb(n, j)) * Fraction(1, width) ** j
                           * Fraction(width - 1, width) ** (n - j) for j in range(k, n + 1))
                assert binomial_diagonal_test(k, n, width) == float(tail)


class TestGridReport:
    AXIS = [0.9, 0.99, 0.999]

    def test_diagonal_grid_all_hits(self):
        report = grid_report([DIAGONAL_GRID], self.AXIS)
        assert report.argmin_cols == [[0, 1, 2]]
        assert (report.hits, report.trials) == (3, 3)
        assert report.p_value == pytest.approx(0.037037037, rel=1e-6)

    def test_three_identical_seeds(self):
        report = grid_report([DIAGONAL_GRID] * 3, self.AXIS)
        assert (report.hits, report.trials) == (9, 9)
        assert report.p_value == pytest.approx(5.0805e-5, rel=1e-4)

    def test_nan_treated_as_infinite(self):
        grid = DIAGONAL_GRID.copy()
        grid[2] = [np.nan, 204.2, 0.0735]  # diverged cell loses the argmin
        report = grid_report([grid], self.AXIS)
        assert report.argmin_cols[0][2] == 2

    def test_ties_select_first_column_and_flag_degenerate(self):
        grid = np.ones((3, 3))
        report = grid_report([grid], self.AXIS)
        assert report.argmin_cols[0] == [0, 0, 0]
        assert (report.hits, report.trials) == (1, 3)
        assert len(report.degenerate_rows) == 3

    def test_all_nan_row_is_left_out_not_a_hit(self):
        grid = DIAGONAL_GRID.copy()
        grid[0] = np.nan  # every cell of row 0 diverged: a bare argmin would call it a hit
        report = grid_report([grid], self.AXIS)
        assert report.argmin_cols == [[-1, 1, 2]]
        assert (report.hits, report.trials) == (2, 2)
        assert report.p_value == binomial_diagonal_test(2, 2, 3)
        assert report.degenerate_rows == [(0, 0)]

    def test_no_scorable_row_raises(self):
        with pytest.raises(DomainError):
            grid_report([np.full((3, 3), np.nan)], self.AXIS)

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            grid_report([np.ones((2, 2))], self.AXIS)
        with pytest.raises(DomainError):
            grid_report([], self.AXIS)

    def test_two_by_two_all_hits_over_three_seeds(self):
        grid = np.array([[0.1, 1.0], [1.0, 0.1]])
        report = grid_report([grid] * 3, [0.9, 0.99])
        assert (report.hits, report.trials) == (6, 6)
        assert report.p_value == 0.015625  # 0.5^6

    def test_combine_reports_rejects_mixed_widths(self):
        r3 = grid_report([DIAGONAL_GRID], self.AXIS)
        r2 = grid_report([np.array([[0.1, 1.0], [1.0, 0.1]])], [0.9, 0.99])
        with pytest.raises(DomainError):
            combine_reports([r3, r2])

    def test_combine_reports_pools_counts(self):
        r1 = grid_report([DIAGONAL_GRID] * 3, self.AXIS)   # 9 of 9
        r2 = grid_report([np.ones((3, 3))], self.AXIS)     # 1 of 3
        k, n, p = combine_reports([r1, r2])
        assert (k, n) == (10, 12)
        assert p == binomial_diagonal_test(10, 12)
