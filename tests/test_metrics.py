import math
import re
from fractions import Fraction

import numpy as np
import pytest

from scale_lab import (DomainError, binomial_diagonal_test, ema_smooth, grid_report,
                       oscillation_omega1, oscillation_omega2)
from oracles import grid_cells

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
        assert binomial_diagonal_test(3, 3, 3) == pytest.approx(0.037037037, rel=1e-6)
        assert binomial_diagonal_test(9, 9, 3) == pytest.approx(5.0805e-5, rel=1e-4)
        assert binomial_diagonal_test(7, 9, 3) == pytest.approx(0.008281, rel=1e-4)

    def test_full_count_is_power_of_one_third(self):
        for n in range(1, 21):
            expected = Fraction(1, 3) ** n
            assert binomial_diagonal_test(n, n, 3) == pytest.approx(float(expected), rel=1e-12)

    def test_strictly_decreasing_in_k(self):
        for n in (3, 9, 18):
            values = [binomial_diagonal_test(k, n, 3) for k in range(n + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_k_zero_is_one(self):
        assert binomial_diagonal_test(0, 7, 3) == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            binomial_diagonal_test(1, 0, 3)
        with pytest.raises(DomainError):
            binomial_diagonal_test(5, 3, 3)
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

    def report(self, *runs):
        """``grid_report`` of each run's per-seed grids over ``AXIS``."""
        return grid_report(*(grid_cells(grids, self.AXIS) for grids in runs))

    def test_diagonal_grid_all_hits(self):
        report = self.report([DIAGONAL_GRID])
        assert report.argmin_cols == [[0, 1, 2]]
        assert (report.hits, report.trials) == (3, 3)
        assert report.p_value == pytest.approx(0.037037037, rel=1e-6)

    def test_three_identical_seeds(self):
        report = self.report([DIAGONAL_GRID] * 3)
        assert (report.hits, report.trials) == (9, 9)
        assert report.p_value == pytest.approx(5.0805e-5, rel=1e-4)

    def test_nan_treated_as_infinite(self):
        grid = DIAGONAL_GRID.copy()
        grid[2] = [np.nan, 204.2, 0.0735]  # diverged cell loses the argmin
        grid[1] = [np.nan, 0.3, np.inf]    # two cells tied at +inf are no tie of the minimum
        report = self.report([grid])
        assert report.argmin_cols == [[0, 1, 2]]

    def test_tied_rows_are_left_out_not_scored_by_first_column(self):
        # a row counts only when one column holds its minimum alone
        grid = np.array([[1.0, 1.0, 2.0],   # tie between columns 0 and 1: unscored
                         [3.0, 1.0, 2.0],   # strict minimum on the diagonal: a hit
                         [1.0, 2.0, 1.0]])  # tie between columns 0 and 2: unscored
        report = self.report([grid])
        assert report.argmin_cols == [[-1, 1, -1]]
        assert (report.hits, report.trials) == (1, 1)
        assert report.p_value == binomial_diagonal_test(1, 1, 3)
        with pytest.raises(DomainError, match="can be scored"):
            self.report([np.ones((3, 3))])  # every row all-equal

    def test_all_nan_row_is_left_out_not_a_hit(self):
        grid = DIAGONAL_GRID.copy()
        grid[0] = np.nan  # every cell of row 0 diverged: a bare argmin would call it a hit
        report = self.report([grid])
        assert report.argmin_cols == [[-1, 1, 2]]
        assert (report.hits, report.trials) == (2, 2)
        assert report.p_value == binomial_diagonal_test(2, 2, 3)

    def test_no_scorable_row_raises(self):
        with pytest.raises(DomainError):
            self.report([np.full((3, 3), np.nan)])

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            grid_report()
        with pytest.raises(DomainError, match="can be scored"):
            grid_report({})

    def test_missing_cell_is_named(self):
        # the square of a run is its sorted betas by its sorted seeds; the first cell of it
        # that the map lacks is named, in (seed, beta1, beta2) order
        cells = grid_cells([DIAGONAL_GRID] * 2, self.AXIS, seeds=[4, 7])
        del cells[(0.99, 0.9, 7)], cells[(0.999, 0.99, 7)]
        with pytest.raises(DomainError, match=re.escape("(beta1, beta2, seed) = (0.99, 0.9, 7)")):
            grid_report(cells)
        # a beta that only one position holds leaves its row (or column) missing
        cells = grid_cells([DIAGONAL_GRID], self.AXIS)
        cells[(0.9, 0.5, 0)] = 1.0
        with pytest.raises(DomainError, match=re.escape("= (0.5, 0.5, 0)")):
            grid_report(cells)

    def test_order_of_the_keys_is_not_read(self):
        # rows, columns and seeds are scored sorted, however the map was built: seed 1 holds
        # the transposed grid
        cells = grid_cells([DIAGONAL_GRID, DIAGONAL_GRID.T], self.AXIS, seeds=[2, 1])
        shuffled = dict(reversed(list(cells.items())))
        assert grid_report(shuffled) == grid_report(cells)
        assert grid_report(cells).argmin_cols == [[1, 2, 2], [0, 1, 2]]  # seed 1, then 2

    def test_two_by_two_all_hits_over_three_seeds(self):
        grid = np.array([[0.1, 1.0], [1.0, 0.1]])
        report = grid_report(grid_cells([grid] * 3, [0.9, 0.99]))
        assert (report.hits, report.trials) == (6, 6)
        assert report.p_value == 0.015625  # 0.5^6

    def test_pooling_mixed_widths_is_a_shape_error(self):
        # a pooled count is one grid_report call, so runs of another width are rejected
        small = grid_cells([np.array([[0.1, 1.0], [1.0, 0.1]])], [0.9, 0.99])
        with pytest.raises(DomainError, match=re.escape("axis lengths [3, 2] cannot be pooled")):
            grid_report(grid_cells([DIAGONAL_GRID], self.AXIS), small)

    def test_pooled_report_sums_the_counts(self):
        g1 = [DIAGONAL_GRID] * 3                        # 9 of 9
        g2 = [np.array([[1.0, 1.0, 2.0],                # tied: unscored
                        [0.5, 1.0, 2.0],                # a miss
                        [3.0, 2.0, 1.0]])]              # a hit
        r1, r2 = self.report(g1), self.report(g2)
        pooled = self.report(g1, g2)
        assert (r2.hits, r2.trials) == (1, 2)
        assert (pooled.hits, pooled.trials) == (r1.hits + r2.hits, r1.trials + r2.trials)
        assert pooled.p_value == binomial_diagonal_test(10, 11, 3)
        assert pooled.argmin_cols == r1.argmin_cols + r2.argmin_cols
