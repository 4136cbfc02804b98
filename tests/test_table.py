"""Indexing, margins, and association statistics on known small tables."""

import math
from fractions import Fraction

import pytest

from bintab import (
    DegenerateMarginError,
    DimensionMismatchError,
    DomainError,
    Pmf,
    bivariate_margin,
    cell_index,
    conditional_odds_ratio,
    configuration,
    correlation,
    marginal_odds_ratio,
    reflect,
    top_order_odds_ratio,
    univariate_margin,
)
from bintab.datasets import WATER_COUNTS
from bintab.table import _float_pmfs

F = Fraction


class TestCellIndexing:
    def test_known_values(self):
        assert cell_index((0, 0, 0)) == 1
        assert cell_index((1, 1, 1)) == 8
        assert cell_index((0, 1, 1)) == 4

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_round_trip(self, d):
        for k in range(1, 2**d + 1):
            assert cell_index(configuration(k, d)) == k

    def test_configuration_inverse(self):
        assert configuration(1, 3) == (0, 0, 0)
        assert configuration(4, 3) == (0, 1, 1)
        assert configuration(8, 3) == (1, 1, 1)

    def test_errors(self):
        with pytest.raises(DomainError):
            cell_index((0, 2, 0))
        with pytest.raises(DomainError):
            configuration(0, 3)
        with pytest.raises(DomainError):
            configuration(9, 3)


class TestPmfValidation:
    def test_rational_sum_must_be_exact(self):
        with pytest.raises(DomainError):
            Pmf.from_cells([F(1, 2), F(1, 4), F(1, 8), F(1, 16)])

    def test_rational_inputs_int_str_fraction(self):
        p = Pmf(d=2, cells=(0, "1/4", F(1, 4), F(1, 2)), mode="rational")
        assert p.cells == (F(0), F(1, 4), F(1, 4), F(1, 2))
        assert all(type(c) is Fraction for c in p.cells)
        with pytest.raises(DomainError, match="negative cell probability"):
            Pmf(d=2, cells=(F(-1, 4), "1/4", 1, 0), mode="rational")
        off = F(1, 10**12)
        with pytest.raises(DomainError, match="expected exactly 1") as err:
            Pmf(d=2, cells=(F(1, 4) + off, "1/4", F(1, 4), F(1, 4)), mode="rational")
        assert str(F(1) + off) in str(err.value)

    def test_negative_cell_rejected(self):
        with pytest.raises(DomainError):
            Pmf.from_cells([F(3, 2), F(-1, 2), F(0), F(0)])

    def test_float_mode_tolerance(self):
        Pmf.from_cells([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(DomainError):
            Pmf.from_cells([0.25, 0.25, 0.25, 0.2501])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_float_mode_rejects_non_finite_cells(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            Pmf.from_cells([bad, 0.25, 0.25, 0.5], mode="float")
        with pytest.raises(DomainError, match="non-finite"):
            Pmf(d=2, cells=(0.25, 0.25, 0.5, bad), mode="float")

    def test_float_mode_rejects_overflowing_cells(self):
        # finite cells whose sum overflows a double
        with pytest.raises(DomainError):
            Pmf.from_cells([1e308, 1e308, 0.0, 0.0], mode="float")

    def test_cell_count_must_be_power_of_two(self):
        with pytest.raises(DimensionMismatchError):
            Pmf.from_cells([F(1, 3)] * 3)

    def test_counts_retain_total(self):
        p = Pmf.from_counts([1, 2, 3, 4])
        assert p.total == 10
        assert p.cells == (F(1, 10), F(1, 5), F(3, 10), F(2, 5))

    def test_bool_counts_rejected(self):
        with pytest.raises(DomainError):
            Pmf.from_counts([True, 1, 1, 1])

    def test_conversions_are_explicit(self):
        p = Pmf.from_counts([1, 1, 1, 1])
        q = p.to_float()
        assert q.mode == "float"
        assert q.to_rational().cells == p.cells


class TestFloatBlocks:
    """``_float_pmfs`` checks a block of float rows once, as the constructor checks each row."""

    GOOD = [0.25, 0.25, 0.25, 0.25]

    def test_valid_block_builds_what_the_constructor_builds(self):
        import numpy as np

        rows = [self.GOOD, [0.1, 0.2, 0.3, 0.4], [0.0, 0.5, 0.5, 0.0]]
        built = _float_pmfs(2, np.array(rows))
        assert built == [Pmf(d=2, cells=tuple(row), mode="float") for row in rows]
        assert all(type(c) is float for p in built for c in p.cells)

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, 0.5, -0.0, -1e-300],
            [0.5, math.nan, 0.25, 0.25],
            [0.5, math.inf, 0.25, 0.25],
            [0.5, 0.5, 0.25, 0.25],
            [1e308, 1e308, 0.0, 0.0],
            [-0.5, math.nan, 1.0, 0.5],
        ],
        ids=["negative", "nan", "inf", "sum", "overflow", "negative_and_nan"],
    )
    def test_first_failing_row_raises_the_constructor_message(self, bad):
        import numpy as np

        with pytest.raises(DomainError) as expected:
            Pmf(d=2, cells=tuple(bad), mode="float")
        with pytest.raises(DomainError) as got:
            _float_pmfs(2, np.array([self.GOOD, bad, [1.0, 1.0, 1.0, 1.0]]))
        assert str(got.value) == str(expected.value)


class TestMargins:
    def test_example1_first_axis(self, example1):
        # direct summation over the four cells with alpha_1 = 1:
        # 0.1 + 0.05 + 0.15 + 0.05 = 0.35
        assert univariate_margin(example1, 1) == (F(13, 20), F(7, 20))

    def test_uniform_margins(self):
        p = Pmf.uniform(3)
        for i in (1, 2, 3):
            assert univariate_margin(p, i) == (F(1, 2), F(1, 2))

    def test_axis_out_of_range(self, example1):
        with pytest.raises(DomainError):
            univariate_margin(example1, 0)
        with pytest.raises(DomainError):
            univariate_margin(example1, 4)

    def test_example1_bivariate(self, example1):
        # summing the example cells pairwise: m00 = .1+.05, m01 = .3+.2,
        # m10 = .1+.05, m11 = .15+.05
        bm = bivariate_margin(example1, 1, 2)
        assert bm.entries == ((F(3, 20), F(1, 2)), (F(3, 20), F(1, 5)))
        assert bm.m00 + bm.m01 + bm.m10 + bm.m11 == 1

    def test_bivariate_consistent_with_univariate(self, water):
        bm = bivariate_margin(water, 2, 4)
        assert bm.first_margin() == univariate_margin(water, 2)
        assert bm.second_margin() == univariate_margin(water, 4)

    def test_uniform_bivariate(self):
        bm = bivariate_margin(Pmf.uniform(4), 2, 3)
        assert bm.entries == ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))

    def test_equal_axes_rejected(self, example1):
        with pytest.raises(DomainError):
            bivariate_margin(example1, 2, 2)


class TestCorrelation:
    def test_independence_is_zero(self):
        p = Pmf.from_cells([F(1, 4)] * 4)
        assert correlation(p, 1, 2) == 0

    def test_uniform_margin_identity_d2(self):
        # with uniform margins the d=2 table is (t, 1/2-t, 1/2-t, t)
        for t in (F(1, 10), F(1, 4), F(2, 5)):
            p = Pmf.from_cells([t, F(1, 2) - t, F(1, 2) - t, t])
            assert correlation(p, 1, 2) == 4 * t - 1

    def test_example1_value(self, example1):
        # direct evaluation: (0.2 - 0.35*0.7) / sqrt(0.35*0.65*0.7*0.3)
        assert correlation(example1, 1, 2) == pytest.approx(-0.2059, abs=1e-3)

    def test_degenerate_margin(self):
        p = Pmf.from_cells([F(1, 2), F(1, 2), F(0), F(0)])
        with pytest.raises(DegenerateMarginError):
            correlation(p, 1, 2)


class TestMarginalOddsRatio:
    def test_example1_values(self, example1):
        assert marginal_odds_ratio(example1, 1, 2) == F(2, 5)
        assert marginal_odds_ratio(example1, 1, 3) == F(16, 25)
        assert marginal_odds_ratio(example1, 2, 3) == F(10, 9)

    def test_rater_pair(self, raters):
        # (31/164 * 117/164) / (8/164 * 8/164) = 3627/64
        assert marginal_odds_ratio(raters, 2, 3) == F(3627, 64)
        assert float(marginal_odds_ratio(raters, 2, 3)) == pytest.approx(56.672, abs=1e-3)

    def test_infinite_and_undefined(self):
        concentrated = Pmf.from_cells(
            [F(1, 2), F(0), F(0), F(0), F(0), F(0), F(0), F(1, 2)]
        )
        assert math.isinf(marginal_odds_ratio(concentrated, 1, 2))
        degenerate = Pmf.from_cells([F(1, 2), F(1, 2), F(0), F(0)])
        assert math.isnan(marginal_odds_ratio(degenerate, 1, 2))

    def test_reflect_invariance(self, example1):
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            assert marginal_odds_ratio(reflect(example1), i, j) == marginal_odds_ratio(
                example1, i, j
            )


class TestConditionalOddsRatio:
    def test_example1_given_zero(self, example1):
        # p000*p011 / (p001*p010) = (0.1*0.2) / (0.05*0.3)
        assert conditional_odds_ratio(example1, 2, 3, (0,)) == F(4, 3)
        assert conditional_odds_ratio(example1, 2, 3, (1,)) == F(2, 3)

    def test_product_pmf_is_one(self):
        margins = (F(3, 10), F(3, 5), F(7, 10))
        cells = []
        for k in range(8):
            prob = F(1)
            for i, m in enumerate(margins, start=1):
                bit = (k >> (3 - i)) & 1
                prob *= m if bit else 1 - m
            cells.append(prob)
        p = Pmf.from_cells(cells)
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            for rest in ((0,), (1,)):
                assert conditional_odds_ratio(p, i, j, rest) == 1

    def test_water_four_cell_ratio(self, water):
        # fixing (X2, X4) = (0, 1): p0001*p1011 / (p0011*p1001), straight
        # from the counts
        counts = WATER_COUNTS
        expected = F(counts[1] * counts[11], counts[3] * counts[9])
        assert conditional_odds_ratio(water, 1, 3, (0, 1)) == expected

    def test_axis_order_irrelevant(self, example1):
        assert conditional_odds_ratio(example1, 3, 2, (0,)) == conditional_odds_ratio(
            example1, 2, 3, (0,)
        )

    def test_rest_length_checked(self, example1):
        with pytest.raises(DimensionMismatchError):
            conditional_odds_ratio(example1, 1, 2, (0, 1))


class TestTopOrderOddsRatio:
    def test_raters_value(self, raters):
        # (113*7*3*3) / (24*4*5*5) over the 164-count table
        assert top_order_odds_ratio(raters) == F(7119, 2400)
        assert float(top_order_odds_ratio(raters)) == pytest.approx(2.96625, abs=1e-5)

    def test_uniform_is_one(self):
        assert top_order_odds_ratio(Pmf.uniform(3)) == 1
        assert top_order_odds_ratio(Pmf.uniform(4)) == 1

    def test_d2_equals_plain_odds_ratio(self):
        p = Pmf.from_cells([F(1, 10), F(2, 5), F(1, 5), F(3, 10)])
        assert top_order_odds_ratio(p) == marginal_odds_ratio(p, 1, 2)

    def test_example1_value(self, example1):
        # (0.1*0.2*0.05*0.15) / (0.05*0.1*0.3*0.05)
        assert top_order_odds_ratio(example1) == 2

    def test_zero_cell_classification(self):
        p = Pmf.from_cells([F(0), F(1, 4), F(1, 4), F(0), F(1, 4), F(0), F(0), F(1, 4)])
        assert top_order_odds_ratio(p) == 0
        # at odd d the complement map swaps numerator and denominator cells
        assert math.isinf(top_order_odds_ratio(reflect(p)))
        both_zero = Pmf.from_cells([F(0), F(0), F(1, 2), F(1, 2)])
        assert math.isnan(top_order_odds_ratio(both_zero))


class TestReflect:
    def test_reverses_cells(self, example1):
        assert reflect(example1).cells == tuple(reversed(example1.cells))

    def test_uniform_fixed_point(self):
        p = Pmf.uniform(3)
        assert reflect(p) == p

    def test_involution(self, water):
        assert reflect(reflect(water)) == water

    def test_margins_swap_levels(self, example1):
        for i in (1, 2, 3):
            m0, m1 = univariate_margin(example1, i)
            assert univariate_margin(reflect(example1), i) == (m1, m0)
