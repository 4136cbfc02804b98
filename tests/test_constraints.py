"""Moment conversion, target derivation, and the constraint matrix."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bintab import (
    ConstraintMatrix,
    DimensionMismatchError,
    DomainError,
    InfeasibleTargetsError,
    MarginTargets,
    Pmf,
    UnsupportedTargetError,
    build_H,
    marginal_odds_ratio,
    moment_for_margins,
    moment_from_odds_ratio,
    residual,
    satisfies,
    targets_from_pmf,
)
from conftest import (
    EXAMPLE1_VERTEX_A,
    generic_targets,
    random_rational_pmf,
    reference_moment_from_root,
    reference_nullspace,
    reference_observed_targets,
    reference_H_rows,
    reference_primitive_row,
    reference_rank,
    reference_targets,
    reference_uniform_moment,
    walsh_character,
)
from bintab._linalg import _int_rref, _integer_rows
from bintab.constraints import MAX_DIGITS, _moment

F = Fraction


class TestMomentFromOddsRatio:
    def test_published_three_digit_values(self, example1):
        assert moment_from_odds_ratio(F(2, 5), 3) == F(194, 1000)
        assert moment_from_odds_ratio(F(16, 25), 3) == F(222, 1000)
        assert moment_from_odds_ratio(F(10, 9), 3) == F(257, 1000)

    def test_independence(self):
        for digits in range(2, 10):
            assert moment_from_odds_ratio(1, digits) == F(1, 4)

    def test_water_pair(self):
        assert moment_from_odds_ratio(F(1070, 1000), 3) == F(254, 1000)

    def test_result_in_open_interval(self):
        for omega in (F(1, 100), F(1, 3), F(7, 2), F(100)):
            mu = moment_from_odds_ratio(omega, 12)
            assert 0 < mu < F(1, 2)

    def test_domain_errors(self):
        for bad in (0, -1, F(-3, 7), math.inf, math.nan):
            with pytest.raises(DomainError):
                moment_from_odds_ratio(bad, 3)

    def test_round_trip_at_high_precision(self):
        # the uniform-margin 2x2 table (mu, 1/2-mu, 1/2-mu, mu) must give
        # back omega up to the rounding of mu
        from bintab import marginal_odds_ratio

        omega = F(7, 3)
        mu = moment_from_odds_ratio(omega, 12)
        p = Pmf.from_cells([mu, F(1, 2) - mu, F(1, 2) - mu, mu])
        assert float(marginal_odds_ratio(p, 1, 2)) == pytest.approx(float(omega), rel=1e-10)


class TestMomentForMargins:
    def test_independence_gives_product(self):
        assert moment_for_margins(1, F(7, 20), F(7, 10), 6) == F(49, 200)

    def test_example1_observed_pairs(self):
        # margins of the running example are (0.35, 0.7, 0.35); its exact
        # odds ratios must map back to its own exact moments
        assert moment_for_margins(F(2, 5), F(7, 20), F(7, 10), 3) == F(1, 5)
        assert moment_for_margins(F(16, 25), F(7, 20), F(7, 20), 3) == F(1, 10)
        assert moment_for_margins(F(10, 9), F(7, 10), F(7, 20), 3) == F(1, 4)

    def test_root_inside_frechet_interval(self):
        import random

        rng = random.Random(5150)
        for _ in range(50):
            a = F(rng.randint(1, 19), 20)
            b = F(rng.randint(1, 19), 20)
            omega = F(rng.randint(1, 400), rng.randint(1, 400))
            mu = moment_for_margins(omega, a, b, 9)
            assert max(F(0), a + b - 1) <= mu <= min(a, b)

    def test_degenerate_margin_rejected(self):
        with pytest.raises(DomainError):
            moment_for_margins(F(1, 2), F(1), F(1, 2), 3)

    def test_digits_bound(self):
        mu = moment_for_margins(F(3), F(1, 2), F(1, 2), MAX_DIGITS)
        assert mu.denominator <= 10**MAX_DIGITS and len(str(mu.denominator)) <= MAX_DIGITS + 1
        for digits in (-1, MAX_DIGITS + 1):
            with pytest.raises(DomainError, match=rf"digits must be in 0\.\.{MAX_DIGITS}, got {digits}"):
                moment_for_margins(F(3), F(1, 2), F(1, 2), digits)

    def test_rounding_stays_inside_frechet_interval(self):
        # the table (1, 1, 15, 9)/26: margins 12/13 and 5/13, odds ratio 3/5,
        # moment 9/26 in [4/13, 5/13]; one digit would round it to 3/10 < 4/13
        assert moment_for_margins(F(3, 5), F(12, 13), F(5, 13), 1) == F(4, 13)
        p = Pmf.from_cells([F(1, 26), F(1, 26), F(15, 26), F(9, 26)])
        assert targets_from_pmf(p, digits=1, margins="observed").moments == {(1, 2): F(4, 13)}
        # the independence product a*b = 0.9216 would round to 9/10 < 23/25
        assert moment_for_margins(1, F(24, 25), F(24, 25), 1) == F(23, 25)

    @pytest.mark.parametrize(
        "omega, a, b, digits, expected",
        [
            # sqrt(1/49) = 1/7: the exact root 1/16 = 0.0625 rounds half up
            (F(1, 49), F(1, 2), F(1, 2), 3, F(63, 1000)),
            # the exact root 1/20 = 0.05 rounds up to 1/10, not to the bound 0
            (F(1, 81), F(1, 2), F(1, 2), 1, F(1, 10)),
            # an irrational root
            (F(5, 21), F(1, 4), F(1, 2), 3, F(63, 1000)),
        ],
        ids=["root-1/16", "root-1/20", "irrational"],
    )
    def test_rational_root_rounds_half_up(self, omega, a, b, digits, expected):
        assert moment_for_margins(omega, a, b, digits) == expected

    def test_uniform_margins_agree_on_rational_roots(self):
        # sqrt(1/225) = 1/15: the root 1/32 = 0.03125 rounds half up to 0.0313
        assert moment_from_odds_ratio(F(1, 225), 4) == F(313, 10000)
        p = Pmf.from_counts([1, 7, 7, 1])
        for margins in ("uniform", "observed"):
            assert targets_from_pmf(p, digits=3, margins=margins).moments == {(1, 2): F(63, 1000)}


class TestIntegerMoment:
    """The integer core of ``moment_for_margins``: omega = p/q, a = a1/a0, b = b1/b0 as integer pairs."""

    @staticmethod
    def random_case(rng):
        omega = F(rng.randint(1, 10 ** rng.randint(1, 6)), rng.randint(1, 10 ** rng.randint(1, 6)))
        margins = []
        for _ in range(2):
            den = rng.choice([2, 2, rng.randint(2, 1000)])
            margins.append(F(rng.randint(1, den - 1), den))
        return omega, margins[0], margins[1], rng.randint(0, 20)

    def test_equals_moment_for_margins_on_lowest_terms(self):
        rng = random.Random(2701)
        for _ in range(300):
            omega, a, b, digits = self.random_case(rng)
            terms = (omega.numerator, omega.denominator, a.numerator, a.denominator, b.numerator, b.denominator)
            assert _moment(*terms, digits) == moment_for_margins(omega, a, b, digits)

    def test_scaling_any_pair_leaves_it_unchanged(self):
        rng = random.Random(2702)
        for _ in range(300):
            omega, a, b, digits = self.random_case(rng)
            expected = moment_for_margins(omega, a, b, digits)
            pairs = [(omega.numerator, omega.denominator), (a.numerator, a.denominator), (b.numerator, b.denominator)]
            # each pair alone, then all three at once, by factors up to 10^12
            for scaled in ([0], [1], [2], [0, 1, 2]):
                terms = []
                for k, (num, den) in enumerate(pairs):
                    factor = rng.randint(2, 10 ** rng.randint(1, 12)) if k in scaled else 1
                    terms += [num * factor, den * factor]
                assert _moment(*terms, digits) == expected


class TestMomentOracles:
    """The solver against the independent oracles in ``conftest``."""

    @pytest.mark.parametrize("digits", [0, 1, 2, 3, 6, 9, 15])
    def test_builtins(self, example1, water, raters, digits):
        for p in (example1, water, raters):
            observed = targets_from_pmf(p, digits=digits, margins="observed")
            assert (observed.univariate, observed.moments) == reference_observed_targets(p.cells, digits)
            uniform = targets_from_pmf(p, digits=digits)
            ratios = {pair: marginal_odds_ratio(p, *pair) for pair in uniform.moments}
            assert uniform.moments == {
                pair: reference_uniform_moment(omega, digits) for pair, omega in ratios.items()
            }

    @pytest.mark.parametrize("digits", [2, 3, 6, 20])
    def test_pool_and_builtins_on_rational_and_float_input(self, pool_pmfs, example1, water, raters, digits):
        # the package sums integer cells per pair; the oracles sum the Fraction cells
        for p in (*pool_pmfs, example1, water, raters):
            for source in (p, p.to_float()):
                q = source.to_rational()
                observed = targets_from_pmf(source, digits=digits, margins="observed")
                assert (observed.univariate, observed.moments) == reference_observed_targets(q.cells, digits)
                uniform = targets_from_pmf(source, digits=digits)
                assert uniform.moments == {
                    pair: reference_uniform_moment(marginal_odds_ratio(q, *pair), digits)
                    for pair in uniform.moments
                }

    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_tables_with_zero_cells(self, d):
        # counts across 12 orders of magnitude; some tables have a pair margin
        # with a zero entry, whose odds ratio is 0, infinite or undefined
        rng = random.Random(1900 + d)
        refused = 0
        for _ in range(12):
            zero_share = rng.choice([0, 0.2, 0.5, 0.9, 0.98])
            counts = [0 if rng.random() < zero_share else rng.randint(1, 10 ** rng.randint(1, 12)) for _ in range(2**d)]
            counts[rng.randrange(2**d)] += 1
            p = Pmf.from_counts(counts)
            for margins in ("uniform", "observed"):
                digits = rng.choice([0, 2, 3, 6, 20])
                expected = reference_targets(p.cells, digits, margins)
                if expected is None:
                    refused += 1
                    with pytest.raises(UnsupportedTargetError):
                        targets_from_pmf(p, digits=digits, margins=margins)
                    continue
                targets = targets_from_pmf(p, digits=digits, margins=margins)
                assert (targets.univariate, targets.moments) == expected
        assert 0 < refused < 24, refused

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(2, 4).flatmap(
            lambda d: st.lists(st.integers(1, 10**12), min_size=2**d, max_size=2**d)
        ),
        st.integers(0, 15),
    )
    def test_observed_targets_are_the_table_moments(self, counts, digits):
        targets = targets_from_pmf(Pmf.from_counts(counts), digits=digits, margins="observed")
        assert (targets.univariate, targets.moments) == reference_observed_targets(counts, digits)

    def test_random_cases(self):
        # 1000 rational roots under general margins and 1000 uniform-margin
        # roots, a third of each with omega within 10^-70 of 1
        rng = random.Random(1515)
        for n in range(1000):
            den = 10 ** rng.randint(1, 4)
            a, b = F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den)
            lo, hi = max(F(0), a + b - 1), min(a, b)
            if n % 3 == 0:
                mu = a * b + F(rng.randint(-10**6, 10**6), 10**81)
            else:
                mu = lo + (hi - lo) * F(rng.randint(1, 10**6 - 1), 10**6)
            omega = mu * (1 - a - b + mu) / ((a - mu) * (b - mu))
            digits = rng.choice([0, 1, 2, 3, 4, 6, 9, 15, 30])
            assert moment_for_margins(omega, a, b, digits) == reference_moment_from_root(mu, a, b, digits)
        for n in range(1000):
            if n % 3 == 0:
                omega = 1 + F(rng.randint(-10**6, 10**6), 10 ** rng.randint(76, 82))
            else:
                omega = F(rng.randint(1, 10**9), rng.randint(1, 10**9))
            digits = rng.choice([0, 1, 2, 3, 4, 6, 9, 15, 30])
            assert moment_from_odds_ratio(omega, digits) == reference_uniform_moment(omega, digits)

    def test_rational_square_rounds_exactly(self):
        # sqrt(omega) = 93/7 gives the root 93/200 = 0.465, a tie at two digits
        assert reference_uniform_moment(F(93, 7) ** 2, 2) == F(47, 100)
        assert moment_from_odds_ratio(F(93, 7) ** 2, 2) == F(47, 100)

    @pytest.mark.parametrize(
        "omega, a, b, digits, expected",
        [
            # the root is 1/4 + 6.25e-51, which a 50-digit quadratic formula loses to cancellation
            (1 + F(1, 10**49), F(1, 2), F(1, 2), 6, F(1, 4)),
            # here a 50-digit quadratic formula puts neither root in [0, 1/2]
            (1 + F(7, 10**50), F(1, 2), F(1, 2), 6, F(1, 4)),
            (1 + F(7, 10**25), F(7, 20), F(3, 5), 30, F(21000000000000000000000003822, 10**29)),
        ],
        ids=["near-one", "near-one-no-root", "general-margins"],
    )
    def test_omega_near_one(self, omega, a, b, digits, expected):
        assert moment_for_margins(omega, a, b, digits) == expected

    def test_negative_digits_rejected(self):
        with pytest.raises(DomainError):
            moment_for_margins(F(2), F(1, 3), F(1, 2), -1)
        with pytest.raises(DomainError):
            moment_from_odds_ratio(F(2), -1)


class TestTargetsFromPmf:
    def test_example1_uniform(self, example1):
        targets = targets_from_pmf(example1, digits=3)
        assert targets.univariate == (F(1, 2),) * 3
        assert targets.moments == {
            (1, 2): F(194, 1000),
            (1, 3): F(222, 1000),
            (2, 3): F(257, 1000),
        }

    def test_water_uniform_matches_published_column(self, water):
        targets = targets_from_pmf(water, digits=3)
        assert targets.moments == {
            (1, 2): F(254, 1000),
            (1, 3): F(248, 1000),
            (1, 4): F(231, 1000),
            (2, 3): F(214, 1000),
            (2, 4): F(233, 1000),
            (3, 4): F(259, 1000),
        }

    def test_example1_observed(self, example1):
        targets = targets_from_pmf(example1, digits=3, margins="observed")
        assert targets.univariate == (F(7, 20), F(7, 10), F(7, 20))
        assert targets.moments == {(1, 2): F(1, 5), (1, 3): F(1, 10), (2, 3): F(1, 4)}

    def test_infinite_ratio_unsupported(self):
        p = Pmf.from_cells([F(1, 2), F(0), F(0), F(0), F(0), F(0), F(0), F(1, 2)])
        with pytest.raises(UnsupportedTargetError):
            targets_from_pmf(p, digits=3)

    def test_zero_ratio_unsupported(self):
        # no cell has both of the first two axes at 1, so omega_12 = 0
        p = Pmf.from_cells(
            [F(1, 8), F(1, 8), F(1, 8), F(1, 8), F(1, 4), F(1, 4), F(0), F(0)]
        )
        with pytest.raises(UnsupportedTargetError):
            targets_from_pmf(p, digits=3)

    @pytest.mark.parametrize("margins", ["uniform", "observed"])
    @pytest.mark.parametrize(
        "counts, message",
        [
            ([1, 0, 0, 1], "pair (1,2) is infinite; targets are not defined"),
            ([0, 0, 1, 1], "pair (1,2) is undefined; targets are not defined"),
            ([0, 1, 1, 0], "pair (1,2) is 0; targets require a positive ratio"),
            ([1, 1, 1, 1, 1, 0, 1, 0], "pair (1,3) is 0; targets require a positive ratio"),
        ],
    )
    def test_zero_cell_messages(self, counts, message, margins):
        p = Pmf.from_counts(counts)
        for source in (p, p.to_float()):
            with pytest.raises(UnsupportedTargetError, match=re.escape(message)):
                targets_from_pmf(source, digits=3, margins=margins)


class TestMarginTargets:
    def test_missing_pair_rejected(self):
        with pytest.raises(DomainError):
            MarginTargets(d=3, univariate=(F(1, 2),) * 3, moments={(1, 2): F(1, 4)})

    def test_frechet_violation_rejected(self):
        moments = {(1, 2): F(3, 5), (1, 3): F(1, 4), (2, 3): F(1, 4)}
        with pytest.raises(InfeasibleTargetsError) as err:
            MarginTargets.uniform(3, moments)
        assert err.value.pair == (1, 2)

    def test_frechet_boundary_allowed(self):
        MarginTargets.uniform(3, {(1, 2): F(1, 2), (1, 3): F(1, 4), (2, 3): F(1, 4)})

    @staticmethod
    def fraction_violation(univariate, moments):
        """The first pair, in moment order, with mu outside [max(0, mi + mj - 1), min(mi, mj)], in Fractions."""
        for (i, j), mu in moments.items():
            mi, mj = univariate[i - 1], univariate[j - 1]
            if not (max(F(0), mi + mj - 1) <= mu <= min(mi, mj)):
                return (i, j)
        return None

    def test_frechet_check_matches_the_fraction_bounds(self):
        # each target at a bound, just inside or just outside one, or anywhere in -0.3..1.3
        rng = random.Random(2703)
        outcomes = set()
        for _ in range(600):
            d = rng.randint(2, 5)
            den = rng.choice([2, 3, 10, 997, 10**12])
            univariate = tuple(F(rng.randint(1, den - 1), den) for _ in range(d))
            moments = {}
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    a, b = univariate[i - 1], univariate[j - 1]
                    lo, hi = max(F(0), a + b - 1), min(a, b)
                    eps = F(1, rng.choice([7, 10**6, 10**30]))
                    choices = [lo, hi, lo + eps, hi - eps, (lo + hi) / 2, F(rng.randint(-3, 13), 10)]
                    # outside the bounds at most rarely, so later pairs are reached too
                    if rng.random() < 0.15:
                        choices = [lo - eps, hi + eps]
                    moments[(i, j)] = rng.choice(choices)
            expected = self.fraction_violation(univariate, moments)
            outcomes.add(expected)
            if expected is None:
                assert MarginTargets(d=d, univariate=univariate, moments=moments).frechet_violation() is None
            else:
                with pytest.raises(InfeasibleTargetsError) as err:
                    MarginTargets(d=d, univariate=univariate, moments=moments)
                assert err.value.pair == expected
        assert None in outcomes and (1, 2) in outcomes and len(outcomes) > 5

    def test_pair_margin_table(self):
        targets = MarginTargets(
            d=2, univariate=(F(7, 20), F(7, 10)), moments={(1, 2): F(1, 5)}
        )
        assert targets.pair_margin_table(1, 2) == (F(3, 20), F(1, 2), F(3, 20), F(1, 5))


class TestBuildH:
    def test_d3_displayed_matrix(self, example1_H3):
        """The 6x8 system at mu = (0.194, 0.222, 0.257), entry by entry."""
        mu12, mu13, mu23 = F(194, 1000), F(222, 1000), F(257, 1000)
        expected = (
            (1, 1, 1, 1, -1, -1, -1, -1),
            (1, 1, -1, -1, 1, 1, -1, -1),
            (1, -1, 1, -1, 1, -1, 1, -1),
            (mu12, mu12, mu12, mu12, mu12, mu12, mu12 - 1, mu12 - 1),
            (mu13, mu13, mu13, mu13, mu13, mu13 - 1, mu13, mu13 - 1),
            (mu23, mu23, mu23, mu23 - 1, mu23, mu23, mu23, mu23 - 1),
        )
        assert example1_H3.rows == tuple(tuple(F(v) for v in row) for row in expected)
        assert example1_H3.labels == (
            ("margin", 1),
            ("margin", 2),
            ("margin", 3),
            ("moment", 1, 2),
            ("moment", 1, 3),
            ("moment", 2, 3),
        )

    def test_row_count_formula(self, water):
        H = build_H(targets_from_pmf(water, digits=3))
        assert H.n_rows == 4 + 6
        assert H.n_cols == 16

    def test_d4_entries_against_indicator_oracle(self, water):
        # every entry recomputed from the indicator definition of the rows
        H = build_H(targets_from_pmf(water, digits=3))
        for label, row in zip(H.labels, H.rows):
            for k, entry in enumerate(row):
                bits = [(k >> (4 - i)) & 1 for i in range(1, 5)]
                if label[0] == "margin":
                    expected = 1 if bits[label[1] - 1] == 0 else -1
                else:
                    mu = H.targets.moments[(label[1], label[2])]
                    both = bits[label[1] - 1] and bits[label[2] - 1]
                    expected = mu - 1 if both else mu
                assert entry == expected

    def test_uniform_pmf_in_independence_kernel(self):
        targets = MarginTargets.uniform(
            3, {(1, 2): F(1, 4), (1, 3): F(1, 4), (2, 3): F(1, 4)}
        )
        assert satisfies(build_H(targets), Pmf.uniform(3), 0)

    def test_general_margin_rows_accept_source_table(self, example1):
        # the observed-margin system of a table must contain the table itself
        H = build_H(targets_from_pmf(example1, digits=3, margins="observed"))
        assert satisfies(H, example1, 0)

    def test_margin_rows_negate_under_reflection(self, example1_H3):
        for label, row in zip(example1_H3.labels, example1_H3.rows):
            if label[0] == "margin":
                assert tuple(reversed(row)) == tuple(-v for v in row)

    def test_row_space_invariant_under_reflection(self, example1_H3):
        reflected = [tuple(reversed(row)) for row in example1_H3.rows]
        base_rank = reference_rank(example1_H3.rows)
        assert reference_rank(list(example1_H3.rows) + reflected) == base_rank


class TestHandBuiltShape:
    def test_label_count_must_match_row_count(self, water):
        # one label short used to drop the last row from the ray pass (128 vertices, not 96)
        H = build_H(targets_from_pmf(water, digits=3))
        for labels in (H.labels[:-1], H.labels + (("moment", 1, 2),)):
            with pytest.raises(DimensionMismatchError, match=f"{len(labels)} labels for 10 rows"):
                ConstraintMatrix(d=H.d, rows=H.rows, labels=labels, targets=H.targets)

    def test_every_row_must_have_one_entry_per_cell(self, example1_H3):
        H = example1_H3
        for row in (H.rows[1][:-1], H.rows[1] + (F(0),)):
            rows = (H.rows[0], row) + H.rows[2:]
            with pytest.raises(DimensionMismatchError, match=f"row 1 has {len(row)} entries for 8 cells"):
                ConstraintMatrix(d=H.d, rows=rows, labels=H.labels, targets=H.targets)

    def test_targets_must_have_the_system_d(self, example1_H3):
        # the rows of a d=2 system with d=3 targets used to enumerate, and write a
        # vertex file that its own reader refused
        H2 = build_H(MarginTargets.uniform(2, {(1, 2): F(3, 10)}))
        with pytest.raises(DimensionMismatchError, match="targets of d=3 for a d=2 system"):
            ConstraintMatrix(d=2, rows=H2.rows, labels=H2.labels, targets=example1_H3.targets)


class TestIntRows:
    @pytest.mark.parametrize("margins", ["uniform", "observed"])
    @pytest.mark.parametrize("digits", [3, 9, 20])
    @pytest.mark.parametrize("name", ["example1", "water", "raters"])
    def test_each_row_is_the_primitive_positive_multiple(self, request, name, digits, margins):
        H = build_H(targets_from_pmf(request.getfixturevalue(name), digits=digits, margins=margins))
        expected = [reference_primitive_row(row) for row in H.rows]
        assert H.int_rows.shape == (H.n_rows, H.n_cols)
        assert H.int_rows.tolist() == expected
        assert all(type(v) is int for row in H.int_rows.tolist() for v in row)
        past_bound = max(abs(v) for row in expected for v in row) >= 2**62
        assert H.int_rows.dtype == (object if past_bound else np.int64)
        # both dtypes are covered: 20-digit uniform-margin moments are past the bound
        if digits < 20:
            assert not past_bound
        elif margins == "uniform":
            assert past_bound

    @pytest.mark.parametrize("margins", ["uniform", "observed"])
    def test_closed_form_rows_equal_the_scaled_rational_rows(self, margins):
        # build_H emits each primitive row in closed form; a hand-built H scales its rows
        rng = random.Random(21)
        dtypes = set()
        for d in range(2, 8):
            for digits in range(21):
                H = build_H(targets_from_pmf(random_rational_pmf(rng, d, positive=True), digits=digits, margins=margins))
                expected = [list(row) for row in _integer_rows(H.rows)]
                assert H.int_rows.tolist() == expected
                hand_built = ConstraintMatrix(d=H.d, rows=H.rows, labels=H.labels, targets=H.targets)
                assert hand_built == H
                assert hand_built.int_rows.tolist() == expected
                assert hand_built.int_rows.dtype == H.int_rows.dtype
                dtypes.add(H.int_rows.dtype)
        # both sides of the int64 bound are covered
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    def test_hand_built_int_rows_scale_its_own_rows(self, water):
        # a hand-built H takes no integer rows: they come from its rational rows, not from its targets
        H = build_H(targets_from_pmf(water, digits=3))
        other = build_H(targets_from_pmf(water, digits=2))
        mixed = ConstraintMatrix(d=H.d, rows=other.rows, labels=H.labels, targets=H.targets)
        assert mixed.int_rows.tolist() == other.int_rows.tolist() != H.int_rows.tolist()
        assert mixed != H
        with pytest.raises(TypeError, match="int_rows"):
            ConstraintMatrix(d=H.d, rows=H.rows, labels=H.labels, targets=H.targets, int_rows=other.int_rows)

    def test_built_once_and_read_only(self, example1_H3):
        H = build_H(example1_H3.targets)
        assert "int_rows" not in H.__dict__
        assert H.int_rows is H.int_rows
        with pytest.raises(ValueError):
            H.int_rows[0, 0] = 0


class TestResidual:
    def test_vertex_in_kernel(self, example1_H3):
        vertex = Pmf.from_cells(list(EXAMPLE1_VERTEX_A))
        assert residual(example1_H3, vertex) == (F(0),) * 6

    def test_source_table_not_in_uniform_kernel(self, example1, example1_H3):
        assert any(r != 0 for r in residual(example1_H3, example1))

    def test_moment_row_identity(self, example1_H3):
        # each moment row applied to any pmf equals mu_target - mu_observed
        import random

        from bintab import second_order_moment

        rng = random.Random(99)
        for _ in range(20):
            p = random_rational_pmf(rng, 3)
            res = residual(example1_H3, p)
            for label, value in zip(example1_H3.labels, res):
                if label[0] == "moment":
                    pair = (label[1], label[2])
                    expected = example1_H3.targets.moments[pair] - second_order_moment(p, *pair)
                    assert value == expected

    def test_float_pmfs_read_the_float_rows(self, example1, water):
        rng = random.Random(5)
        observed = build_H(targets_from_pmf(example1, digits=3, margins="observed"))
        uniform = build_H(targets_from_pmf(water, digits=3))
        hand_built = ConstraintMatrix(d=4, rows=uniform.rows[::-1], labels=uniform.labels[::-1], targets=uniform.targets)
        for H in (observed, uniform, hand_built):
            for _ in range(10):
                weights = [rng.random() for _ in range(H.n_cols)]
                p = Pmf.from_cells([w / sum(weights) for w in weights], mode="float")
                # each rational entry as its float
                expected = tuple(math.fsum(float(h) * c for h, c in zip(row, p.cells)) for row in H.rows)
                assert residual(H, p) == expected

    def test_dimension_mismatch(self, example1_H3):
        with pytest.raises(DomainError):
            residual(example1_H3, Pmf.uniform(4))


class TestReferenceRows:
    """H against the rows its definition gives the targets (``reference_H_rows``)."""

    @staticmethod
    def _systems():
        rng = random.Random(31)
        for d in range(2, 9):
            for margins in ("uniform", "observed"):
                for digits in (3, 20):
                    targets = targets_from_pmf(random_rational_pmf(rng, d, positive=True), digits=digits, margins=margins)
                    yield build_H(targets), reference_H_rows(targets), rng

    def test_rows_int_rows_and_residual(self):
        dtypes = set()
        for H, expected, rng in self._systems():
            assert H.rows == tuple(expected)
            assert H.int_rows.tolist() == [reference_primitive_row(row) for row in expected]
            dtypes.add(H.int_rows.dtype)
            p = random_rational_pmf(rng, H.d)
            assert residual(H, p) == tuple(sum(h * c for h, c in zip(row, p.cells)) for row in expected)
            weights = [rng.random() for _ in range(H.n_cols)]
            q = Pmf.from_cells([w / sum(weights) for w in weights], mode="float")
            assert residual(H, q) == tuple(math.fsum(float(h) * c for h, c in zip(row, q.cells)) for row in expected)
        # digits 20 puts the moment rows past the int64 bound, on the Python-int path
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestRank:
    """``H.rank`` of a ``build_H`` system is its row count: in Walsh coordinates [H; 1] is triangular."""

    @staticmethod
    def _frechet_targets(rng, d, margins):
        """Targets with each moment on a Frechet bound or midway between, at margins 1/2 or random tenths."""
        univariate = tuple(F(1, 2) if margins == "uniform" else F(rng.randint(1, 9), 10) for _ in range(d))
        moments = {}
        for i, j in combinations(range(1, d + 1), 2):
            a, b = univariate[i - 1], univariate[j - 1]
            lo, hi = max(F(0), a + b - 1), min(a, b)
            moments[(i, j)] = rng.choice([lo, hi, lo, hi, (lo + hi) / 2])
        return MarginTargets(d=d, univariate=univariate, moments=moments)

    @pytest.mark.parametrize("margins", ["uniform", "observed"])
    @pytest.mark.parametrize("d", range(2, 11))
    def test_closed_form_rank_equals_elimination(self, d, margins):
        rng = random.Random(3200 + d)
        systems = [targets_from_pmf(random_rational_pmf(rng, d, positive=True), digits=2, margins=margins)]
        systems += [self._frechet_targets(rng, d, margins) for _ in range(3 if d <= 5 else 1)]
        for targets in systems:
            H = build_H(targets)
            assert H.rank == len(_int_rref(H.int_rows)[1]) == d + math.comb(d, 2)
            if d <= 5:
                assert H.rank == H.n_cols - len(reference_nullspace(H.rows, H.n_cols))

    def test_hand_built_system_is_eliminated(self, water):
        # a repeated row leaves the rank below the row count
        H = build_H(targets_from_pmf(water, digits=3))
        hand = ConstraintMatrix(d=4, rows=H.rows + H.rows[:2], labels=H.labels + H.labels[:2], targets=H.targets)
        assert hand.rank == reference_rank(hand.rows) == H.n_rows


class TestKernelChart:
    """The kernel of [H; 1] is the span of the Walsh characters of order >= 3, for every ``build_H`` system."""

    @staticmethod
    def _H(d, margins):
        return build_H(targets_from_pmf(random_rational_pmf(random.Random(d), d, positive=True), digits=2, margins=margins))

    @staticmethod
    def _higher(d):
        return [axes for size in range(3, d + 1) for axes in combinations(range(1, d + 1), size)]

    @pytest.mark.parametrize("margins", ["uniform", "observed"])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_higher_characters_annihilate_the_integer_rows(self, d, margins):
        rows = self._H(d, margins).int_rows.tolist() + [[1] * 2**d]
        for axes in self._higher(d):
            chi = walsh_character(d, axes)
            assert all(sum(h * c for h, c in zip(row, chi)) == 0 for row in rows)
        assert reference_rank(rows) == 1 + d + math.comb(d, 2)

    @pytest.mark.parametrize("margins", ["uniform", "observed"])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_chart_spans_the_higher_characters(self, d, margins):
        chart = self._H(d, margins).kernel_chart
        assert chart.shape == (2**d, 2**d - 1 - d - math.comb(d, 2))
        chars = np.array([walsh_character(d, axes) for axes in self._higher(d)], dtype=float).T / 2 ** (d / 2)
        assert np.abs(chars - chart @ (chart.T @ chars)).max() <= 1e-12

    def test_chart_depends_only_on_d(self, water, pool_pmfs):
        # the reduced echelon form of [H; 1] depends only on its row space, span{chi_S : |S| <= 2}
        charts = [build_H(targets_from_pmf(water, digits=3)).kernel_chart]
        for digits in (2, 3, 5):
            charts.append(build_H(targets_from_pmf(pool_pmfs[0], digits=digits)).kernel_chart)
            charts.append(build_H(targets_from_pmf(pool_pmfs[1], digits=digits, margins="observed")).kernel_chart)
        assert all(np.array_equal(_bits(chart), _bits(charts[0])) for chart in charts[1:])

    def test_chart_matches_the_reference_route_bit_for_bit(self):
        # the chart reference_hit_and_run builds, past the d <= 6 walks that pin it; a -0.0 entry changes the bits
        H = build_H(generic_targets(7))
        basis = reference_nullspace(list(H.rows) + [tuple([F(1)] * H.n_cols)], H.n_cols)
        expected, _ = np.linalg.qr(np.array([[float(v) for v in vec] for vec in basis], dtype=float).T)
        assert np.array_equal(_bits(H.kernel_chart), _bits(expected))
