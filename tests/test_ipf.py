"""Proportional-fitting baseline: convergence and the no-interaction contract."""

import random
from fractions import Fraction

import numpy as np
import pytest

from bintab import (
    DomainError,
    EmptyFeasibleSetError,
    MarginTargets,
    build_H,
    decompose,
    enumerate_vertices,
    ipf_max_entropy,
    reflect,
    residual,
    targets_from_pmf,
    top_order_odds_ratio,
    zero_mean_params,
)
from bintab.constraints import DEFAULT_MAX_ITER, DEFAULT_TOL
from conftest import random_rational_pmf

F = Fraction


class TestConvergence:
    def test_example1(self, example1):
        targets = targets_from_pmf(example1, digits=3)
        report = ipf_max_entropy(targets, tol=1e-10)
        assert report.converged
        assert report.final_residual < 1e-10
        H = build_H(targets)
        assert max(abs(r) for r in residual(H, report.table)) < 1e-9

    def test_independence_fixed_point(self):
        targets = MarginTargets.uniform(
            3, {(1, 2): F(1, 4), (1, 3): F(1, 4), (2, 3): F(1, 4)}
        )
        report = ipf_max_entropy(targets, tol=1e-12)
        assert report.converged
        assert report.iterations <= 2
        assert max(abs(c - 0.125) for c in report.table.cells) < 1e-12

    def test_non_convergence_reported(self, example1):
        report = ipf_max_entropy(targets_from_pmf(example1, digits=3), tol=1e-15, max_iter=1)
        assert not report.converged
        assert report.iterations == 1

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, example1, max_iter):
        with pytest.raises(DomainError):
            ipf_max_entropy(targets_from_pmf(example1, digits=3), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [2.5, True, float("inf")])
    def test_max_iter_not_an_integer_rejected(self, example1, max_iter):
        # 2.5 would run 3 sweeps and True 1; inf with tol=0.0 would never return
        with pytest.raises(DomainError, match=f"max_iter must be an integer, got {max_iter!r}"):
            ipf_max_entropy(targets_from_pmf(example1, digits=3), max_iter=max_iter)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_tol_outside_domain_rejected(self, water, tol):
        # nan and -1 would run every sweep and report no convergence; inf would stop after one
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            ipf_max_entropy(targets_from_pmf(water, digits=3), tol=tol)

    def test_infeasible_targets_signal(self):
        targets = MarginTargets.uniform(
            3, {(1, 2): F(1, 10), (1, 3): F(1, 10), (2, 3): F(1, 10)}
        )
        with pytest.raises(EmptyFeasibleSetError):
            ipf_max_entropy(targets)

    def test_monotone_margin_deviation(self, example1):
        targets = targets_from_pmf(example1, digits=3)
        residuals = [
            ipf_max_entropy(targets, tol=0.0, max_iter=k).final_residual
            for k in range(1, 8)
        ]
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= earlier + 1e-15


class TestMaxEntropyStructure:
    def test_no_three_way_interaction(self, example1):
        report = ipf_max_entropy(targets_from_pmf(example1, digits=3), tol=1e-10)
        params = zero_mean_params(report.table, eps=0.0)
        assert abs(params.coefficients[(1, 2, 3)]) < 1e-8
        assert abs(float(top_order_odds_ratio(report.table)) - 1.0) < 1e-6

    def test_reflect_invariant_for_uniform_targets(self, example1):
        report = ipf_max_entropy(targets_from_pmf(example1, digits=3), tol=1e-12)
        mirrored = reflect(report.table)
        assert max(
            abs(a - b) for a, b in zip(report.table.cells, mirrored.cells)
        ) < 1e-8

    def test_rater_table_strictly_inside_segment(self, raters):
        targets = targets_from_pmf(raters, digits=6)
        report = ipf_max_entropy(targets, tol=1e-12)
        V = enumerate_vertices(build_H(targets))
        weights = decompose(report.table, V, tol=1e-7)
        assert len(weights.theta) == 2
        for t in weights.theta:
            assert 0 < t < 1

    def test_observed_margin_mode(self, example1):
        # fitting the observed-margin targets keeps the source's margins
        from bintab import second_order_moment, univariate_margin

        targets = targets_from_pmf(example1, digits=3, margins="observed")
        report = ipf_max_entropy(targets, tol=1e-12)
        assert report.converged
        for i, m in enumerate(targets.univariate, start=1):
            assert univariate_margin(report.table, i)[1] == pytest.approx(float(m), abs=1e-10)
        for pair, mu in targets.moments.items():
            assert second_order_moment(report.table, *pair) == pytest.approx(float(mu), abs=1e-10)


HALF, QUARTER, EIGHTH = F(1, 2), F(1, 4), F(1, 8)


class TestFrechetBoundary:
    """Targets on a Frechet bound: zero 2x2 targets empty their blocks in the first sweep."""

    @pytest.mark.parametrize(
        "targets, cells",
        [
            # mu12 = 1/2 forces X1 = X2
            (
                MarginTargets.uniform(3, {(1, 2): HALF, (1, 3): QUARTER, (2, 3): QUARTER}),
                (QUARTER, QUARTER, 0, 0, 0, 0, QUARTER, QUARTER),
            ),
            # mu12 = 0 forces X1 = 1 - X2
            (
                MarginTargets.uniform(3, {(1, 2): F(0), (1, 3): QUARTER, (2, 3): QUARTER}),
                (0, 0, QUARTER, QUARTER, QUARTER, QUARTER, 0, 0),
            ),
            # X1 = X2 = X3: the pair (2, 3) meets blocks with no mass and a zero target
            (
                MarginTargets.uniform(3, {(1, 2): HALF, (1, 3): HALF, (2, 3): HALF}),
                (HALF, 0, 0, 0, 0, 0, 0, HALF),
            ),
            # observed margins (1/4, 1/2, 1/2) with mu12 = min(m1, m2): X1 = 1 implies X2 = 1
            (
                MarginTargets(
                    d=3,
                    univariate=(QUARTER, HALF, HALF),
                    moments={(1, 2): QUARTER, (1, 3): EIGHTH, (2, 3): QUARTER},
                ),
                (QUARTER, QUARTER, EIGHTH, EIGHTH, 0, 0, EIGHTH, EIGHTH),
            ),
        ],
        ids=["mu12-half", "mu12-zero", "all-equal", "observed-upper-bound"],
    )
    def test_converges_in_one_sweep_to_exact_table(self, targets, cells):
        report = ipf_max_entropy(targets)
        assert report.converged
        assert report.iterations == 1
        assert report.final_residual == 0.0
        assert report.table.cells == tuple(float(c) for c in cells)
        assert max(abs(r) for r in residual(build_H(targets), report.table)) == 0


    @pytest.mark.parametrize("d", [3, 4])
    def test_equicorrelation_minus_one_third_is_one_table(self, d):
        # rho = -1/3 (mu = 1/6) is the lowest common correlation: the polytope is one
        # table on 6 cells, and the other cells start at 0 rather than being driven there
        targets = MarginTargets.uniform(d, {(i, j): F(1, 6) for i in range(1, d + 1) for j in range(i + 1, d + 1)})
        (vertex,) = enumerate_vertices(build_H(targets)).vertices
        report = ipf_max_entropy(targets)
        assert report.converged
        assert report.iterations == 1
        assert max(abs(a - float(b)) for a, b in zip(report.table.cells, vertex.cells)) <= 1e-15


def reference_ipf(targets, tol, max_iter):
    """IPF with every block sum a 1-D numpy sum of the block's cells, gathered in cell order.

    Returns the cells, the sweep count and the last max deviation of a 2x2
    margin from its target.
    """
    d = targets.d
    n = 2**d
    x = np.full(n, 1.0 / n)
    pairs = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            a, b = targets.univariate[i - 1], targets.univariate[j - 1]
            mu = targets.moments[(i, j)]
            target = np.array([float(t) for t in (1 - a - b + mu, b - mu, a - mu, mu)])
            blocks = [
                np.array([k for k in range(n) if ((k >> (d - i)) & 1, (k >> (d - j)) & 1) == (k1, k2)])
                for k1 in (0, 1)
                for k2 in (0, 1)
            ]
            pairs.append((blocks, target))

    def block_sums(blocks):
        return np.array([x[cells].sum() for cells in blocks])

    sweeps = 0
    while sweeps < max_iter:
        for blocks, target in pairs:
            s = block_sums(blocks)
            for cells, factor in zip(blocks, np.divide(target, s, out=np.ones(4), where=s > 0)):
                x[cells] *= factor
        x /= x.sum()
        sweeps += 1
        deviation = max(np.abs(block_sums(blocks) - target).max() for blocks, target in pairs)
        if deviation <= tol:
            break
    return tuple(x.tolist()), sweeps, float(deviation)


class TestBlockSums:
    @pytest.mark.parametrize("margins", ["uniform", "observed"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_per_block_reference_bit_for_bit(self, d, margins):
        targets = targets_from_pmf(random_rational_pmf(random.Random(d), d, positive=True), digits=3, margins=margins)
        for tol, max_iter in ((DEFAULT_TOL, DEFAULT_MAX_ITER), (0.0, 7)):
            report = ipf_max_entropy(targets, tol=tol, max_iter=max_iter)
            cells, sweeps, deviation = reference_ipf(targets, tol, max_iter)
            assert (report.table.cells, report.iterations, report.final_residual) == (cells, sweeps, deviation)
