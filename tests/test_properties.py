"""Randomized invariants: complement symmetry, conversions, enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bintab import (
    ConstraintMatrix,
    MixtureWeights,
    Pmf,
    bivariate_margin,
    build_H,
    correlation,
    decompose,
    enumerate_vertices,
    marginal_odds_ratio,
    mixture,
    moment_from_odds_ratio,
    reflect,
    residual,
    second_order_moment,
    targets_from_pmf,
    univariate_margin,
    zero_mean_params,
)
from conftest import brute_force_vertices, reference_nullspace

F = Fraction

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much]
)


@st.composite
def rational_pmfs(draw, dims=(2, 3, 4), positive=False):
    d = draw(st.sampled_from(dims))
    low = 1 if positive else 0
    weights = draw(st.lists(st.integers(low, 20), min_size=2**d, max_size=2**d))
    assume(sum(weights) > 0)
    total = sum(weights)
    return Pmf.from_cells([F(w, total) for w in weights])


_MARGIN_KERNELS = {}


def _margin_kernel(d):
    if d not in _MARGIN_KERNELS:
        n = 2**d
        rows = [
            tuple(F(1) if ((k >> (d - i)) & 1) == 0 else F(-1) for k in range(n))
            for i in range(1, d + 1)
        ]
        rows.append(tuple([F(1)] * n))
        _MARGIN_KERNELS[d] = reference_nullspace(rows, n)
    return _MARGIN_KERNELS[d]


@st.composite
def uniform_margin_pmfs(draw, dims=(2, 3, 4)):
    """Exact-rational pmfs with all margins (1/2, 1/2), not usually symmetric."""
    d = draw(st.sampled_from(dims))
    basis = _margin_kernel(d)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(basis), max_size=len(basis)))
    n = 2**d
    direction = [F(0)] * n
    for c, vec in zip(coeffs, basis):
        direction = [a + c * b for a, b in zip(direction, vec)]
    worst = min(direction)
    if worst >= 0:
        return Pmf.uniform(d)
    scale = F(1, n) / (-worst) * F(draw(st.integers(0, 10)), 10)
    return Pmf.from_cells([F(1, n) + scale * v for v in direction])


class TestComplementSymmetry:
    @RELAXED
    @given(uniform_margin_pmfs())
    def test_reflect_preserves_uniform_margins_and_moments(self, p):
        mirrored = reflect(p)
        for i in range(1, p.d + 1):
            assert univariate_margin(p, i) == (F(1, 2), F(1, 2))
            assert univariate_margin(mirrored, i) == (F(1, 2), F(1, 2))
        for i in range(1, p.d + 1):
            for j in range(i + 1, p.d + 1):
                assert second_order_moment(mirrored, i, j) == second_order_moment(p, i, j)

    @RELAXED
    @given(rational_pmfs())
    def test_margins_swap_levels(self, p):
        mirrored = reflect(p)
        for i in range(1, p.d + 1):
            m0, m1 = univariate_margin(p, i)
            assert univariate_margin(mirrored, i) == (m1, m0)
        bm = bivariate_margin(p, 1, 2)
        mirrored_bm = bivariate_margin(mirrored, 1, 2)
        assert (mirrored_bm.m00, mirrored_bm.m01, mirrored_bm.m10, mirrored_bm.m11) == (
            bm.m11, bm.m10, bm.m01, bm.m00,
        )

    @RELAXED
    @given(rational_pmfs())
    def test_reflect_is_an_involution(self, p):
        assert reflect(reflect(p)) == p

    @RELAXED
    @given(rational_pmfs())
    def test_marginal_odds_ratio_reflect_invariant(self, p):
        for i in range(1, p.d + 1):
            for j in range(i + 1, p.d + 1):
                a = marginal_odds_ratio(p, i, j)
                b = marginal_odds_ratio(reflect(p), i, j)
                if isinstance(a, float) and math.isnan(a):
                    assert isinstance(b, float) and math.isnan(b)
                else:
                    assert a == b

    @RELAXED
    @given(rational_pmfs(positive=True))
    def test_zero_mean_sign_flip(self, p):
        a = zero_mean_params(p, eps=0.0)
        b = zero_mean_params(reflect(p), eps=0.0)
        for subset, coeff in a.coefficients.items():
            assert b.coefficients[subset] == pytest.approx(
                (-1) ** len(subset) * coeff, abs=1e-9
            )


class TestCorrelationIdentity:
    @RELAXED
    @given(st.integers(0, 1000))
    def test_d2_uniform_margin_correlation(self, numerator):
        t = F(numerator, 2000)  # p11 in [0, 1/2]
        assume(0 < t < F(1, 2))
        p = Pmf.from_cells([t, F(1, 2) - t, F(1, 2) - t, t])
        assert correlation(p, 1, 2) == 4 * t - 1


class TestMomentConversion:
    @RELAXED
    @given(
        st.integers(1, 100),
        st.integers(1, 100),
        st.integers(4, 8),
    )
    def test_round_trip_tolerance(self, num, den, digits):
        # the published tolerance covers moderate ratios: the log-derivative
        # 2/mu + 2/(1/2 - mu) stays below 2*10^1 for omega in [1/5, 5]
        omega = F(num, den)
        assume(F(1, 5) <= omega <= 5)
        mu = moment_from_odds_ratio(omega, digits)
        p = Pmf.from_cells([mu, F(1, 2) - mu, F(1, 2) - mu, mu])
        back = marginal_odds_ratio(p, 1, 2)
        assert abs(float(back) - float(omega)) / float(omega) <= 10.0 ** (1 - digits)


class TestEnumerationProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(rational_pmfs(dims=(2, 3), positive=True), st.integers(1, 3))
    def test_vertex_set_reflect_closed_uniform_targets(self, p, digits):
        H = build_H(targets_from_pmf(p, digits=digits))
        V = enumerate_vertices(H)
        cells = {v.cells for v in V.vertices}
        assert {tuple(reversed(c)) for c in cells} == cells
        for v in V.vertices:
            assert max(abs(r) for r in residual(H, v)) == 0

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(rational_pmfs(dims=(4,), positive=True))
    def test_vertex_set_reflect_closed_d4(self, p):
        V = enumerate_vertices(build_H(targets_from_pmf(p, digits=2)))
        cells = {v.cells for v in V.vertices}
        assert {tuple(reversed(c)) for c in cells} == cells

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(rational_pmfs(dims=(2, 3), positive=True), st.integers(1, 2))
    def test_double_description_matches_brute_force(self, p, digits):
        H = build_H(targets_from_pmf(p, digits=digits))
        assert {v.cells for v in enumerate_vertices(H).vertices} == brute_force_vertices(H)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(
        rational_pmfs(dims=(2, 3, 4), positive=True),
        st.integers(1, 3),
        st.sampled_from(("uniform", "observed")),
    )
    def test_vertices_revalidate_as_public_pmfs(self, p, digits, margins):
        # enumerate_vertices builds its vertices without validation; the public constructor must agree
        V = enumerate_vertices(build_H(targets_from_pmf(p, digits=digits, margins=margins)))
        for v in V.vertices:
            assert all(
                type(c) is Fraction and type(c.numerator) is int and type(c.denominator) is int
                for c in v.cells
            )
            checked = Pmf(d=v.d, cells=v.cells, mode="rational")
            assert checked.cells == v.cells
            assert checked == v

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(rational_pmfs(dims=(3,), positive=True), st.randoms(use_true_random=False))
    def test_insertion_order_does_not_change_vertices(self, p, rng):
        H = build_H(targets_from_pmf(p, digits=2))
        base = {v.cells for v in enumerate_vertices(H).vertices}
        order = list(range(len(H.rows)))
        rng.shuffle(order)
        permuted = ConstraintMatrix(
            d=H.d,
            rows=tuple(H.rows[i] for i in order),
            labels=tuple(H.labels[i] for i in order),
            targets=H.targets,
        )
        assert {v.cells for v in enumerate_vertices(permuted).vertices} == base


class TestMomentRows:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(rational_pmfs(dims=(3,), positive=True), rational_pmfs(dims=(3,)))
    def test_moment_row_equals_plain_moment_equation(self, source, probe):
        H = build_H(targets_from_pmf(source, digits=2))
        values = residual(H, probe)
        for label, value in zip(H.labels, values):
            if label[0] == "moment":
                pair = (label[1], label[2])
                assert value == H.targets.moments[pair] - second_order_moment(probe, *pair)


class TestMixtureRoundTrip:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(st.integers(0, 100))
    def test_decompose_recovers_rational_weights(self, example1, numerator):
        V = enumerate_vertices(build_H(targets_from_pmf(example1, digits=3)))
        theta = MixtureWeights((F(numerator, 100), F(100 - numerator, 100)))
        recovered = decompose(mixture(theta, V), V)
        assert recovered.theta == theta.theta
