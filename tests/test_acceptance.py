"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from bintab import (
    MixtureWeights,
    Pmf,
    build_H,
    corner_params,
    correlation,
    decompose,
    enumerate_vertices,
    ipf_max_entropy,
    marginal_odds_ratio,
    mixture,
    moment_from_odds_ratio,
    polytope_dimension,
    reflect,
    residual,
    sample_dirichlet,
    sample_hit_and_run,
    SamplerConfig,
    satisfies,
    second_order_moment,
    targets_from_pmf,
    top_order_odds_ratio,
    univariate_margin,
    zero_mean_params,
)
from bintab.datasets import builtin_pmf
from conftest import brute_force_vertices, random_rational_pmf, random_uniform_margin_pmf, reference_rank

F = Fraction

SUBSETS_D3 = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))

# Published tables, rounded as printed.
TABLE2 = (
    (0.0, 0.194, 0.222, 0.084, 0.257, 0.05, 0.021, 0.173),
    (0.173, 0.021, 0.05, 0.257, 0.084, 0.222, 0.194, 0.0),
)
TABLE4 = (
    (0.050, 0.100, 0.350, 0.150, 0.150, 0.0, 0.100, 0.100),
    (0.150, 0.0, 0.250, 0.250, 0.050, 0.100, 0.200, 0.0),
)
TABLE9 = (
    (0.372, 0.059, 0.059, 0.011, 0.07, 0.0, 0.0, 0.43),
    (0.43, 0.0, 0.0, 0.07, 0.011, 0.059, 0.059, 0.372),
)
TABLE3_ZERO_MEAN = (
    (-4.25, 1.76, 1.85, 2.03, -2.17, -1.92, -1.75, 2.69),
    (-4.25, -1.76, -1.85, -2.03, -2.17, -1.92, -1.75, -2.69),
)
TABLE3_CORNER = (
    (-18.42, 17.06, 16.92, 16.78, -19.41, -18.42, -17.75, 21.49),
    (-1.76, -0.72, -1.24, -2.10, 2.08, 3.07, 3.74, -21.49),
)
TABLE10_ZERO_MEAN = (
    (-6.44, -3.65, -0.21, -0.21, 0.66, 0.66, 4.19, 4.14),
    (-6.44, 3.65, 0.21, 0.21, 0.66, 0.66, 4.19, -4.14),
)
TABLE10_CORNER = (
    (-0.99, -1.67, -1.85, -1.85, -13.91, -13.91, 0.19, 33.14),
    (-0.84, -3.65, -17.58, -17.58, 19.23, 19.23, 33.34, -33.14),
)


def _report(num, text):
    print(f"\n[criterion {num:02d}] PASS  {text}")


def _match_rows(vertices, reference_rows):
    """Pair each reference row with its closest vertex by max-norm."""
    remaining = list(vertices)
    matched = []
    for ref in reference_rows:
        best = min(remaining, key=lambda v: max(abs(float(c) - r) for c, r in zip(v.cells, ref)))
        matched.append(best)
        remaining.remove(best)
    return matched


def test_criterion_01_example_odds_ratios():
    p0 = builtin_pmf("example1")
    expected = {(1, 2): 0.40, (1, 3): 0.64, (2, 3): 1.11}
    for pair, ref in expected.items():
        assert float(marginal_odds_ratio(p0, *pair)) == pytest.approx(ref, abs=5e-3)
    _report(1, "marginal odds ratios of the running example = (0.40, 0.64, 1.11) within 5e-3")


def test_criterion_02_moment_conversion():
    p0 = builtin_pmf("example1")
    omegas = {pair: marginal_odds_ratio(p0, *pair) for pair in ((1, 2), (1, 3), (2, 3))}
    assert moment_from_odds_ratio(omegas[(1, 2)], 3) == F(194, 1000)
    assert moment_from_odds_ratio(omegas[(1, 3)], 3) == F(222, 1000)
    assert moment_from_odds_ratio(omegas[(2, 3)], 3) == F(257, 1000)
    _report(2, "moment targets at 3 digits are exactly (0.194, 0.222, 0.257)")


def test_criterion_03_H3_bit_exact():
    H = build_H(targets_from_pmf(builtin_pmf("example1"), digits=3))
    mu12, mu13, mu23 = F(194, 1000), F(222, 1000), F(257, 1000)
    expected = (
        (1, 1, 1, 1, -1, -1, -1, -1),
        (1, 1, -1, -1, 1, 1, -1, -1),
        (1, -1, 1, -1, 1, -1, 1, -1),
        (mu12, mu12, mu12, mu12, mu12, mu12, mu12 - 1, mu12 - 1),
        (mu13, mu13, mu13, mu13, mu13, mu13 - 1, mu13, mu13 - 1),
        (mu23, mu23, mu23, mu23 - 1, mu23, mu23, mu23, mu23 - 1),
    )
    assert H.rows == tuple(tuple(F(v) for v in row) for row in expected)
    _report(3, "constraint matrix for the d=3 example matches the displayed system entrywise")


def test_criterion_04_d3_uniform_vertices():
    H = build_H(targets_from_pmf(builtin_pmf("example1"), digits=3))
    V = enumerate_vertices(H)
    assert len(V.vertices) == 2
    for vertex, ref in zip(_match_rows(V.vertices, TABLE2), TABLE2):
        for cell, expected in zip(vertex.cells, ref):
            assert float(cell) == pytest.approx(expected, abs=2e-3)
    assert polytope_dimension(H) == 1
    _report(4, "uniform-margin d=3 polytope: 2 extreme pmfs within 2e-3, dimension 1")


def test_criterion_05_d3_observed_vertices():
    H = build_H(targets_from_pmf(builtin_pmf("example1"), digits=3, margins="observed"))
    V = enumerate_vertices(H)
    assert len(V.vertices) == 2
    for vertex, ref in zip(_match_rows(V.vertices, TABLE4), TABLE4):
        for cell, expected in zip(vertex.cells, ref):
            assert float(cell) == pytest.approx(expected, abs=1e-3)
    _report(5, "observed-margin d=3 polytope: 2 extreme pmfs within 1e-3")


def test_criterion_06_d4_vertex_count():
    H = build_H(targets_from_pmf(builtin_pmf("water"), digits=3))
    V = enumerate_vertices(H)
    assert len(V.vertices) == 96
    rank = reference_rank(H.rows)
    cells = {v.cells for v in V.vertices}
    for v in V.vertices:
        assert satisfies(H, v, 0)
        assert v.support_size() <= rank + 1
    assert {tuple(reversed(c)) for c in cells} == cells
    _report(6, "d=4 survey targets (3 digits): exactly 96 vertices; kernel, "
               "support-bound, and reflect-closure checks exact")


def test_criterion_07_rater_case():
    p0 = builtin_pmf("raters")
    assert float(marginal_odds_ratio(p0, 1, 2)) == pytest.approx(37.929, abs=1e-3)
    assert float(marginal_odds_ratio(p0, 1, 3)) == pytest.approx(37.929, abs=1e-3)
    assert float(marginal_odds_ratio(p0, 2, 3)) == pytest.approx(56.672, abs=1e-3)
    assert float(top_order_odds_ratio(p0)) == pytest.approx(2.96625, abs=1e-5)
    V = enumerate_vertices(build_H(targets_from_pmf(p0, digits=6)))
    assert len(V.vertices) == 2
    for vertex, ref in zip(_match_rows(V.vertices, TABLE9), TABLE9):
        for cell, expected in zip(vertex.cells, ref):
            assert float(cell) == pytest.approx(expected, abs=1e-3)
    _report(7, "rater case: odds ratios within 1e-3, three-way ratio 2.96625 "
               "within 1e-5, vertices within 1e-3")


def _check_corner_row(computed, reference):
    for got, ref in zip(computed, reference):
        if abs(ref) > 15:
            assert got * ref > 0 and abs(got) > 15
        else:
            assert got == pytest.approx(ref, abs=5e-2)


def _loglinear_case(pmf, zero_mean_ref, corner_ref, r1_key):
    V = enumerate_vertices(build_H(targets_from_pmf(pmf, digits=6)))
    r1 = next(v for v in V.vertices if r1_key(v))
    r2 = next(v for v in V.vertices if not r1_key(v))
    rows_zm = []
    for vertex, ref in zip((r1, r2), zero_mean_ref):
        row = tuple(zero_mean_params(vertex, eps=1e-8).coefficients[s] for s in SUBSETS_D3)
        assert row == pytest.approx(ref, abs=5e-3)
        rows_zm.append(row)
    for vertex, ref in zip((r1, r2), corner_ref):
        row = tuple(corner_params(vertex, eps=1e-8).coefficients[s] for s in SUBSETS_D3)
        _check_corner_row(row, ref)
    # complement-symmetry structure: even orders equal, odd orders negated
    for subset, a, b in zip(SUBSETS_D3, rows_zm[0], rows_zm[1]):
        assert b == pytest.approx((-1) ** len(subset) * a, abs=1e-9)


def test_criterion_08_loglinear_reproduction():
    _loglinear_case(
        builtin_pmf("example1"), TABLE3_ZERO_MEAN, TABLE3_CORNER, lambda v: v.cells[0] == 0
    )
    _loglinear_case(
        builtin_pmf("raters"), TABLE10_ZERO_MEAN, TABLE10_CORNER, lambda v: v.cells[5] == 0
    )
    _report(8, "published log-linear rows: zero-mean within 5e-3, corner within "
               "5e-2 (log-eps-scale entries by sign and magnitude), sign "
               "structure exact")


def test_criterion_09_property_suite():
    cases = 200
    dims = (2, 3, 4)

    rng = random.Random(90_001)
    for trial in range(cases):  # complement map preserves margins and moments
        p = random_uniform_margin_pmf(rng, dims[trial % 3])
        mirrored = reflect(p)
        for i in range(1, p.d + 1):
            assert univariate_margin(p, i) == (F(1, 2), F(1, 2))
            assert univariate_margin(mirrored, i) == (F(1, 2), F(1, 2))
            for j in range(i + 1, p.d + 1):
                assert second_order_moment(mirrored, i, j) == second_order_moment(p, i, j)

    rng = random.Random(90_002)
    schedule = [2] * 85 + [3] * 85 + [4] * 30
    for d in schedule:  # vertex sets are closed under the complement map
        p = random_rational_pmf(rng, d, positive=True)
        V = enumerate_vertices(build_H(targets_from_pmf(p, digits=2)))
        cells = {v.cells for v in V.vertices}
        assert {tuple(reversed(c)) for c in cells} == cells

    rng = random.Random(90_003)
    for trial in range(cases):  # zero-mean coefficients flip sign on odd orders
        p = random_rational_pmf(rng, dims[trial % 3], positive=True)
        a = zero_mean_params(p, eps=0.0)
        b = zero_mean_params(reflect(p), eps=0.0)
        for subset, coeff in a.coefficients.items():
            assert abs(b.coefficients[subset] - (-1) ** len(subset) * coeff) < 1e-9

    rng = random.Random(90_004)
    for _ in range(cases):  # d=2 uniform margins: correlation = 4*p11 - 1
        t = F(rng.randint(1, 999), 2000)
        p = Pmf.from_cells([t, F(1, 2) - t, F(1, 2) - t, t])
        assert correlation(p, 1, 2) == 4 * t - 1

    rng = random.Random(90_005)
    for _ in range(cases):  # double description vs support enumeration, d=3
        p = random_rational_pmf(rng, 3, positive=True)
        H = build_H(targets_from_pmf(p, digits=2))
        assert {v.cells for v in enumerate_vertices(H).vertices} == brute_force_vertices(H)

    _report(9, "randomized properties (200 cases each): complement symmetry of "
               "tables and vertex sets, zero-mean sign flip, d=2 correlation "
               "identity, enumeration vs brute force")


def test_criterion_10_baseline_contrast():
    for name, digits in (("example1", 3), ("raters", 6)):
        targets = targets_from_pmf(builtin_pmf(name), digits=digits)
        report = ipf_max_entropy(targets, tol=1e-12)
        assert report.converged and report.final_residual < 1e-10
        V = enumerate_vertices(build_H(targets))
        weights = decompose(report.table, V, tol=1e-7)
        assert all(0 < t < 1 for t in weights.theta)
        assert abs(zero_mean_params(report.table, eps=0.0).coefficients[(1, 2, 3)]) < 1e-8
        assert abs(float(top_order_odds_ratio(report.table)) - 1.0) < 1e-6
    _report(10, "proportional fitting converges inside both segments with no "
                "three-way interaction (ratio 1 within 1e-6)")


def test_criterion_11_sampling():
    H = build_H(targets_from_pmf(builtin_pmf("example1"), digits=3))
    V = enumerate_vertices(H)
    n = 5000

    cfg = SamplerConfig(seed=1101, count=n)
    dirichlet = sample_dirichlet(V, cfg)
    for p in dirichlet:
        assert max(abs(r) for r in residual(H, p)) <= 1e-12
        assert min(p.cells) >= 0

    start = mixture(MixtureWeights((F(1, 2), F(1, 2))), V)
    walk_cfg = SamplerConfig(seed=1102, count=n, burn_in=500, thinning=10)
    walk = sample_hit_and_run(H, start, walk_cfg)
    for p in walk:
        assert max(abs(r) for r in residual(H, p)) <= 1e-10
        assert min(p.cells) >= 0

    v0 = np.array([float(c) for c in V.vertices[0].cells])
    v1 = np.array([float(c) for c in V.vertices[1].cells])
    axis = v1 - v0
    scale = axis @ axis
    coords = lambda draws: [float((np.array(p.cells) - v0) @ axis / scale) for p in draws]
    assert ks_2samp(coords(dirichlet), coords(walk)).statistic < 0.05

    def serialized(draws):
        return json.dumps([[c for c in p.cells] for p in draws])

    assert serialized(sample_dirichlet(V, cfg)) == serialized(dirichlet)
    assert serialized(sample_hit_and_run(H, start, walk_cfg)) == serialized(walk)
    _report(11, "all draws feasible, two-sampler KS < 0.05 at n=5000, fixed "
                "seeds reproduce byte-identical output")
