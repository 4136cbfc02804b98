"""Log-linear decompositions against the published coefficient tables, and
bit identity with the per-subset reference implementations."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from bintab import (
    DomainError,
    LogLinearParams,
    Pmf,
    build_H,
    corner_params,
    enumerate_vertices,
    reconstruct,
    reflect,
    targets_from_pmf,
    zero_mean_params,
)

F = Fraction

SUBSETS_D3 = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))

# Published coefficient rows for the uniform-margin extreme pmfs of the
# running example (eps = 1e-8), rounded to 2 decimals.  r1 is the endpoint
# with the empty 000 cell.
EXAMPLE1_ZERO_MEAN_R1 = (-4.25, 1.76, 1.85, 2.03, -2.17, -1.92, -1.75, 2.69)
EXAMPLE1_ZERO_MEAN_R2 = (-4.25, -1.76, -1.85, -2.03, -2.17, -1.92, -1.75, -2.69)
EXAMPLE1_CORNER_R1 = (-18.42, 17.06, 16.92, 16.78, -19.41, -18.42, -17.75, 21.49)
EXAMPLE1_CORNER_R2 = (-1.76, -0.72, -1.24, -2.10, 2.08, 3.07, 3.74, -21.49)

# Same for the rater-agreement case; r1 is the endpoint with empty 101/110
# cells.
RATERS_ZERO_MEAN_R1 = (-6.44, -3.65, -0.21, -0.21, 0.66, 0.66, 4.19, 4.14)
RATERS_ZERO_MEAN_R2 = (-6.44, 3.65, 0.21, 0.21, 0.66, 0.66, 4.19, -4.14)
RATERS_CORNER_R1 = (-0.99, -1.67, -1.85, -1.85, -13.91, -13.91, 0.19, 33.14)
RATERS_CORNER_R2 = (-0.84, -3.65, -17.58, -17.58, 19.23, 19.23, 33.34, -33.14)


def _coefficient_row(params):
    return tuple(params.coefficients[s] for s in SUBSETS_D3)


def _assert_corner_row(computed, reference):
    """Entries at the log-eps scale are checked in sign and magnitude only."""
    for got, ref in zip(computed, reference):
        if abs(ref) > 15:
            assert got * ref > 0
            assert abs(got) > 15
        else:
            assert got == pytest.approx(ref, abs=5e-2)


@pytest.fixture(scope="module")
def example1_extremes(example1):
    V = enumerate_vertices(build_H(targets_from_pmf(example1, digits=6)))
    r1 = next(v for v in V.vertices if v.cells[0] == 0)
    r2 = next(v for v in V.vertices if v.cells[0] != 0)
    return r1, r2


@pytest.fixture(scope="module")
def rater_extremes(raters):
    V = enumerate_vertices(build_H(targets_from_pmf(raters, digits=6)))
    r1 = next(v for v in V.vertices if v.cells[5] == 0)
    r2 = next(v for v in V.vertices if v.cells[5] != 0)
    return r1, r2


class TestZeroMean:
    def test_example1_published_rows(self, example1_extremes):
        r1, r2 = example1_extremes
        for vertex, reference in ((r1, EXAMPLE1_ZERO_MEAN_R1), (r2, EXAMPLE1_ZERO_MEAN_R2)):
            row = _coefficient_row(zero_mean_params(vertex, eps=1e-8))
            assert row == pytest.approx(reference, abs=5e-3)

    def test_raters_published_rows(self, rater_extremes):
        r1, r2 = rater_extremes
        for vertex, reference in ((r1, RATERS_ZERO_MEAN_R1), (r2, RATERS_ZERO_MEAN_R2)):
            row = _coefficient_row(zero_mean_params(vertex, eps=1e-8))
            assert row == pytest.approx(reference, abs=5e-3)

    def test_uniform_table(self):
        params = zero_mean_params(Pmf.uniform(3), eps=0.0)
        assert params.coefficients[()] == pytest.approx(-3 * math.log(2), abs=1e-12)
        for subset in SUBSETS_D3[1:]:
            assert params.coefficients[subset] == pytest.approx(0.0, abs=1e-12)

    def test_intercept_is_mean_log(self, example1):
        params = zero_mean_params(example1, eps=0.0)
        mean_log = math.fsum(math.log(float(c)) for c in example1.cells) / 8
        assert params.coefficients[()] == pytest.approx(mean_log, abs=1e-14)

    def test_zero_cell_without_smoothing_rejected(self, example1_extremes):
        with pytest.raises(DomainError):
            zero_mean_params(example1_extremes[0], eps=0.0)

    def test_complement_sign_flip(self, example1_extremes):
        r1, _ = example1_extremes
        a = zero_mean_params(r1, eps=1e-8)
        b = zero_mean_params(reflect(r1), eps=1e-8)
        for subset in SUBSETS_D3:
            assert b.coefficients[subset] == pytest.approx(
                (-1) ** len(subset) * a.coefficients[subset], abs=1e-9
            )


class TestCorner:
    def test_example1_published_rows(self, example1_extremes):
        r1, r2 = example1_extremes
        _assert_corner_row(_coefficient_row(corner_params(r1, eps=1e-8)), EXAMPLE1_CORNER_R1)
        _assert_corner_row(_coefficient_row(corner_params(r2, eps=1e-8)), EXAMPLE1_CORNER_R2)

    def test_raters_published_rows(self, rater_extremes):
        r1, r2 = rater_extremes
        _assert_corner_row(_coefficient_row(corner_params(r1, eps=1e-8)), RATERS_CORNER_R1)
        _assert_corner_row(_coefficient_row(corner_params(r2, eps=1e-8)), RATERS_CORNER_R2)

    def test_uniform_table(self):
        params = corner_params(Pmf.uniform(3), eps=0.0)
        assert params.coefficients[()] == pytest.approx(-3 * math.log(2), abs=1e-12)
        for subset in SUBSETS_D3[1:]:
            assert params.coefficients[subset] == pytest.approx(0.0, abs=1e-12)

    def test_no_complement_symmetry(self, example1_extremes):
        # unlike the zero-mean coding, corner coefficients change magnitude
        # under the complement map
        r1, _ = example1_extremes
        a = corner_params(r1, eps=1e-8)
        b = corner_params(reflect(r1), eps=1e-8)
        assert any(
            abs(abs(a.coefficients[s]) - abs(b.coefficients[s])) > 1.0 for s in SUBSETS_D3
        )


class TestReconstruct:
    def test_round_trip_zero_mean_smoothed(self, example1_extremes):
        r1, _ = example1_extremes
        eps = 1e-8
        rebuilt = reconstruct(zero_mean_params(r1, eps=eps))
        total = 1.0 + 8 * eps
        expected = [(float(c) + eps) / total for c in r1.cells]
        assert max(abs(a - b) for a, b in zip(rebuilt.cells, expected)) < 1e-10

    def test_round_trip_corner_unsmoothed(self, example1):
        rebuilt = reconstruct(corner_params(example1, eps=0.0))
        assert max(abs(float(a) - b) for a, b in zip(example1.cells, rebuilt.cells)) < 1e-10

    def test_parametrizations_reconstruct_same_table(self, example1):
        via_zero_mean = reconstruct(zero_mean_params(example1, eps=0.0))
        via_corner = reconstruct(corner_params(example1, eps=0.0))
        assert max(
            abs(a - b) for a, b in zip(via_zero_mean.cells, via_corner.cells)
        ) < 1e-12

    def test_uniform_fixed_point(self):
        rebuilt = reconstruct(zero_mean_params(Pmf.uniform(3), eps=0.0))
        assert rebuilt.cells == pytest.approx((0.125,) * 8, abs=1e-15)


class TestDomain:
    @pytest.mark.parametrize("view", [zero_mean_params, corner_params])
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_eps_rejected(self, example1, view, eps):
        with pytest.raises(DomainError, match="eps must be finite"):
            view(example1, eps=eps)

    @pytest.mark.parametrize("axes", [(1, 1), (0,), (4,), (1, 2, 2)])
    def test_coefficient_rejects_repeated_or_out_of_range_axes(self, example1, axes):
        params = zero_mean_params(example1, eps=0.0)
        with pytest.raises(DomainError, match=re.escape(str(axes))):
            params.coefficient(*axes)

    def test_coefficient_sorts_axes(self, example1):
        params = corner_params(example1, eps=0.0)
        assert params.coefficient(3, 1) == params.coefficients[(1, 3)]
        assert params.coefficient() == params.coefficients[()]

    def test_coefficients_keyed_by_the_axis_subsets(self):
        keys = [(), (1,), (2,), (2, 1)]
        with pytest.raises(DomainError, match="sorted axis subsets"):
            LogLinearParams(d=2, parametrization="corner", eps=0.0, coefficients=dict.fromkeys(keys, 0.0))

    @pytest.mark.parametrize("view", [zero_mean_params, corner_params])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_views_build_what_the_constructor_accepts(self, view, d):
        # the views skip the constructor's checks; what they build must pass them
        params = view(Pmf.uniform(d), eps=1e-3)
        rebuilt = LogLinearParams(
            d=params.d, parametrization=params.parametrization, eps=params.eps, coefficients=params.coefficients
        )
        assert params == rebuilt
        assert list(params.coefficients) == _reference_subsets(d)


# ---------------------------------------------------------------------------
# per-subset references: the log-linear views as first written, one
# character or Moebius term at a time; the table-driven views must
# reproduce their coefficients, key order and reconstructed cells bit for bit
# ---------------------------------------------------------------------------


def _reference_logs(p, eps):
    return [math.log(float(c) + eps) for c in p.cells]


def _reference_subsets(d):
    out = [()]
    for size in range(1, d + 1):
        out.extend(tuple(c) for c in combinations(range(1, d + 1), size))
    return out


def _reference_character(subset, offset, d):
    sign = 1
    for i in subset:
        if not (offset >> (d - i)) & 1:
            sign = -sign
    return sign


def reference_zero_mean(p, eps):
    logs = _reference_logs(p, eps)
    n = 2**p.d
    return {
        subset: math.fsum(_reference_character(subset, k, p.d) * logs[k] for k in range(n)) / n
        for subset in _reference_subsets(p.d)
    }


def reference_corner(p, eps):
    logs = _reference_logs(p, eps)
    d = p.d

    def log_at_ones(axes):
        offset = 0
        for i in axes:
            offset |= 1 << (d - i)
        return logs[offset]

    coeffs = {}
    for subset in _reference_subsets(d):
        total = 0.0
        for size in range(len(subset) + 1):
            for t in combinations(subset, size):
                total += (-1) ** (len(subset) - size) * log_at_ones(t)
        coeffs[subset] = total
    return coeffs


def reference_reconstruct(d, zero_mean, coefficients):
    n = 2**d
    logs = []
    for k in range(n):
        if zero_mean:
            logs.append(
                math.fsum(c * _reference_character(s, k, d) for s, c in coefficients.items())
            )
        else:
            ones = {i for i in range(1, d + 1) if (k >> (d - i)) & 1}
            logs.append(math.fsum(c for s, c in coefficients.items() if set(s) <= ones))
    cells = [math.exp(v) for v in logs]
    total = math.fsum(cells)
    return tuple(c / total for c in cells)


def _bits(values):
    """Float bit patterns: ``==`` that also tells -0.0 from 0.0."""
    return [v.hex() for v in values]


def _assert_matches_reference(p, eps):
    for view, reference, zero_mean in (
        (zero_mean_params, reference_zero_mean, True),
        (corner_params, reference_corner, False),
    ):
        params = view(p, eps=eps)
        expected = reference(p, eps)
        assert list(params.coefficients) == list(expected)
        assert _bits(params.coefficients.values()) == _bits(expected.values())
        rebuilt = reconstruct(params).cells
        assert _bits(rebuilt) == _bits(reference_reconstruct(p.d, zero_mean, expected))


def _random_table(rng, d, mode, positive):
    """Weights over ten orders of magnitude, with empty cells unless ``positive``."""
    weights = [rng.randint(1, 10 ** rng.randint(0, 10)) for _ in range(2**d)]
    if not positive:
        for k in rng.sample(range(2**d), rng.randint(1, 2**d // 2)):
            weights[k] = 0
    total = sum(weights)
    if mode == "float":
        return Pmf.from_cells([w / total for w in weights], mode="float")
    return Pmf.from_cells([F(w, total) for w in weights])


class TestReferenceBitIdentity:
    @pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-3])
    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("d", range(2, 8))
    def test_random_tables(self, d, mode, eps):
        rng = random.Random(f"{d}-{mode}-{eps}")
        for _ in range(4):
            _assert_matches_reference(_random_table(rng, d, mode, positive=eps == 0.0), eps)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_tables(self, d):
        # every coefficient but the intercept cancels to an exact zero
        _assert_matches_reference(Pmf.uniform(d), 0.0)
        _assert_matches_reference(Pmf.uniform(d, mode="float"), 0.0)

    @pytest.mark.parametrize("eps", [1e-8, 1e-3])
    def test_water_vertices(self, water, eps):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=3)))
        assert len(V.vertices) == 96
        for vertex in V.vertices:
            _assert_matches_reference(vertex, eps)

    def test_published_extremes(self, example1_extremes, rater_extremes):
        for vertex in example1_extremes + rater_extremes:
            _assert_matches_reference(vertex, 1e-8)
