"""Vertex enumeration, mixtures, and decomposition."""

import functools
import itertools
import json
import logging
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import nnls

from bintab import (
    ConstraintMatrix,
    DomainError,
    EmptyFeasibleSetError,
    MarginTargets,
    MixtureWeights,
    NotInPolytopeError,
    Pmf,
    SamplerConfig,
    build_H,
    decompose,
    enumerate_vertices,
    ipf_max_entropy,
    mixture,
    polytope_dimension,
    sample_dirichlet,
    satisfies,
    targets_from_pmf,
    top_order_odds_ratio,
)
from bintab import _linalg, geometry
from bintab.geometry import _extreme_rays
from bintab.io import vertexset_from_json, vertexset_to_json_dict
from conftest import (
    EXAMPLE1_VERTEX_A,
    EXAMPLE1_VERTEX_B,
    MOD19_COUNTS,
    brute_force_vertices,
    d5_margin_H,
    generic_targets,
    random_rational_pmf,
    random_targets,
    reference_affine_rank,
    reference_axis_mass,
    reference_centred_moment,
    reference_rank,
    reference_second_order_uniform,
)

F = Fraction


def primitive(vec):
    """``vec`` divided by the gcd of its entries, in plain Python ints."""
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    return tuple(v // g for v in vec)


def reference_rays(H):
    """Double description with the pairwise Python scan of integer support masks.

    Same scan order as ``enumerate_vertices``, with the adjacency filter
    written as a plain loop: the reference for the vectorized filter.
    Every pair the combinatorial test accepts must also pass the algebraic
    rank test, which the package no longer runs; that is asserted here.
    So is the absence of duplicates, which lets the package skip a dedupe:
    a new ray lies inside the 2-face of exactly one split pair, so no other
    pair and no ray already on the hyperplane can produce it.
    Returns the rays in vertex order and the label of the row that emptied
    the cone (None when it did not).
    """
    n = H.n_cols
    rays = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    processed = []
    for label, rational in zip(H.labels, H.rows):
        lcm = math.lcm(*(v.denominator for v in rational))
        h = primitive([v.numerator * (lcm // v.denominator) for v in rational])
        masks = [sum(1 << c for c, v in enumerate(r) if v) for r in rays]
        vals = [sum(a * b for a, b in zip(h, r)) for r in rays]
        new_rays = [r for r, v in zip(rays, vals) if v == 0]
        seen = set(new_rays)
        for ip in (i for i, v in enumerate(vals) if v > 0):
            for im in (i for i, v in enumerate(vals) if v < 0):
                union = masks[ip] | masks[im]
                if any(k not in (ip, im) and m & ~union == 0 for k, m in enumerate(masks)):
                    continue
                cols = [c for c in range(n) if union >> c & 1]
                assert reference_rank([[row[c] for c in cols] for row in processed]) == len(cols) - 2, (
                    f"row {label}: a combinatorially adjacent pair fails the rank test"
                )
                ray = primitive([vals[ip] * b - vals[im] * a for a, b in zip(rays[ip], rays[im])])
                assert ray not in seen, f"row {label}: an adjacent pair repeats a ray"
                seen.add(ray)
                new_rays.append(ray)
        rays = new_rays
        processed.append(h)
        if not rays:
            return (), label
    return tuple(sorted(rays, key=lambda r: [F(v, sum(r)) for v in r], reverse=True)), None


@pytest.fixture(scope="module")
def example1_vertices(example1_H3):
    return enumerate_vertices(example1_H3)


class TestExtremeRays:
    def test_example1_exact_segment_endpoints(self, example1_vertices):
        cells = {v.cells for v in example1_vertices.vertices}
        assert cells == {EXAMPLE1_VERTEX_A, EXAMPLE1_VERTEX_B}

    def test_d2_independence_single_ray(self):
        targets = MarginTargets.uniform(2, {(1, 2): F(1, 4)})
        V = enumerate_vertices(build_H(targets))
        assert [v.cells for v in V.vertices] == [(F(1, 4),) * 4]

    def test_d2_general_single_point(self):
        targets = MarginTargets.uniform(2, {(1, 2): F(3, 10)})
        V = enumerate_vertices(build_H(targets))
        assert len(V) == 1
        assert V.vertices[0].cells == (F(3, 10), F(1, 5), F(1, 5), F(3, 10))

    def test_empty_cone_is_a_value_with_certificate(self):
        # pairwise Frechet-feasible moments that are jointly infeasible:
        # three events of mass 1/2 cannot be pairwise disjoint
        targets = MarginTargets.uniform(
            3, {(1, 2): F(1, 10), (1, 3): F(1, 10), (2, 3): F(1, 10)}
        )
        V = enumerate_vertices(build_H(targets))
        assert V.vertices == ()
        assert V.empty_certificate is not None

    def test_water_count(self, water):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=3)))
        assert len(V) == 96

    def test_d4_degenerate_system_stays_reflect_closed(self):
        # regression: a rank shortcut in the integer elimination used by the
        # adjacency test silently dropped 21 of these 88 rays
        weights = [14, 17, 6, 5, 16, 4, 17, 2, 18, 10, 7, 15, 6, 3, 8, 4]
        p = Pmf.from_cells([F(w, sum(weights)) for w in weights])
        V = enumerate_vertices(build_H(targets_from_pmf(p, digits=2)))
        cells = {v.cells for v in V.vertices}
        assert len(cells) == 88
        assert {tuple(reversed(c)) for c in cells} == cells

    def test_matches_pairwise_scan_reference(self, water):
        # water, the 88-ray system of test_d4_degenerate_system_stays_reflect_closed,
        # seeded random systems and the empty system of test_empty_cone_is_a_value_with_certificate
        weights = [14, 17, 6, 5, 16, 4, 17, 2, 18, 10, 7, 15, 6, 3, 8, 4]
        degenerate = Pmf.from_cells([F(w, sum(weights)) for w in weights])
        # water at digits 9 and 15 has ray entries up to 5.9e8 and 5.9e14, past the int64 bound;
        # at digits 20 the lcm of its ray sums, which bounds the sort keys, is past it too
        systems = [
            build_H(targets_from_pmf(p, digits=g))
            for p, g in ((water, 3), (water, 9), (water, 15), (water, 20), (degenerate, 2))
        ]
        rng = random.Random(2718)
        # the d=4 observed-margin reference takes ~2 s, so it runs once
        for d, margins, digits in [
            (3, "uniform", 1), (3, "uniform", 2), (3, "observed", 1), (3, "observed", 2),
            (3, "uniform", 2), (3, "observed", 1),
            (4, "uniform", 1), (4, "uniform", 2), (4, "uniform", 2), (4, "observed", 1),
        ]:
            p = random_rational_pmf(rng, d, positive=True)
            systems.append(build_H(targets_from_pmf(p, digits=digits, margins=margins)))
        systems.append(
            build_H(MarginTargets.uniform(3, {(1, 2): F(1, 10), (1, 3): F(1, 10), (2, 3): F(1, 10)}))
        )
        for H in systems:
            rays, certificate = reference_rays(H)
            V = enumerate_vertices(H)
            assert [v.cells for v in V.vertices] == [tuple(F(v, sum(r)) for v in r) for r in rays]
            assert V.empty_certificate == certificate

    def test_hand_built_d1_system_rejected(self, example1_H3):
        # targets have d >= 2, and an H must have the d of its targets
        with pytest.raises(DomainError, match="targets of d=3 for a d=1 system"):
            ConstraintMatrix(d=1, rows=((F(1), F(-1)),), labels=example1_H3.labels[:1], targets=example1_H3.targets)

    def test_masks_wider_than_one_word(self, example1_H3):
        # d=7 has 128 cells, two mask words; the d=3 system sits on cells
        # 60..67, across the word boundary, and every other cell is free
        offset = 60
        rows = tuple(
            tuple(row[c - offset] if offset <= c < offset + 8 else F(0) for c in range(128))
            for row in example1_H3.rows
        )
        targets7 = MarginTargets.uniform(7, {(i, j): F(1, 4) for i in range(1, 8) for j in range(i + 1, 8)})
        H7 = ConstraintMatrix(d=7, rows=rows, labels=example1_H3.labels, targets=targets7)
        embedded = {
            tuple(ray[c - offset] if offset <= c < offset + 8 else 0 for c in range(128))
            for ray in _extreme_rays(example1_H3)[0].tolist()
        }
        units = {
            tuple(int(c == j) for c in range(128)) for j in range(128) if not offset <= j < offset + 8
        }
        rays, _ = _extreme_rays(H7)
        assert len(rays) == len(embedded) + 120
        assert set(map(tuple, rays.tolist())) == embedded | units

    def test_d5_margin_polytope(self):
        H = d5_margin_H()
        V = enumerate_vertices(H)
        assert len(V) == 2712
        cells = {v.cells for v in V.vertices}
        assert {tuple(reversed(c)) for c in cells} == cells
        rank = reference_rank(H.rows)
        assert all(v.support_size() <= rank + 1 for v in V.vertices)

    def test_row_trace_is_logged(self, water, caplog):
        H = build_H(targets_from_pmf(water, digits=3))
        with caplog.at_level(logging.DEBUG, logger="bintab.geometry"):
            enumerate_vertices(H)
        rows = [r.args for r in caplog.records if r.name == "bintab.geometry"]
        assert [r["row"] for r in rows] == list(H.labels)
        # the trajectory of the pairwise scan, count for count
        assert [r["rays_out"] for r in rows] == [64, 32, 48, 48, 200, 256, 196, 192, 128, 96]
        assert [r["candidate_pairs"] for r in rows] == [64, 256, 64, 196, 476, 9964, 8640, 8160, 9072, 4080]
        assert [r["popcount_pairs"] for r in rows] == [64, 0, 64, 32, 200, 304, 196, 192, 128, 96]
        assert [r["subset_pairs"] for r in rows] == [64, 0, 32, 28, 200, 256, 196, 192, 128, 96]
        for prev, r in zip([{"rays_out": 16}] + rows, rows):
            assert r["rays_in"] == prev["rays_out"]
            assert r["candidate_pairs"] >= r["popcount_pairs"] >= r["subset_pairs"]

    def test_insertion_order_irrelevant(self, example1_H3):
        base = {v.cells for v in enumerate_vertices(example1_H3).vertices}
        rng = random.Random(7)
        order = list(range(len(example1_H3.rows)))
        for _ in range(5):
            rng.shuffle(order)
            permuted = ConstraintMatrix(
                d=example1_H3.d,
                rows=tuple(example1_H3.rows[i] for i in order),
                labels=tuple(example1_H3.labels[i] for i in order),
                targets=example1_H3.targets,
            )
            assert {v.cells for v in enumerate_vertices(permuted).vertices} == base


def support_int(row):
    """The support of ``row`` as a Python int: bit c is set when cell c is nonzero."""
    return sum(1 << c for c, v in enumerate(row) if v)


def reference_adjacent_pairs(supports, pos, neg, inserted):
    """The pos-major, neg-minor scan of ``_adjacent_pairs`` on Python-int supports.

    Returns the pairs with exactly two supports inside their union, and how
    many pairs have a union of at most ``inserted + 2`` cells.
    """
    pairs, within = [], 0
    for i in pos:
        for j in neg:
            union = supports[i] | supports[j]
            if bin(union).count("1") > inserted + 2:
                continue
            within += 1
            if sum(s & ~union == 0 for s in supports) == 2:
                pairs.append((i, j))
    return pairs, within


def random_supports(rng, n, count):
    """``count`` nonzero rows of n cells: up to 12 unit vectors, then rows at a sparse, a medium and a dense fill."""
    R = np.zeros((count, n), dtype=np.int64)
    for r in range(count):
        fill = (0.05, 0.5, 0.97)[r % 3]
        R[r] = [rng.randint(1, 9) if rng.random() < fill else 0 for _ in range(n)]
        R[r, rng.randrange(n)] = rng.randint(1, 9)
    units = rng.sample(range(n), min(n, 12))
    R[: len(units)] = np.eye(n, dtype=np.int64)[units]
    return R


class TestMaskKernel:
    WIDTHS = {2: np.uint8, 3: np.uint8, 4: np.uint16, 5: np.uint32, 6: np.uint64, 7: np.uint64, 8: np.uint64}

    @pytest.mark.parametrize("d", range(2, 9))
    def test_mask_words_are_the_narrowest_word(self, d):
        n = 2**d
        rng = random.Random(d)
        R = random_supports(rng, n, 24)
        for rays in (R, R.astype(object), R[:0]):
            masks = geometry._mask_words(rays)
            assert masks.dtype == self.WIDTHS[d]
            assert masks.shape == (len(rays), max(1, n // 64))
            bits = 8 * masks.itemsize
            assert [sum(int(w) << (bits * k) for k, w in enumerate(row)) for row in masks.tolist()] == [
                support_int(row) for row in rays.tolist()
            ]

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256])
    def test_adjacent_pairs_match_python_int_scan(self, monkeypatch, n):
        rng = random.Random(n)
        R = random_supports(rng, n, min(45, 2 * n))
        supports = [support_int(row) for row in R.tolist()]
        order = rng.sample(range(len(R)), len(R))
        split = 4 * len(R) // 9
        pos, neg = np.array(order[:split]), np.array(order[split : 2 * split])
        masks = geometry._mask_words(R)
        # up to every pair within the bound; at n=256 unions of 256 cells pass at
        # inserted 254 and fail at 250, where a uint8 popcount would wrap to 0 and pass
        adjacent = []
        for inserted in sorted({0, 3, n // 4, n // 2, n - 6, n - 2}):
            pairs, within = reference_adjacent_pairs(supports, pos.tolist(), neg.tolist(), inserted)
            expected = ([i for i, _ in pairs], [j for _, j in pairs], within)
            a, b, count = geometry._adjacent_pairs(masks, pos, neg, inserted)
            assert (a.tolist(), b.tolist(), count) == expected
            # blocks of 2 positive rays and chunks of one pair return the same pairs in order
            with monkeypatch.context() as m:
                m.setattr(geometry, "_SUBSET_BLOCK_BYTES", 2 * masks.itemsize * len(neg))
                a, b, count = geometry._adjacent_pairs(masks, pos, neg, inserted)
            assert (a.tolist(), b.tolist(), count) == expected
            adjacent.append(len(pairs))
        assert within == len(pos) * len(neg)
        # every bound but the tightest keeps an adjacent pair, so the subset count decides some pairs
        assert min(adjacent[1:]) > 0


def mask_systems():
    """Systems for the mask invariant, by id: water, pool tables, a d=5 prefix and a Python-int system."""
    d5 = build_H(MarginTargets.uniform(5, {(i, j): F(3, 10) for i in range(1, 6) for j in range(i + 1, 6)}))
    return {
        "water": lambda fx: build_H(targets_from_pmf(fx("water"), digits=3)),
        "pool-uniform": lambda fx: build_H(targets_from_pmf(fx("pool_pmfs")[0], digits=2)),
        "pool-observed": lambda fx: build_H(targets_from_pmf(fx("pool_pmfs")[1], digits=3, margins="observed")),
        # the five margin rows and the first two moment rows of equicorrelated d=5
        "d5-prefix": lambda fx: prefix_H(d5, 7),
        # digits 20 puts the rays past the int64 bound
        "water-digits-20": lambda fx: build_H(targets_from_pmf(fx("water"), digits=20)),
    }


class TestRowMasks:
    @pytest.mark.parametrize("name", list(mask_systems()))
    def test_returned_masks_are_the_ray_supports(self, request, name):
        # a new ray's mask is the union of its pair's masks: after every row it equals the support of the ray
        H = mask_systems()[name](request.getfixturevalue)
        R = np.eye(H.n_cols, dtype=np.int64)
        masks = geometry._mask_words(R)
        dtypes = set()
        for inserted, h in enumerate(H.int_rows):
            R, masks, counts = geometry._insert_equality(R, masks, inserted, h)
            expected = geometry._mask_words(R)
            assert masks.dtype == expected.dtype and masks.shape == expected.shape
            assert (masks == expected).all()
            dtypes.add(R.dtype)
        assert len(R) and counts["subset_pairs"] > 0
        # the margin rows keep the rays int64; at digits 20 the moment rows take them to Python ints
        assert dtypes == ({np.dtype(np.int64), np.dtype(object)} if name == "water-digits-20" else {np.dtype(np.int64)})


def prefix_H(H, k):
    """The first ``k`` rows of H as a hand-built system."""
    return ConstraintMatrix(d=H.d, rows=H.rows[:k], labels=H.labels[:k], targets=H.targets)


def reordered_H(H, order):
    """H with its rows in the given order."""
    return ConstraintMatrix(
        d=H.d, rows=tuple(H.rows[i] for i in order), labels=tuple(H.labels[i] for i in order), targets=H.targets
    )


def logged_rays(H, caplog):
    """``_extreme_rays(H)`` and the mapping arguments of the row records it logs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="bintab.geometry"):
        rays, certificate = _extreme_rays(H)
    return rays, certificate, [r.args for r in caplog.records if r.name == "bintab.geometry"]


def margin_cone_systems():
    """Systems whose leading margin rows hit or miss the shared margin cone, by id."""
    rng = random.Random(2201)

    def system(d, margins, digits=1):
        return build_H(targets_from_pmf(random_rational_pmf(rng, d, positive=True), digits=digits, margins=margins))

    d4 = system(4, "uniform", 2)
    return {
        "d3-uniform": system(3, "uniform"),
        "d3-observed": system(3, "observed"),
        "d4-uniform": d4,
        "d4-observed": system(4, "observed"),
        # the d=5 moment rows take up to seconds each, and observed margins leave more rays for them
        "d5-uniform": prefix_H(system(5, "uniform"), 6),
        "d5-observed": prefix_H(system(5, "observed"), 5),
        "d5-margin": d5_margin_H(),
        "no-leading-margin": reordered_H(d4, list(reversed(range(10)))),
        "moment-between-margins": reordered_H(d4, [0, 1, 4, 2, 3, 5, 6, 7, 8, 9]),
        "empty": build_H(MarginTargets.uniform(3, {(1, 2): F(1, 10), (1, 3): F(1, 10), (2, 3): F(1, 10)})),
    }


class TestMarginCone:
    @pytest.mark.parametrize("name", list(margin_cone_systems()))
    def test_warm_cold_and_scratch_agree(self, name, caplog):
        H = margin_cone_systems()[name]
        geometry._margin_cone.cache_clear()
        cold = logged_rays(H, caplog)
        warm = logged_rays(H, caplog)
        assert geometry._margin_cone.cache_info().hits == 1
        # every row from the orthant, with no cached cone
        R = np.eye(H.n_cols, dtype=np.int64)
        records = []
        R, _, certificate = geometry._insert_rows(R, geometry._mask_words(R), 0, H.labels, H.int_rows, records.append)
        for rays, emptied, logged in (cold, warm):
            assert rays.dtype == R.dtype
            assert rays.tolist() == R.tolist()
            assert emptied == certificate
            assert logged == records
        assert [r["row"] for r in records] == list(H.labels[: len(records)])
        assert (certificate is None) == (name != "empty")

    def test_cached_arrays_are_read_only(self):
        H = d5_margin_H()
        rays, _ = _extreme_rays(H)
        cone = geometry._margin_cone(H.n_cols, H.labels, tuple(map(tuple, H.int_rows.tolist())), _linalg._INT64_BOUND)
        assert rays is cone.R
        for array in (cone.R, cone.masks):
            with pytest.raises(ValueError):
                array[0, 0] = 1

    def test_second_uniform_system_inserts_only_its_moment_rows(self, monkeypatch, pool_pmfs):
        inserted = []
        original = geometry._insert_equality

        def counting(R, masks, k, h):
            inserted.append(k)
            return original(R, masks, k, h)

        monkeypatch.setattr(geometry, "_insert_equality", counting)
        first, second = (build_H(targets_from_pmf(p, digits=2)) for p in pool_pmfs[:2])
        assert first.int_rows[:4].tolist() == second.int_rows[:4].tolist()
        enumerate_vertices(first)
        inserted.clear()
        V = enumerate_vertices(second)
        assert inserted == [4, 5, 6, 7, 8, 9]
        assert [v.cells for v in V.vertices] == [tuple(F(v, sum(r)) for v in r) for r in reference_rays(second)[0]]


class TestIntegerPaths:
    @pytest.mark.parametrize(
        "system, count",
        [
            pytest.param("water", 96, id="water"),
            pytest.param("example1", 2, id="example1"),
            pytest.param("equicorrelated_d4", 35, id="equicorrelated_d4"),
            pytest.param("d5_margin", 2712, id="d5_margin"),
        ],
    )
    def test_python_ints_match_int64(self, request, monkeypatch, system, count):
        if system == "equicorrelated_d4":
            moments = {(i, j): F(3, 10) for i in range(1, 5) for j in range(i + 1, 5)}
            H = build_H(MarginTargets.uniform(4, moments))
        elif system == "d5_margin":
            H = d5_margin_H()
        else:
            H = build_H(targets_from_pmf(request.getfixturevalue(system), digits=3))
        assert _extreme_rays(H)[0].dtype == np.int64
        fast = enumerate_vertices(H)
        # every bound here is at least 1, so every ray and key operation runs on Python ints
        monkeypatch.setattr(_linalg, "_INT64_BOUND", 1)
        assert _extreme_rays(H)[0].dtype == object
        slow = enumerate_vertices(H)
        assert len(slow) == count
        assert [v.cells for v in slow.vertices] == [v.cells for v in fast.vertices]
        for V in (fast, slow):
            assert all(
                type(c) is F and type(c.numerator) is int and type(c.denominator) is int
                for v in V.vertices
                for c in v.cells
            )
        assert polytope_dimension(H) == fast.dimension


class TestVertexMatrix:
    @pytest.mark.parametrize("digits, dtype", [(3, np.int64), (20, object)], ids=["int64", "python-ints"])
    def test_float_matrix_is_float_cells(self, water, digits, dtype):
        # at digits 20 the scale L has 70 bits, past the int64 bound
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=digits)))
        assert V.keys.dtype == dtype
        expected = np.array([[c.numerator / c.denominator for c in v.cells] for v in V.vertices])
        assert V.float_matrix.tobytes() == expected.tobytes()
        assert [v.cells for v in V.vertices] == [tuple(F(k, V.scale) for k in row) for row in V.keys.tolist()]

    def test_vertices_built_once_only_when_read(self, water):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=3)))
        assert V.dimension == 5
        theta = MixtureWeights(tuple(F(int(j in (3, 40)), 2) for j in range(len(V))))
        decompose(mixture(theta, V), V)
        mixture(MixtureWeights((1.0 / len(V),) * len(V)), V)
        sample_dirichlet(V, SamplerConfig(seed=1, count=3))
        assert "vertices" not in V.__dict__
        assert V.vertices is V.vertices

    @pytest.mark.parametrize("digits", [3, 20])
    def test_exact_mixture_is_the_fraction_sum(self, water, digits):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=digits)))
        rng = random.Random(digits)
        for _ in range(5):
            raw = [F(rng.randrange(4), rng.randrange(1, 10**rng.randrange(1, 12))) for _ in range(len(V))]
            theta = tuple(t / sum(raw) for t in raw)
            expected = tuple(sum((t * v.cells[k] for t, v in zip(theta, V.vertices)), F(0)) for k in range(16))
            assert mixture(MixtureWeights(theta), V).cells == expected

    def test_vertex_file_keeps_its_order(self, water):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=3)))
        payload = vertexset_to_json_dict(V)
        payload["vertices"].reverse()
        loaded = vertexset_from_json(json.dumps(payload))
        assert [v.cells for v in loaded.vertices] == [v.cells for v in reversed(V.vertices)]
        assert (loaded.keys.dtype, loaded.scale) == (V.keys.dtype, V.scale)
        assert loaded.dimension == V.dimension

    def test_d5_vertex_file_round_trips(self):
        # 10,146 vertices of equicorrelated mu = 2/5 through the writer and the reader, in order and reversed.
        # (The margin polytope itself has no vertex file: the file's targets rebuild the moment rows.)
        moments = {(i, j): F(2, 5) for i in range(1, 6) for j in range(i + 1, 6)}
        V = enumerate_vertices(build_H(MarginTargets.uniform(5, moments)))
        assert len(V) == 10146
        payload = vertexset_to_json_dict(V)
        loaded = vertexset_from_json(json.dumps(payload))
        assert (loaded.keys.dtype, loaded.scale) == (V.keys.dtype, V.scale)
        assert loaded.keys.tolist() == V.keys.tolist()
        assert [v.cells for v in loaded.vertices[:50]] == [v.cells for v in V.vertices[:50]]
        payload["vertices"].reverse()
        assert vertexset_from_json(json.dumps(payload)).keys.tolist() == V.keys.tolist()[::-1]

    @pytest.mark.parametrize("digits", [3, 20])
    def test_shared_arrays_are_read_only(self, water, digits):
        # a write would corrupt the later .vertices, decompose and sample_dirichlet
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=digits)))
        loaded = vertexset_from_json(json.dumps(vertexset_to_json_dict(V)))
        H = V.constraints
        for array in (V.keys, V.float_matrix, loaded.keys, loaded.float_matrix, H.int_rows, H.kernel_chart):
            with pytest.raises(ValueError):
                array[0, 0] = 1
        assert V.vertices[0].cells == tuple(F(k, V.scale) for k in V.keys[0].tolist())


class TestVertexInvariants:
    def test_kernel_membership_exact(self, example1_H3, example1_vertices):
        for v in example1_vertices.vertices:
            assert satisfies(example1_H3, v, 0)
            assert sum(v.cells) == 1
            assert all(c >= 0 for c in v.cells)

    def test_support_bound(self, water):
        H = build_H(targets_from_pmf(water, digits=3))
        rank = reference_rank(H.rows)
        for v in enumerate_vertices(H).vertices:
            assert v.support_size() <= rank + 1

    def test_reflect_closure_uniform_targets(self, water):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=3)))
        cells = {v.cells for v in V.vertices}
        assert {tuple(reversed(c)) for c in cells} == cells

    def test_observed_margin_vertices(self, example1):
        # the observed-margin variant is NOT closed under reflection
        H = build_H(targets_from_pmf(example1, digits=3, margins="observed"))
        V = enumerate_vertices(H)
        expected = {
            tuple(F(v, 1000) for v in (50, 100, 350, 150, 150, 0, 100, 100)),
            tuple(F(v, 1000) for v in (150, 0, 250, 250, 50, 100, 200, 0)),
        }
        assert {v.cells for v in V.vertices} == expected
        assert {tuple(reversed(v.cells)) for v in V.vertices} != expected

    def test_minimality_no_vertex_redundant(self, example1_vertices):
        V = example1_vertices
        reduced = type(V)(keys=V.keys[1:], scale=V.scale, constraints=V.constraints)
        with pytest.raises(NotInPolytopeError):
            decompose(V.vertices[0], reduced, tol=1e-9)


class TestBruteForceOracle:
    def test_example1_matches(self, example1_H3, example1_vertices):
        assert brute_force_vertices(example1_H3) == {
            v.cells for v in example1_vertices.vertices
        }

    def test_random_d3_systems(self):
        rng = random.Random(31415)
        for _ in range(10):
            H = build_H(random_targets(rng, 3, digits=2))
            assert brute_force_vertices(H) == {
                v.cells for v in enumerate_vertices(H).vertices
            }


class TestPolytopeDimension:
    def test_segment(self, example1_H3):
        assert polytope_dimension(example1_H3) == 1

    def test_point(self):
        targets = MarginTargets.uniform(2, {(1, 2): F(1, 4)})
        assert polytope_dimension(build_H(targets)) == 0

    def test_water_dimension(self, water):
        assert polytope_dimension(build_H(targets_from_pmf(water, digits=3))) == 5

    @pytest.mark.parametrize(
        "system, expected",
        [
            pytest.param("water", 5, id="water"),
            pytest.param("example1", 1, id="example1"),
            pytest.param("degenerate_d3", 0, id="degenerate_d3"),
        ],
    )
    def test_matches_vertex_affine_rank(self, request, system, expected):
        if system == "degenerate_d3":
            # mu12 = 1/2 forces X1 = X2, so no feasible table has full support
            # and 2^d - 1 - rank(H) overstates the dimension; the polytope is
            # a single vertex
            targets = MarginTargets.uniform(
                3, {(1, 2): F(1, 2), (1, 3): F(1, 4), (2, 3): F(1, 4)}
            )
        else:
            targets = targets_from_pmf(request.getfixturevalue(system), digits=3)
        H = build_H(targets)
        V = enumerate_vertices(H)
        assert polytope_dimension(H) == reference_affine_rank([v.cells for v in V.vertices]) == expected
        assert V.dimension == expected

    def test_empty_raises(self):
        targets = MarginTargets.uniform(
            3, {(1, 2): F(1, 10), (1, 3): F(1, 10), (2, 3): F(1, 10)}
        )
        for query in (lambda: polytope_dimension(build_H(targets)), lambda: ipf_max_entropy(targets)):
            with pytest.raises(EmptyFeasibleSetError) as excinfo:
                query()
            assert excinfo.value.certificate is not None
        assert enumerate_vertices(build_H(targets)).dimension == -1


@pytest.fixture
def no_ray_pass(monkeypatch):
    """Make every double-description ray pass fail the test."""

    def forbidden(H):
        raise AssertionError("ray pass run")

    # every ray pass goes through geometry: ipf holds no reference to it
    monkeypatch.setattr(geometry, "_extreme_rays", forbidden)


#: mu12 = 1/2 forces X1 = X2: a single-vertex polytope with no full-support point
DEGENERATE_D3 = MarginTargets.uniform(3, {(1, 2): F(1, 2), (1, 3): F(1, 4), (2, 3): F(1, 4)})


class TestInteriorCertificate:
    @pytest.mark.parametrize("system, dimension", [("water", 5), ("generic_d5", 16)])
    def test_zero_ray_passes(self, request, no_ray_pass, system, dimension):
        if system == "water":
            targets = targets_from_pmf(request.getfixturevalue("water"), digits=3)
        else:
            targets = generic_targets(5)
        assert polytope_dimension(build_H(targets)) == dimension
        assert ipf_max_entropy(targets).converged

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_generic_dimension_is_corank(self, no_ray_pass, d):
        H = build_H(generic_targets(d))
        assert polytope_dimension(H) == 2**d - 1 - reference_rank(H.rows)

    def test_margin_only_d5(self, no_ray_pass):
        assert polytope_dimension(d5_margin_H()) == 26

    def test_random_d3_systems_match_oracle(self, no_ray_pass):
        rng = random.Random(2718)
        for _ in range(12):
            H = build_H(random_targets(rng, 3, digits=2))
            expected = reference_affine_rank(sorted(brute_force_vertices(H)))
            # targets of a positive table: every one of these certifies
            y, dimension = geometry._relative_interior(H)
            assert all(v > 0 for v in y)
            assert 7 - reference_rank(H.rows) == dimension == polytope_dimension(H) == expected

    @pytest.mark.parametrize("system, d, dimension", [("mod19", 5, 16), ("pool1", 4, 5)])
    def test_observed_margin_systems_certify(self, pool_pmfs, no_ray_pass, system, d, dimension):
        p = Pmf.from_counts(MOD19_COUNTS) if system == "mod19" else pool_pmfs[1]
        targets = targets_from_pmf(p, digits=3, margins="observed")
        H = build_H(targets)
        assert H.d == d
        # the least-squares projection of the uniform table, a float proposal, has a negative cell here
        A = np.array([[float(v) for v in row] for row in H.rows] + [[1.0] * H.n_cols])
        u = np.full(H.n_cols, 1.0 / H.n_cols)
        b = np.zeros(len(A))
        b[-1] = 1.0
        assert (u + np.linalg.lstsq(A, b - A @ u, rcond=None)[0]).min() < 0
        y, _ = H.relative_interior
        assert all(isinstance(v, int) and v > 0 for v in y)
        assert all(sum(h * v for h, v in zip(row, y)) == 0 for row in H.rows)
        assert polytope_dimension(H) == dimension == H.n_cols - 1 - reference_rank(H.rows)
        assert ipf_max_entropy(targets).converged

    @pytest.mark.parametrize("margins", ["uniform", "observed"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_second_order_point_matches_oracle(self, d, margins):
        rng = random.Random(100 * d + len(margins))
        for digits in (2, 3):
            targets = targets_from_pmf(random_rational_pmf(rng, d, positive=True), digits=digits, margins=margins)
            y = geometry._second_order_point(targets)
            assert len(y) == 2**d and all(type(v) is int for v in y)
            cells = [F(v, sum(y)) for v in y]
            for i, m in enumerate(targets.univariate, 1):
                assert reference_axis_mass(cells, (i,)) == m
            for pair, mu in targets.moments.items():
                assert reference_axis_mass(cells, pair) == mu
            # no interaction of order 3 or more
            for size in range(3, d + 1):
                for axes in itertools.combinations(range(1, d + 1), size):
                    assert reference_centred_moment(cells, targets.univariate, axes) == 0
            if margins == "uniform":
                assert cells == reference_second_order_uniform(d, targets.moments)

    def test_nonpositive_proposal_falls_back(self, water, example1, monkeypatch):
        calls = []
        original = geometry._extreme_rays

        def counting(H):
            calls.append(H)
            return original(H)

        monkeypatch.setattr(geometry, "_extreme_rays", counting)
        monkeypatch.setattr(geometry, "_second_order_point", lambda targets: [-1] * 2**targets.d)
        cases = [
            (targets_from_pmf(water, digits=3), 5),
            (targets_from_pmf(example1, digits=3), 1),
            (DEGENERATE_D3, 0),
        ]
        for targets, dimension in cases:
            assert geometry._relative_interior(build_H(targets))[1] == dimension
            assert polytope_dimension(build_H(targets)) == dimension
        # one ray pass per call: none of them certified
        assert len(calls) == 2 * len(cases)
        assert ipf_max_entropy(cases[1][0]).converged
        assert len(calls) == 2 * len(cases) + 1
        empty = MarginTargets.uniform(3, {(1, 2): F(1, 10), (1, 3): F(1, 10), (2, 3): F(1, 10)})
        for query in (lambda: polytope_dimension(build_H(empty)), lambda: ipf_max_entropy(empty)):
            with pytest.raises(EmptyFeasibleSetError) as excinfo:
                query()
            assert excinfo.value.certificate is not None

    @pytest.mark.parametrize("system", ["water", "example1", "raters", "generic_d5", "generic_d6", "generic_d7"])
    def test_certified_start_is_exactly_feasible(self, request, no_ray_pass, system):
        if system.startswith("generic_d"):
            targets = generic_targets(int(system[-1]))
        else:
            targets = targets_from_pmf(request.getfixturevalue(system), digits=3)
        H = build_H(targets)
        y, dimension = geometry._relative_interior(H)
        assert all(isinstance(v, int) and v > 0 for v in y)
        assert all(sum(h * v for h, v in zip(row, y)) == 0 for row in H.rows)
        assert dimension == H.n_cols - 1 - reference_rank(H.rows)

    @pytest.mark.parametrize(
        "system, digits",
        [("degenerate_d3", None), ("water", 3), ("water", 20)],
    )
    def test_fallback_start_is_vertex_centroid(self, request, monkeypatch, system, digits):
        if system == "degenerate_d3":
            targets = DEGENERATE_D3
        else:
            # a non-positive proposal certifies nothing; digits 20 runs the Python-int ray path
            monkeypatch.setattr(geometry, "_second_order_point", lambda targets: [-1] * 2**targets.d)
            targets = targets_from_pmf(request.getfixturevalue(system), digits=digits)
        H = build_H(targets)
        y, _ = geometry._relative_interior(H)
        V = enumerate_vertices(H)
        centroid = mixture(MixtureWeights(tuple(F(1, len(V)) for _ in V.vertices)), V)
        assert tuple(F(v, sum(y)) for v in y) == centroid.cells

    def test_one_attempt_per_system(self, water, caplog):
        H = build_H(targets_from_pmf(water, digits=3))
        with caplog.at_level(logging.DEBUG, logger="bintab.geometry"):
            assert polytope_dimension(H) == polytope_dimension(H) == 5
        records = [r.args for r in caplog.records if r.name == "bintab.geometry" and "certified" in r.args]
        assert records == [{"certified": True, "rank": 10}]
        assert H.relative_interior is H.__dict__["relative_interior"]

    def test_empty_system_raises_on_every_read(self):
        H = build_H(MarginTargets.uniform(3, {(1, 2): F(1, 10), (1, 3): F(1, 10), (2, 3): F(1, 10)}))
        for _ in range(2):
            with pytest.raises(EmptyFeasibleSetError):
                polytope_dimension(H)
        assert "relative_interior" not in H.__dict__

    def test_one_record_per_attempt(self, water, caplog):
        with caplog.at_level(logging.DEBUG, logger="bintab.geometry"):
            polytope_dimension(build_H(targets_from_pmf(water, digits=3)))
            polytope_dimension(build_H(DEGENERATE_D3))
        records = [r.args for r in caplog.records if r.name == "bintab.geometry" and "certified" in r.args]
        assert records == [{"certified": True, "rank": 10}, {"certified": False, "rank": 6}]


class TestMixture:
    def test_unit_weight_returns_vertex(self, example1_vertices):
        p = mixture(MixtureWeights((1, 0)), example1_vertices)
        assert p.cells == example1_vertices.vertices[0].cells

    def test_midpoint_is_in_kernel_exactly(self, example1_H3, example1_vertices):
        mid = mixture(MixtureWeights((F(1, 2), F(1, 2))), example1_vertices)
        assert satisfies(example1_H3, mid, 0)
        assert sum(mid.cells) == 1

    def test_extreme_weighting_kills_top_order_ratio(self, example1_vertices):
        # leaning onto the endpoint with the zero cell in the numerator
        # parity class drives the top-order ratio to 0
        weights = [
            MixtureWeights((0.999, 0.001)),
            MixtureWeights((0.001, 0.999)),
        ]
        values = [float(top_order_odds_ratio(mixture(w, example1_vertices))) for w in weights]
        assert min(values) < 1e-2
        assert max(values) > 1e2

    def test_sparse_weights_give_the_full_sum(self, water):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=3)))
        theta = [F(0)] * len(V)
        for index, weight in ((3, F(1, 2)), (40, F(1, 3)), (77, F(1, 6))):
            theta[index] = weight
        exact = tuple(
            sum((t * v.cells[k] for t, v in zip(theta, V.vertices)), F(0)) for k in range(16)
        )
        assert mixture(MixtureWeights(tuple(theta)), V).cells == exact
        floats = MixtureWeights(tuple(float(t) for t in theta)).theta
        rounded = tuple(
            math.fsum(t * float(v.cells[k]) for t, v in zip(floats, V.vertices)) for k in range(16)
        )
        assert mixture(MixtureWeights(floats), V).cells == rounded

    def test_weight_validation(self, example1_vertices):
        with pytest.raises(DomainError):
            mixture(MixtureWeights((F(1, 2), F(1, 2), F(0))), example1_vertices)
        with pytest.raises(DomainError):
            MixtureWeights((F(3, 2), F(-1, 2)))
        with pytest.raises(DomainError):
            MixtureWeights((F(1, 3), F(1, 3)))

    @pytest.mark.parametrize(
        "theta", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.inf, 1.0)]
    )
    def test_non_finite_float_weights_rejected(self, theta):
        with pytest.raises(DomainError, match="finite"):
            MixtureWeights(theta)

    def test_overflowing_float_weights_rejected(self):
        # finite weights whose sum overflows a double
        with pytest.raises(DomainError):
            MixtureWeights((1e308, 1e308))

    def test_rational_weights_keep_their_fractions(self):
        theta = (F(1, 3), F(1, 6), F(1, 2))
        assert all(a is b for a, b in zip(MixtureWeights(theta).theta, theta))
        assert MixtureWeights((1, 0)).theta == (F(1), F(0))
        with pytest.raises(DomainError, match="expected exactly 1"):
            MixtureWeights((F(1, 3), F(1, 3), 0))


class TestDecompose:
    def test_vertex_recovers_unit_weight(self, example1_vertices):
        w = decompose(example1_vertices.vertices[0], example1_vertices)
        assert w.theta == (F(1), F(0))

    def test_midpoint(self, example1_vertices):
        mid = mixture(MixtureWeights((F(1, 2), F(1, 2))), example1_vertices)
        assert decompose(mid, example1_vertices).theta == (F(1, 2), F(1, 2))

    def test_source_table_not_in_uniform_polytope(self, example1, example1_vertices):
        with pytest.raises(NotInPolytopeError) as err:
            decompose(example1, example1_vertices)
        assert err.value.best_residual > 1e-3

    def test_round_trip_rational(self, example1_vertices):
        theta = MixtureWeights((F(3, 10), F(7, 10)))
        w = decompose(mixture(theta, example1_vertices), example1_vertices)
        assert w.theta == theta.theta

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_tol_outside_domain_rejected(self, example1_vertices, tol, mode):
        # a nan or negative tol would refuse a float vertex as "not in the polytope"
        vertex = example1_vertices.vertices[0]
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            decompose(vertex if mode == "rational" else vertex.to_float(), example1_vertices, tol=tol)

    def test_round_trip_float_path(self, example1_vertices):
        theta = MixtureWeights((0.3, 0.7))
        p = mixture(theta, example1_vertices)
        w = decompose(p, example1_vertices, tol=1e-9)
        q = mixture(w, example1_vertices)
        assert max(abs(a - b) for a, b in zip(p.cells, q.cells)) <= 1e-9

    def test_degenerate_d4_system_is_exact(self):
        # 16 vertices in dimension 5: every vertex is its own unit weight, and the
        # centroid, which many supports represent, gets exact weights that mix back to it
        moments = {
            (1, 2): F(3, 20), (1, 3): F(2, 5), (1, 4): F(3, 20),
            (2, 3): F(3, 20), (2, 4): F(1, 4), (3, 4): F(1, 5),
        }
        V = enumerate_vertices(build_H(MarginTargets(d=4, univariate=(F(1, 2),) * 4, moments=moments)))
        assert (len(V), V.dimension) == (16, 5)
        for i, v in enumerate(V.vertices):
            assert decompose(v, V).theta == tuple(F(int(i == j)) for j in range(len(V)))
        centroid = mixture(MixtureWeights((F(1, 16),) * 16), V)
        weights = decompose(centroid, V)
        assert all(type(t) is Fraction for t in weights.theta)
        assert mixture(weights, V) == centroid

    def test_water_rational_mix_is_exact(self, water):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=3)))
        assert len(V) == 96
        theta = [F(0)] * len(V)
        for index, weight in ((3, F(1, 2)), (40, F(1, 3)), (77, F(1, 6))):
            theta[index] = weight
        point = mixture(MixtureWeights(tuple(theta)), V)
        weights = decompose(point, V)
        assert all(type(t) is Fraction for t in weights.theta)
        assert mixture(weights, V) == point

    def test_water_vertex_excluded_is_unrepresentable(self, water):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=3)))
        target = V.vertices[0]
        reduced = type(V)(keys=V.keys[1:], scale=V.scale, constraints=V.constraints)
        with pytest.raises(NotInPolytopeError):
            decompose(target.to_float(), reduced, tol=1e-6)


class TestDecomposeMemory:
    def test_d5_margin_polytope_decompose_stays_small(self):
        # the n x n Gram matrix of 2,712 vertices alone would take 59 MB
        V = enumerate_vertices(d5_margin_H())
        rng = random.Random(2712)
        theta = [F(0)] * len(V)
        for index, weight in zip(rng.sample(range(len(V)), 3), (F(1, 2), F(1, 3), F(1, 6))):
            theta[index] = weight
        point = mixture(MixtureWeights(tuple(theta)), V)
        V.float_matrix
        tracemalloc.start()
        try:
            weights = decompose(point, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mixture(weights, V) == point
        assert peak < 8 * 2**20


class TestNnls:
    """The Lawson-Hanson proposer, with scipy's solver as a test-only oracle."""

    def test_kkt_and_residual_match_scipy(self):
        rng = np.random.default_rng(18)
        for trial in range(200):
            m, n = int(rng.integers(1, 34)), int(rng.integers(1, 301))
            if trial % 10 == 9:  # rank-deficient: every column a combination of 3
                A = rng.random((m, 3)) @ rng.random((3, n))
            elif trial % 2:
                A = rng.random((m, n))
            else:
                A = rng.standard_normal((m, n))
            b = rng.standard_normal(m) if trial % 3 == 0 else rng.random(m)
            x = geometry._nnls(A, b)
            w = A.T @ (b - A @ x)
            support = x > 0
            assert (x >= 0).all()
            assert (w[~support] <= 1e-9).all()
            assert (np.abs(w[support]) <= 1e-9).all()
            assert abs(np.linalg.norm(A @ x - b) - nnls(A, b)[1]) <= 1e-10

    def test_cap_returns_the_current_iterate(self):
        rng = np.random.default_rng(5)
        A, b = rng.random((17, 40)), rng.random(17)
        x = geometry._nnls(A, b, max_iter=1)
        assert (x >= 0).all() and np.count_nonzero(x) == 1


class TestDecomposeProposals:
    def test_vertices_and_three_vertex_mixtures_are_exact(self, water, pool_pmfs):
        # 180 seeded rational mixtures of 3 vertices over water and pool tables 0-7
        rng = random.Random(180)
        for p in (water, *pool_pmfs[:8]):
            V = enumerate_vertices(build_H(targets_from_pmf(p, digits=3)))
            for i, v in enumerate(V.vertices):
                assert decompose(v, V).theta == tuple(F(int(i == j)) for j in range(len(V)))
            for _ in range(20):
                theta = [F(0)] * len(V)
                raw = [rng.randint(1, 20) for _ in range(3)]
                for index, r in zip(rng.sample(range(len(V)), 3), raw):
                    theta[index] = F(r, sum(raw))
                point = mixture(MixtureWeights(tuple(theta)), V)
                weights = decompose(point, V)
                assert all(type(t) is Fraction for t in weights.theta)
                assert mixture(weights, V) == point

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_capped_proposer_gives_exact_weights_or_refuses(self, monkeypatch, water, max_iter):
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=3)))
        monkeypatch.setattr(geometry, "_nnls", functools.partial(geometry._nnls, max_iter=max_iter))
        rng = random.Random(max_iter)
        points = [V.vertices[0], V.vertices[50].to_float(), water]
        for _ in range(10):
            theta = [F(0)] * len(V)
            for index in rng.sample(range(len(V)), 3):
                theta[index] = F(1, 3)
            points.append(mixture(MixtureWeights(tuple(theta)), V))
        refused = 0
        for point in points:
            try:
                weights = decompose(point, V)
            except NotInPolytopeError:
                refused += 1
                continue
            if point.mode == "rational":
                assert mixture(weights, V) == point
            else:
                assert max(abs(a - b) for a, b in zip(mixture(weights, V).cells, point.cells)) <= 1e-9
        assert 0 < refused < len(points)
