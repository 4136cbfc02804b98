"""Samplers: per-draw feasibility, determinism, distributional agreement, and
byte identity with the per-step reference implementations."""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

import bintab.sampling as sampling
import bintab.table

from bintab import (
    DomainError,
    MarginTargets,
    MixtureWeights,
    Pmf,
    SamplerConfig,
    build_H,
    enumerate_vertices,
    mixture,
    residual,
    sample_dirichlet,
    sample_hit_and_run,
    targets_from_pmf,
)
from bintab.table import FLOAT
from conftest import d5_margin_H, generic_targets, reference_nullspace

F = Fraction


@pytest.fixture(scope="module")
def segment(example1):
    H = build_H(targets_from_pmf(example1, digits=3))
    return H, enumerate_vertices(H)


def _segment_coordinates(draws, V):
    v0 = np.array([float(c) for c in V.vertices[0].cells])
    v1 = np.array([float(c) for c in V.vertices[1].cells])
    axis = v1 - v0
    scale = axis @ axis
    return [float((np.array(p.cells) - v0) @ axis / scale) for p in draws]


class TestDirichletSampler:
    def test_all_draws_feasible(self, segment):
        H, V = segment
        draws = sample_dirichlet(V, SamplerConfig(seed=11, count=100))
        assert len(draws) == 100
        for p in draws:
            assert max(abs(r) for r in residual(H, p)) <= 1e-12
            assert min(p.cells) >= 0

    def test_seed_determinism(self, segment):
        _, V = segment
        cfg = SamplerConfig(seed=202, count=50)
        first = sample_dirichlet(V, cfg)
        second = sample_dirichlet(V, cfg)
        assert all(a.cells == b.cells for a, b in zip(first, second))
        different = sample_dirichlet(V, SamplerConfig(seed=203, count=50))
        assert any(a.cells != b.cells for a, b in zip(first, different))

    def test_single_vertex_set(self):
        targets = MarginTargets.uniform(2, {(1, 2): F(1, 4)})
        V = enumerate_vertices(build_H(targets))
        draws = sample_dirichlet(V, SamplerConfig(seed=5, count=20))
        for p in draws:
            assert p.cells == (0.25, 0.25, 0.25, 0.25)

    def test_segment_coordinate_mean(self, segment):
        _, V = segment
        draws = sample_dirichlet(V, SamplerConfig(seed=77, count=10_000))
        mean = float(np.mean(_segment_coordinates(draws, V)))
        assert 0.47 <= mean <= 0.53


class TestHitAndRunSampler:
    def test_segment_walk_feasible_and_centered(self, segment):
        H, V = segment
        start = mixture(MixtureWeights((F(1, 2), F(1, 2))), V)
        draws = sample_hit_and_run(H, start, SamplerConfig(seed=13, count=5000, burn_in=500, thinning=10))
        for p in draws:
            assert max(abs(r) for r in residual(H, p)) <= 1e-10
            assert min(p.cells) >= 0
        mean = float(np.mean(_segment_coordinates(draws, V)))
        assert 0.45 <= mean <= 0.55

    def test_zero_dimensional_polytope_repeats_point(self):
        targets = MarginTargets.uniform(2, {(1, 2): F(1, 4)})
        H = build_H(targets)
        start = Pmf.uniform(2)
        draws = sample_hit_and_run(H, start, SamplerConfig(seed=3, count=7))
        assert len(draws) == 7
        for p in draws:
            assert p.cells == (0.25, 0.25, 0.25, 0.25)

    def test_water_system_feasible(self, water):
        H = build_H(targets_from_pmf(water, digits=3))
        V = enumerate_vertices(H)
        centroid = mixture(
            MixtureWeights(tuple(F(1, len(V.vertices)) for _ in V.vertices)), V
        )
        draws = sample_hit_and_run(H, centroid, SamplerConfig(seed=19, count=300, burn_in=200, thinning=2))
        for p in draws:
            assert max(abs(r) for r in residual(H, p)) <= 1e-10
            assert min(p.cells) >= 0

    def test_seed_determinism(self, segment):
        H, V = segment
        start = mixture(MixtureWeights((F(1, 2), F(1, 2))), V)
        cfg = SamplerConfig(seed=23, count=200, burn_in=50, thinning=3)
        first = sample_hit_and_run(H, start, cfg)
        second = sample_hit_and_run(H, start, cfg)
        assert all(a.cells == b.cells for a, b in zip(first, second))

    def test_infeasible_start_rejected(self, segment, example1):
        H, _ = segment
        with pytest.raises(DomainError):
            sample_hit_and_run(H, example1, SamplerConfig(seed=1, count=5))


class TestSamplerAgreement:
    def test_ks_statistic_on_segment(self, segment):
        # Dirichlet(1) mixing and hit-and-run both target the uniform law
        # on a one-dimensional polytope
        H, V = segment
        n = 5000
        dirichlet = sample_dirichlet(V, SamplerConfig(seed=101, count=n))
        start = mixture(MixtureWeights((F(1, 2), F(1, 2))), V)
        walk = sample_hit_and_run(H, start, SamplerConfig(seed=202, count=n, burn_in=500, thinning=10))
        stat = ks_2samp(
            _segment_coordinates(dirichlet, V), _segment_coordinates(walk, V)
        ).statistic
        assert stat < 0.05


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, count=0)
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, count=1, burn_in=-1)
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, count=1, thinning=-2)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, False, "3", None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            SamplerConfig(seed=seed, count=1)

    @pytest.mark.parametrize("seed", [0, 2**64, 2**200])
    def test_large_seeds_are_accepted(self, seed):
        assert SamplerConfig(seed=seed, count=1).seed == seed

    @pytest.mark.parametrize(
        "field, value",
        [
            ("count", 2.5),
            ("count", True),
            ("count", 3.0),
            ("count", "3"),
            ("burn_in", 2.5),
            ("burn_in", math.nan),
            ("burn_in", False),
            ("thinning", 1.5),
            ("thinning", math.inf),
            ("thinning", None),
        ],
    )
    def test_schedule_must_be_ints(self, field, value):
        schedule = {"count": 1, field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer >= {int(field == 'count')}"):
            SamplerConfig(seed=1, **schedule)

    def test_schedule_bounds(self):
        assert SamplerConfig(seed=1, count=1, burn_in=0, thinning=0).count == 1
        with pytest.raises(DomainError, match="count must be an integer >= 1, got 0"):
            SamplerConfig(seed=1, count=0)


# ---------------------------------------------------------------------------
# per-step references: the samplers as first written, one draw or one walk
# step at a time; the block samplers must reproduce their draws bit for bit
# ---------------------------------------------------------------------------


def _reference_rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _reference_normals(rng, k):
    pairs = (k + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * math.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:k]


def reference_dirichlet(V, cfg):
    """Dirichlet(1) vertex mixtures, one ``rng.random(n)`` per draw."""
    n_d = len(V.vertices)
    vertex_matrix = np.array([[float(c) for c in v.cells] for v in V.vertices], dtype=float)
    rng = _reference_rng(cfg.seed)
    draws = []
    for _ in range(cfg.count):
        exponentials = -np.log1p(-rng.random(n_d))
        total = exponentials.sum()
        theta = exponentials / total if total > 0 else np.full(n_d, 1.0 / n_d)
        cells = theta @ vertex_matrix
        draws.append(Pmf(d=V.vertices[0].d, cells=tuple(float(c) for c in cells), mode=FLOAT))
    return draws


def reference_hit_and_run(H, start, cfg):
    """Hit-and-run, one direction, chord and point per step.

    Reads ``sampling.CHORD_EPS`` at call time, so a patched threshold
    applies to both implementations.
    """
    p0 = start.to_float() if start.mode != FLOAT else start
    basis = reference_nullspace(list(H.rows) + [tuple([F(1)] * H.n_cols)], H.n_cols)
    if not basis:
        return [p0] * cfg.count
    B = np.array([[float(v) for v in vec] for vec in basis], dtype=float).T
    N, _ = np.linalg.qr(B)
    k = N.shape[1]
    x0 = np.array(p0.cells, dtype=float)
    c = np.zeros(k)
    point = x0.copy()
    rng = _reference_rng(cfg.seed)
    draws = []
    kept = 0
    steps_until_keep = cfg.burn_in
    while kept < cfg.count:
        direction_k = _reference_normals(rng, k)
        norm = np.linalg.norm(direction_k)
        if norm == 0.0:
            continue
        direction_k /= norm
        direction = N @ direction_k
        t_lo, t_hi = -np.inf, np.inf
        for pc, dc in zip(point, direction):
            if dc > sampling.CHORD_EPS:
                t_lo = max(t_lo, -pc / dc)
            elif dc < -sampling.CHORD_EPS:
                t_hi = min(t_hi, -pc / dc)
        if not (np.isfinite(t_lo) and np.isfinite(t_hi)) or t_hi < t_lo:
            continue
        t = t_lo + rng.random() * (t_hi - t_lo)
        c = c + t * direction_k
        point = x0 + N @ c
        if steps_until_keep > 0:
            steps_until_keep -= 1
            continue
        kept += 1
        steps_until_keep = cfg.thinning
        cells = np.maximum(point, 0.0)
        draws.append(Pmf(d=p0.d, cells=tuple(float(v) for v in cells), mode=FLOAT))
    return draws


def _system(request, name):
    """(H, V, start) of a named system, the start being the vertex centroid.

    A generic system has no V and starts at the relative-interior point, as
    the CLI walk does; the d=5 margin polytope is for Dirichlet only.
    """
    if name.startswith("generic_d"):
        H = build_H(generic_targets(int(name[-1])))
        y, _ = H.relative_interior
        return H, None, Pmf(d=H.d, cells=tuple(v / sum(y) for v in y), mode=FLOAT)
    if name == "d5_margin":
        H = d5_margin_H()
        return H, enumerate_vertices(H), None
    if name == "degenerate_d3":
        # mu12 = 1/2 forces X1 = X2: a single vertex on the boundary of a
        # larger affine hull, so every chord is (numerically) a point
        targets = MarginTargets.uniform(3, {(1, 2): F(1, 2), (1, 3): F(1, 4), (2, 3): F(1, 4)})
    elif name == "zero_dim_d2":
        targets = MarginTargets.uniform(2, {(1, 2): F(1, 4)})
    else:
        targets = targets_from_pmf(request.getfixturevalue(name), digits=3)
    H = build_H(targets)
    V = enumerate_vertices(H)
    start = mixture(MixtureWeights(tuple(F(1, len(V)) for _ in V.vertices)), V)
    return H, V, start


SYSTEMS = ["water", "example1", "degenerate_d3", "zero_dim_d2"]


def _stride(H):
    """Uniforms per walk step: Box-Muller pairs for the chart, then t."""
    k = len(reference_nullspace(list(H.rows) + [tuple([F(1)] * H.n_cols)], H.n_cols))
    return 2 * ((k + 1) // 2) + 1


class TestByteIdentity:
    @pytest.mark.parametrize("name", SYSTEMS + ["generic_d5", "generic_d6"])
    @pytest.mark.parametrize(
        "schedule",
        [dict(burn_in=500, thinning=10, count=20), dict(burn_in=0, thinning=0, count=25), dict(burn_in=3, thinning=0, count=1)],
        ids=["default", "no_burn_no_thin", "single"],
    )
    def test_hit_and_run_matches_per_step_reference(self, request, name, schedule):
        H, _, start = _system(request, name)
        cfg = SamplerConfig(seed=31, **schedule)
        assert [p.cells for p in sample_hit_and_run(H, start, cfg)] == [
            p.cells for p in reference_hit_and_run(H, start, cfg)
        ]

    @pytest.mark.parametrize("name", ["water", "example1"])
    def test_hit_and_run_spans_several_blocks(self, request, name):
        H, _, start = _system(request, name)
        # every step is kept, and the steps use more than three blocks of uniforms
        count = 3 * sampling._BLOCK_UNIFORMS // _stride(H) + 7
        cfg = SamplerConfig(seed=8, count=count, burn_in=0, thinning=0)
        assert [p.cells for p in sample_hit_and_run(H, start, cfg)] == [
            p.cells for p in reference_hit_and_run(H, start, cfg)
        ]

    def test_degenerate_chords_realign_the_stream(self, request, monkeypatch, caplog):
        H, _, start = _system(request, "water")
        # about a quarter of the directions have no component past 0.4 on one
        # side, so those steps resample the direction without drawing t.  The
        # cells past the threshold no longer bound the chord, so the walk
        # leaves the polytope; the mass check is lifted because this test is
        # about which uniforms each step consumes, not about feasibility
        monkeypatch.setattr(sampling, "CHORD_EPS", 0.4)
        monkeypatch.setattr(bintab.table, "FLOAT_SUM_TOL", math.inf)
        cfg = SamplerConfig(seed=12, count=300, burn_in=20, thinning=1)
        with caplog.at_level(logging.DEBUG, logger="bintab.sampling"):
            draws = sample_hit_and_run(H, start, cfg)
        assert [p.cells for p in draws] == [p.cells for p in reference_hit_and_run(H, start, cfg)]
        (record,) = [r for r in caplog.records if r.name == "bintab.sampling"]
        assert record.args["degenerate_chords"] > 10

    @pytest.mark.parametrize("name", SYSTEMS + ["d5_margin"])
    def test_dirichlet_matches_per_draw_reference(self, request, name):
        _, V, _ = _system(request, name)
        cfg = SamplerConfig(seed=44, count=30)
        assert [p.cells for p in sample_dirichlet(V, cfg)] == [p.cells for p in reference_dirichlet(V, cfg)]

    @pytest.mark.parametrize("name", ["water", "example1"])
    def test_dirichlet_spans_several_blocks(self, request, name):
        _, V, _ = _system(request, name)
        cfg = SamplerConfig(seed=45, count=3 * sampling._BLOCK_UNIFORMS // len(V) + 5)
        assert [p.cells for p in sample_dirichlet(V, cfg)] == [p.cells for p in reference_dirichlet(V, cfg)]


class TestStackedCalls:
    """The stacked numpy calls of the samplers give the bits of their per-row calls.

    ``matmul`` and ``vecdot`` over a stack make the BLAS call of ``dot`` once
    per stack item; a 2-D matrix-matrix product would not (see the module note).
    """

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    @pytest.mark.parametrize("k", [1, 5, 11, 16, 42, 219])
    def test_norms_and_directions(self, k):
        rng = np.random.default_rng(k)
        n = max(16, 1 << (k.bit_length() + 1))
        # an orthonormal chart from the QR factorization, as kernel_chart makes it
        N, _ = np.linalg.qr(rng.standard_normal((n, k)))
        z = rng.standard_normal((40, k))
        norms = np.vecdot(z, z)
        assert np.array_equal(self._bits(norms), self._bits(np.array([row.dot(row) for row in z])))
        directions = z / np.sqrt(norms)[:, None]
        signed = np.empty((len(z), 2, n))
        np.matmul(N, directions[:, :, None], out=signed[:, 1, :, None])
        assert np.array_equal(self._bits(signed[:, 1]), self._bits(np.array([N.dot(u) for u in directions])))

    @pytest.mark.parametrize("vertices", [1, 35, 96, 2712])
    def test_mixtures(self, vertices):
        rng = np.random.default_rng(vertices)
        M = rng.random((vertices, 32))
        thetas = rng.dirichlet(np.ones(vertices), size=12)
        block = np.empty((len(thetas), 32))
        np.matmul(thetas[:, None, :], M, out=block[:, None, :])
        assert np.array_equal(self._bits(block), self._bits(np.array([theta.dot(M) for theta in thetas])))


class TestPreparedSystem:
    def test_repeated_walks_on_one_H_match_the_reference(self, request):
        # the second walk reads the chart the first one built
        H, _, start = _system(request, "water")
        for seed in (31, 32):
            cfg = SamplerConfig(seed=seed, count=20, burn_in=50, thinning=2)
            assert [p.cells for p in sample_hit_and_run(H, start, cfg)] == [
                p.cells for p in reference_hit_and_run(H, start, cfg)
            ]
        chart = H.__dict__["kernel_chart"]
        assert H.kernel_chart is chart
        assert not chart.flags.writeable

    @pytest.mark.parametrize("name", ["zero_dim_d2", "example1"])
    def test_chart_spans_the_exact_kernel(self, request, name):
        H, _, _ = _system(request, name)
        k = len(reference_nullspace(list(H.rows) + [tuple([F(1)] * H.n_cols)], H.n_cols))
        chart = H.kernel_chart
        assert chart.shape == (H.n_cols, k)
        assert np.allclose(chart.T @ chart, np.eye(k))
        assert np.abs(np.array([[float(v) for v in row] for row in H.rows]) @ chart).max(initial=0) < 1e-12
        assert np.abs(chart.sum(axis=0)).max(initial=0) < 1e-12

    @pytest.mark.parametrize("method", ["dirichlet", "hitrun"])
    def test_every_failing_draw_raises_the_constructor_message(self, request, monkeypatch, method):
        H, V, start = _system(request, "water")
        start = start.to_float()
        cfg = SamplerConfig(seed=9, count=5, burn_in=3, thinning=1)

        def draws():
            return sample_dirichlet(V, cfg) if method == "dirichlet" else sample_hit_and_run(H, start, cfg)

        first = draws()[0]
        # no sum is within a negative tolerance, so every draw fails and the first one is reported
        monkeypatch.setattr(bintab.table, "FLOAT_SUM_TOL", -1.0)
        with pytest.raises(DomainError, match="cell probability sum") as expected:
            Pmf(d=first.d, cells=first.cells, mode=FLOAT)
        with pytest.raises(DomainError) as got:
            draws()
        assert str(got.value) == str(expected.value)


class TestSamplerLogging:
    def _record(self, caplog, run):
        with caplog.at_level(logging.DEBUG, logger="bintab.sampling"):
            run()
        (record,) = [r for r in caplog.records if r.name == "bintab.sampling"]
        return record.args

    def test_hit_and_run_record(self, request, caplog):
        H, _, start = _system(request, "water")
        cfg = SamplerConfig(seed=19, count=5, burn_in=10, thinning=2)
        args = self._record(caplog, lambda: sample_hit_and_run(H, start, cfg))
        assert args == {"method": "hitrun", "steps": 10 + 5 + 4 * 2, "kept": 5, "degenerate_chords": 0}

    def test_zero_dimensional_record(self, request, caplog):
        H, _, start = _system(request, "zero_dim_d2")
        args = self._record(caplog, lambda: sample_hit_and_run(H, start, SamplerConfig(seed=1, count=3)))
        assert args == {"method": "hitrun", "steps": 0, "kept": 3, "degenerate_chords": 0}

    def test_dirichlet_record(self, request, caplog):
        _, V, _ = _system(request, "example1")
        args = self._record(caplog, lambda: sample_dirichlet(V, SamplerConfig(seed=2, count=6)))
        assert args == {"method": "dirichlet", "steps": 6, "kept": 6, "degenerate_chords": 0}
