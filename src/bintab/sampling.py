"""Random pmfs from the feasible polytope.

Two samplers with different targets:

* :func:`sample_dirichlet` draws symmetric Dirichlet(1) weights over the
  vertex set and mixes.  Fast, covers the whole polytope, and exactly
  uniform on a segment -- but NOT uniform over polytopes of dimension two
  or more (mass concentrates where many vertices are close).
* :func:`sample_hit_and_run` runs a hit-and-run random walk inside the
  polytope and targets the uniform distribution.  The walk moves in an
  orthonormalized chart of the exact rational kernel of the constraint
  system (including the total-mass row), so every iterate satisfies the
  constraints up to one matrix product of round-off.  The chart is built
  once per H (``ConstraintMatrix.kernel_chart``) and read by every walk
  on it.

Randomness comes from numpy's counter-based Philox bit generator; all
variates are derived from its uniform doubles with the transformations
coded here (inverse-exponential for Dirichlet, Box-Muller for directions),
so a fixed seed reproduces the byte-identical draw sequence for a given
numpy version on any platform.

Both samplers take the uniforms in blocks of about ``_BLOCK_UNIFORMS``
doubles and run everything that does not depend on the walk state as
whole-block array operations; the draws are the same, bit for bit, as
consuming the stream one step at a time:

* Dirichlet: a block is a (draws x vertices) array of uniforms, one row per
  draw, turned into exponentials and row sums at once.
* Hit-and-run: a block row is one walk step in stream order, ``u1`` and
  ``u2`` (``ceil(k/2)`` each, for Box-Muller on the k chart coordinates)
  followed by the one uniform ``t`` that places the point on the chord.
  The normals, their norms, the directions and the chord tables (below)
  are computed per block.  A step whose direction has zero norm or whose
  chord is degenerate resamples the direction without drawing ``t``, so
  the block rows after it no longer line up with the stream: the rest of
  the block is derived again from the new stream position.

Every product with a matrix keeps the bits of one matrix-vector product
per draw or step (the mixture ``theta . M``, the direction ``N . z`` and
the point ``x0 + N . c``).  Within a block the draws and directions do not
depend on each other, so each block makes one stacked call:
``np.matmul`` over a stack of vectors calls the same BLAS ``dgemv`` once per
stack item, and ``np.vecdot`` the same ``ddot`` that ``z . z`` calls for the
norm of each direction (the sum ``np.linalg.norm`` takes), so the bits are
those of the per-row calls (``tests/test_sampling.py`` pins this).  Only a
2-D matrix-matrix product, one ``dgemm`` such as ``Z @ N.T``, sums in
another order and changes the last bits; so does an axis reduction for the
norms.  The point ``x0 + N . c`` stays one ``ndarray.dot`` per step, since
each step starts where the one before it ended.

The chord of a step is the interval of t where ``point + t * direction``
stays >= 0 in every cell whose direction component is past ``CHORD_EPS``
in size: t >= ``point / -direction`` on the lower cells (direction >
``CHORD_EPS``) and t <= ``point / -direction`` on the upper cells
(direction < ``-CHORD_EPS``).  Per block, one ``np.flatnonzero`` of the
mask ``[-direction, direction] < -CHORD_EPS`` lists each step's lower cells
and then its upper cells, with their divisors ``-direction`` and
``+direction``.  Since ``x / -y`` is exactly ``-(x / y)``, one
``np.maximum.reduceat`` of ``point.take(cells) / divisors`` over the two
segments gives the lower end and the negated upper end, the same floats
as a maximum and a minimum of ``point / -direction`` (a zero end may take
the other sign, which leaves ``t_lo + u * (t_hi - t_lo)`` unchanged; a NaN
gives NaN either way).  A step with no cell
on one side (a NaN direction has none on either) has an unbounded chord:
it is degenerate, found before any reduction, as ``reduceat`` reads an
empty segment as the one element at its start.

Each sampler writes its draws into one preallocated (draws x cells) array
and validates them together, once per call
(:func:`bintab.table._float_pmfs`): every cell finite and >= 0, and each
draw's ``fsum`` within ``FLOAT_SUM_TOL`` of 1, the checks and the
:class:`DomainError` messages of the ``Pmf`` constructor, which is then
skipped for each draw.

Each call emits one DEBUG record on the ``bintab.sampling`` logger whose
mapping arguments are ``method``, ``steps`` (walk moves, or draws for
Dirichlet), ``kept`` and ``degenerate_chords`` (directions resampled).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .constraints import ConstraintMatrix, residual
from .errors import DomainError
from .geometry import VertexSet
from .table import FLOAT, Pmf, _float_pmfs

#: Tolerance for validating the feasibility of a hit-and-run start point.
START_TOL = 1e-9

#: Direction components below this threshold do not constrain the chord.
CHORD_EPS = 1e-13

#: Uniform doubles per block (at least one draw or step per block).
_BLOCK_UNIFORMS = 1 << 10

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SamplerConfig:
    """Draw count, seed, and walk schedule.

    ``burn_in`` steps are discarded before the first kept draw and
    ``thinning`` steps are discarded between consecutive kept draws
    (hit-and-run only; the Dirichlet sampler ignores both).
    """

    seed: int
    count: int
    burn_in: int = 500
    thinning: int = 10

    def __post_init__(self):
        # Philox takes any nonnegative int; a bool is an int subclass but no seed
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name, least in (("count", 1), ("burn_in", 0), ("thinning", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _log(method: str, steps: int, kept: int, degenerate_chords: int) -> None:
    logger.debug(
        "%(method)s: %(steps)d steps, %(kept)d kept, %(degenerate_chords)d degenerate chords",
        {"method": method, "steps": steps, "kept": kept, "degenerate_chords": degenerate_chords},
    )


def _standard_normals(U: np.ndarray, k: int) -> np.ndarray:
    """Box-Muller on each row ``[u1 (pairs), u2 (pairs), ...]`` of ``U``: k normals per row."""
    pairs = (k + 1) // 2
    radius = np.sqrt(-2.0 * np.log1p(-U[:, :pairs]))
    angle = 2.0 * math.pi * U[:, pairs : 2 * pairs]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)[:, :k]


def sample_dirichlet(V: VertexSet, cfg: SamplerConfig) -> List[Pmf]:
    """Dirichlet(1)-weighted vertex mixtures.

    Every draw lies in the polytope by convexity.  Uniform over the
    polytope only when it is a segment; see the module note.
    """
    n_d = len(V)
    if n_d == 0:
        raise DomainError("cannot sample from an empty vertex set")
    M = V.float_matrix
    rng = _rng(cfg.seed)
    rows = max(1, _BLOCK_UNIFORMS // n_d)
    cells = np.empty((cfg.count, M.shape[1]))
    for start in range(0, cfg.count, rows):
        block = cells[start : start + rows]
        # -log(1 - U) are iid Exp(1); normalizing gives symmetric Dirichlet(1).
        exponentials = -np.log1p(-rng.random((len(block), n_d)))
        totals = exponentials.sum(axis=1)[:, None]
        thetas = np.divide(
            exponentials, totals, out=np.full_like(exponentials, 1.0 / n_d), where=totals > 0
        )
        np.matmul(thetas[:, None, :], M, out=block[:, None, :])
    _log("dirichlet", cfg.count, cfg.count, 0)
    return _float_pmfs(V.constraints.d, cells)


def sample_hit_and_run(H: ConstraintMatrix, start: Pmf, cfg: SamplerConfig) -> List[Pmf]:
    """Hit-and-run walk over the feasible polytope, targeting uniformity.

    ``start`` must satisfy the constraints (within ``START_TOL``) and be
    nonnegative.  On a zero-dimensional polytope the single point is
    repeated ``count`` times.  The walk moves in ``H.kernel_chart``, built
    on the first walk on H.
    """
    p0 = start.to_float() if start.mode != FLOAT else start
    if 2**p0.d != H.n_cols:
        raise DomainError(f"start pmf has {2**p0.d} cells but H has {H.n_cols} columns")
    res = max(abs(r) for r in residual(H, p0))
    if res > START_TOL:
        raise DomainError(f"start point violates the constraints (residual {res:.3e})")

    N = H.kernel_chart
    n, k = N.shape
    if not k:
        _log("hitrun", 0, cfg.count, 0)
        return [p0] * cfg.count

    x0 = np.array(p0.cells, dtype=float)
    c = np.zeros(k)
    point = x0.copy()
    rng = _rng(cfg.seed)
    draws = np.empty((cfg.count, n))
    kept = 0
    steps_until_keep = cfg.burn_in
    steps = degenerate = 0
    # one block row per step: u1 and u2 for Box-Muller, then the chord uniform t
    skip_t = 2 * ((k + 1) // 2)
    stride = skip_t + 1
    rows = max(1, _BLOCK_UNIFORMS // stride)
    stream = np.empty(0)
    chord_ends = np.maximum.reduceat
    last_cell = n - 1
    segments = np.zeros(2, dtype=np.intp)

    while kept < cfg.count:
        if len(stream) < stride:
            stream = np.concatenate([stream, rng.random(rows * stride)])
        block = stream[: len(stream) // stride * stride].reshape(-1, stride)
        z = _standard_normals(block, k)
        # a zero norm gives a NaN direction, which bounds no cell: a degenerate chord below
        with np.errstate(divide="ignore", invalid="ignore"):
            directions_k = z / np.sqrt(np.vecdot(z, z))[:, None]
        # the chord tables of the module note: per step, [-direction, direction]
        signed = np.empty((len(block), 2, n))
        np.matmul(N, directions_k[:, :, None], out=signed[:, 1, :, None])
        np.negative(signed[:, 1], out=signed[:, 0])
        bounding = signed < -CHORD_EPS
        flat = np.flatnonzero(bounding)
        # n = 2^d, so the low bits of a flat index are its cell
        cells = flat & last_cell
        divisors = signed.take(flat)
        # step i's lower cells are ends[2i]:ends[2i+1], its upper cells ends[2i+1]:ends[2i+2]
        ends = [0] + np.count_nonzero(bounding, axis=2).cumsum().tolist()
        used = block.size
        for i, (direction_k, lo, mid, hi, u) in enumerate(
            zip(directions_k, ends[0::2], ends[1::2], ends[2::2], block[:, -1].tolist())
        ):
            if lo == mid or mid == hi:
                # a side with no cell leaves the chord unbounded
                t_lo = t_hi = math.nan
            else:
                segments[1] = mid - lo
                t_lo, t_hi = chord_ends(point.take(cells[lo:hi]) / divisors[lo:hi], segments).tolist()
                t_hi = -t_hi
            if not (math.isfinite(t_lo) and math.isfinite(t_hi)) or t_hi < t_lo:
                # degenerate chord: resample the direction; no t was drawn for this step
                degenerate += 1
                used = i * stride + skip_t
                break

            t = t_lo + u * (t_hi - t_lo)
            c = c + t * direction_k
            point = x0 + N.dot(c)
            steps += 1

            if steps_until_keep > 0:
                steps_until_keep -= 1
                continue
            steps_until_keep = cfg.thinning
            np.maximum(point, 0.0, out=draws[kept])
            kept += 1
            if kept == cfg.count:
                break
        stream = stream[used:]
    _log("hitrun", steps, kept, degenerate)
    return _float_pmfs(p0.d, draws)
