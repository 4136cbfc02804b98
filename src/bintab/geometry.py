"""Exact vertex enumeration and mixture operations on the feasible polytope.

The feasible tables for a target system form the polyhedral cone
``C(H) = {y >= 0 : H y = 0}``; its extreme rays, normalized to total mass
one, are the extreme pmfs (vertices) of the polytope ``F(H)`` of feasible
probability tables.  Rays are enumerated with the double description
method in exact integer arithmetic:

1. start from the nonnegative orthant, whose extreme rays are the unit
   vectors;
2. insert the hyperplanes ``h . y = 0`` one at a time, each ``h`` a row of
   the primitive integer matrix ``H.int_rows`` (margin rows first, then
   moment rows); the rays of the refined cone are the old rays lying
   on the hyperplane plus one positive combination ``(h.r+) r- - (h.r-) r+``
   for every *adjacent* pair split by it.

Adjacency of extreme rays r1, r2 in a pointed cone ``{y >= 0: A y = 0}``
has an algebraic form: with S the union of their supports, r1 and r2 span
a 2-face iff ``rank(A restricted to the S columns) == |S| - 2``.  On a
*minimal* generating set, the extreme rays and nothing else, the
combinatorial test is equivalent to it: r1 and r2 are adjacent iff no
third ray has its support inside S (Fukuda & Prodon, "Double description
method revisited", 1996).  The cone is pointed, and every step keeps the
rays on the hyperplane and adds one primitive ray per adjacent split pair,
so the ray set stays exactly the extreme rays from the unit vectors onward,
and the combinatorial test decides adjacency exactly.

The kernel-dimension bound decides many pairs before that test.  Let r_a
and r_b be extreme rays with supports S_a and S_b, and U their union.  As
r_a is extreme, the kernel of A on the S_a columns is the line through
r_a, and each column added to S_a raises the kernel's dimension by at most
one, so ``dim ker(A_U) <= 1 + |U - S_a|``; the same holds with S_b.  Both
rays lie in that kernel and are independent, so its dimension is at least
2.  Hence when ``|U| <= max(|S_a|, |S_b|) + 1`` the kernel is a plane,
``rank(A_U) == |U| - 2``, and the pair is adjacent by the algebraic test.
Only the other pairs within the popcount bound go to the subset count: on
the moment rows of the d=4 pool systems of the benchmark, about one pair
in five with uniform margins and fewer than one in a hundred with observed
margins; on equicorrelated d=5, four in five.  The adjacent pairs and
their order are the same either way.

No ray needs to be deduplicated.  A new ray is a positive combination of
its pair, so it lies in the relative interior of the 2-face the pair spans,
and that 2-face is the smallest face of the old cone containing it.
Different adjacent pairs span different 2-faces, and an old ray spans only
a 1-face, so each new ray comes from exactly one pair and equals no ray
already on the hyperplane.

Each row is one pass of whole-array numpy operations over the (rays x 2^d)
integer matrix R of the current rays, each gather a ``take``:

* the values ``R @ h`` and the sign split: three ``nonzero`` calls list the
  negative, zero and positive rays, each in index order;
* the popcount bound, a necessary condition on each split pair: the rank is
  at most the number of rows inserted so far, so ``|S| <= rows + 2``.  The
  ray supports are kept as bit masks, one row per ray of the narrowest
  unsigned word that holds 2^d bits: uint8 up to d=3, uint16 at d=4,
  uint32 at d=5, and ``2^d / 64`` uint64 words from d=6.  The masks of the
  positive and of the negative rays are gathered once, and for blocks of
  positive rays against all negative rays (about 1 MB of unions of one
  word each) the popcount is added up word by word, in uint8 below 256
  cells and uint16 from 256.  The flat indices of the pairs within the
  bound give the pairs in pos-major, neg-minor order through one
  ``divmod``, and the popcounts at those indices are their union sizes
  (:func:`_popcount_pairs`);
* the kernel-dimension bound on those pairs (:func:`_kernel_bound`): the
  support size of each positive and negative ray, one popcount per ray,
  against each union size;
* the subset count over the pairs the bound leaves, skipped when it
  leaves none (:func:`_subset_adjacent`), in chunks of about 1 MB of one
  word per (pair, ray): a ray lies inside a union when masking it by the
  union leaves it unchanged, one AND and one compare per word, and a pair
  is adjacent when exactly 2 rays lie inside its union, counted in uint32;
* one expression ``(h.r_a) r_b - (h.r_b) r_a`` builds every new ray, and
  one gcd reduce and one division across a cells-major copy make them all
  primitive.  New rays follow the rays on the hyperplane in pos-major,
  neg-minor pair order.  Both terms are nonnegative and the gcd is
  positive, so the support of a new ray is the union of its pair's
  supports: its mask is ``masks[a] | masks[b]``, and :func:`_mask_words`
  reads masks off ray entries only on the orthant.

R is int64 only while a bound computed from the data proves that no
intermediate overflows (``_linalg._exact``): ``n * max|h| * max|R| < 2^62``
before the values, ``2 * max|h.r| * max|R| < 2^62`` before the
combination, with one ``max|R|`` per row, which is ``R.max()`` as rays are
nonnegative, and every ``max|h|`` taken at once.  Otherwise the same
operations run on Python ints (``dtype=object``), so results stay exact for
any target precision.  The division that makes new rays primitive has
three regimes, by the combination bound ``2 * max|h.r| * max|R|``:

* below 2^53, a float64 true division written back into the int64 array
  in place: every entry and its gcd are integers below 2^53, so float64
  holds them exactly, and the quotient is an integer below 2^53, which the
  correctly rounded division returns exactly.  It skips the hardware
  integer division of ``//``;
* from 2^53 to 2^62, the int64 floor divide ``new //= g``;
* from 2^62, the same floor divide on Python ints.

Each inserted row emits one debug record on the ``bintab.geometry`` logger
with its counts: rays in and out, candidate pairs, and pairs left after
each filter.

The shared margin cone.  Every system of one d with uniform margins starts
with the same d margin rows, and the adjacency test depends only on the
rows inserted so far, so the cone after an identical row prefix is the
same object, rays in the same order, whichever rows follow.
:func:`_extreme_rays` takes the cone after H's leading margin rows from
:func:`_margin_cone`, a ``functools.lru_cache`` of at most
``_MARGIN_CONES`` = 4 cones keyed by the number of cells, the margin labels
and their exact integer rows, and inserts only the rows after them; a
uniform-margin d=4 system inserts its 6 moment rows into the 48 rays of
the margin polytope, and the d=5 margin polytope (2,712 rays, about 0.7 MB)
is built once.  Observed margins differ from system to system, so their
cones are built and cached each time; at d=5 such a cone can hold tens of
thousands of rays (29,272, about 7.5 MB, on one test system), which is
what keeps the cache this small.  The key also holds
``_linalg._INT64_BOUND``, so a cone built under one overflow rule never
serves another and the rays keep the dtype a build from scratch gives
them.  A cached cone holds its read-only rays and masks, the label of the
row that emptied it, if one did, and each row's debug record, which is
emitted again on every use, so the row trace is complete either way.

Nonemptiness, the affine dimension and the hit-and-run start all come
from one exact relative-interior point (:func:`_relative_interior`): the
second-order table of the targets (Bahadur 1961), in integers, when every
cell is positive and ``H y = 0`` holds exactly.  Then the affine hull is
``{H y = 0, sum(y) = 1}`` (the all-ones row is not in the row space of H,
as the point has a positive sum) and the dimension is ``2^d - 1 - rank(H)``.
Otherwise one ray pass runs: every feasible table is zero off S, the cells
some vertex uses, and the vertex centroid is positive on S, so the
dimension is ``|S| - 1 - rank(H on the S columns)``, exact on degenerate
polytopes too.  Each certificate attempt emits one debug record whose
mapping arguments are ``certified`` and ``rank``.
The point and the dimension are cached on the system, as
``ConstraintMatrix.relative_interior``, so repeated queries on one H
(:func:`polytope_dimension`, the CLI hit-and-run start) run the attempt
once; a failure, such as an empty polytope, is not cached.

:func:`enumerate_vertices` is the one entry point.  Its :class:`VertexSet`
holds the exact integer keys ``ray * (L // sum(ray))``, with L the lcm of
the ray sums: row j is vertex j scaled by L, with entries at most L, so
int64 below the bound and Python ints otherwise, with the scales
``L // sums`` formed as one array division under the same rule.  One
whole-matrix check, every entry >= 0 and every row sum > 0, proves every
row over L a valid rational pmf.  Candidate pairs are scanned in a fixed
order and the rows are sorted in descending lexicographic order, which
also pairs reflected vertices stably.  Nonnegative int64 rows compare as
their big-endian bytes do, so one ``argsort`` of the byte rows, each row
viewed as one void item, orders them (:func:`_descending_order`); the
bytes are swapped in place and back, so the sort copies no key.  Python-int
keys keep ``lexsort``.  Every reader uses the keys; the vertex pmfs (one
``Fraction(k, L)`` per distinct entry k, without per-pmf validation) and
the float matrix (each entry the correctly rounded ``k / L``) are built
from them once, on first access.

:func:`decompose` proposes a support with a numpy Lawson-Hanson
nonnegative least-squares solver (:func:`_nnls`) and certifies it exactly
over the integer keys.  The solver works on the passive columns alone and
never forms the n x n Gram matrix of the n vertices, so its memory is
O(m n) for the m = 2^d + 1 rows.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _linalg
from ._linalg import _exact, _int_rref, _max_abs, frac_solve
from .constraints import ConstraintMatrix, MarginTargets
from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyFeasibleSetError,
    NotInPolytopeError,
)
from .table import FLOAT, RATIONAL, Pmf, _bit, _probability_vector, float_cells

#: Size of the (candidate pairs x rays) block of one vectorized subset test.
_SUBSET_BLOCK_BYTES = 1 << 20

#: Integers below this are exact in float64, and so is the quotient of two of them that divide.
_FLOAT_EXACT_BOUND = 1 << 53

#: Most margin cones :func:`_margin_cone` keeps.
_MARGIN_CONES = 4

logger = logging.getLogger(__name__)

@dataclass(frozen=True, eq=False)
class VertexSet:
    """Extreme pmfs of the feasible polytope, in canonical order.

    Row j of ``keys`` (int64, or Python ints past the bound) is vertex j
    times ``scale``.  ``empty_certificate`` names the constraint row whose
    insertion emptied the cone, when enumeration ended with no vertices.
    """

    keys: np.ndarray
    scale: int
    constraints: ConstraintMatrix
    empty_certificate: Optional[tuple] = None

    def __post_init__(self):
        # every reader shares the keys, and .vertices is cached from them
        self.keys.flags.writeable = False

    def __len__(self) -> int:
        return len(self.keys)

    def key_values(self) -> Tuple[list, dict]:
        """The key rows as lists of ints, and the cell value ``Fraction(k, scale)`` of each distinct key k.

        Readers of the cells map each row through the dict, so a value is
        built once however often it occurs: most cells of a vertex are 0.
        """
        rows = self.keys.tolist()
        return rows, {k: Fraction(k, self.scale) for k in set().union(*rows)}

    @functools.cached_property
    def vertices(self) -> Tuple[Pmf, ...]:
        """The vertices as rational pmfs, built on first access."""
        rows, values = self.key_values()
        return tuple(Pmf._valid(self.constraints.d, tuple(map(values.__getitem__, row)), RATIONAL) for row in rows)

    @functools.cached_property
    def float_matrix(self) -> np.ndarray:
        """The vertices as rows of floats; each ``k / scale`` in Python ints is correctly rounded."""
        matrix = np.array([k / self.scale for k in self.keys.ravel().tolist()]).reshape(self.keys.shape)
        matrix.flags.writeable = False
        return matrix

    @property
    def dimension(self) -> int:
        """Exact affine dimension of the polytope (-1 when it is empty)."""
        # |S| - 1 - rank(H on the S columns), S the cells some vertex uses
        cols = np.flatnonzero(self.keys.any(axis=0))
        _, pivots = _int_rref(self.constraints.int_rows[:, cols])
        return len(cols) - 1 - len(pivots)


@dataclass(frozen=True)
class MixtureWeights:
    """Nonnegative weights summing to one over a vertex set.

    Rational weights must sum to 1 exactly; float weights may be off by up
    to 1e-9 and are renormalized exactly on construction.
    """

    theta: tuple

    def __post_init__(self):
        rational = all(isinstance(t, (int, Fraction)) for t in self.theta)
        theta = _probability_vector(self.theta, rational, "mixture weight", 1e-9)
        if not rational:
            total = math.fsum(theta)
            theta = tuple(t / total for t in theta)
        object.__setattr__(self, "theta", theta)


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------


def _mask_words(R: np.ndarray) -> np.ndarray:
    """Support masks of the rows of R, bit c for cell c, in the narrowest unsigned word of n bits (uint64 past 64)."""
    nbytes = -(-R.shape[1] // 8)
    return np.packbits(R != 0, axis=1, bitorder="little").view(f"<u{min(nbytes, 8)}")


def _popcount_pairs(masks_pos: np.ndarray, masks_neg: np.ndarray, max_support: int):
    """The split pairs whose union has at most ``max_support`` cells, and each union's cell count.

    The pairs are index arrays into ``masks_pos`` and ``masks_neg``, in
    pos-major, neg-minor order.
    """
    n_words, word_bytes, n_neg = masks_pos.shape[1], masks_pos.itemsize, len(masks_neg)
    # a popcount is at most the cell count (8 bits at d <= 3), which uint8 holds below 256
    count_dtype = np.uint8 if 8 * word_bytes * n_words < 256 else np.uint16
    block = max(1, _SUBSET_BLOCK_BYTES // (word_bytes * n_neg))
    flat, unions = [], []
    for start in range(0, len(masks_pos), block):
        part = masks_pos[start : start + block]
        support = np.empty((len(part), n_neg), count_dtype)
        np.bitwise_count(part[:, None, 0] | masks_neg[None, :, 0], out=support)
        for w in range(1, n_words):
            support += np.bitwise_count(part[:, None, w] | masks_neg[None, :, w])
        within = (support.ravel() <= max_support).nonzero()[0]
        unions.append(support.ravel().take(within))
        flat.append(within + start * n_neg)
    flat, unions = np.concatenate(flat), np.concatenate(unions)
    a, b = divmod(flat, n_neg)
    return a, b, unions


def _subset_adjacent(masks: np.ndarray, unions: np.ndarray) -> np.ndarray:
    """Whether exactly two of the rays ``masks`` lie inside each union mask: the combinatorial adjacency test."""
    n_words, word_bytes = masks.shape[1], masks.itemsize
    chunk = max(1, _SUBSET_BLOCK_BYTES // (word_bytes * len(masks)))
    adjacent = np.empty(len(unions), dtype=bool)
    for start in range(0, len(unions), chunk):
        part = unions[start : start + chunk]
        inside = (masks[:, 0] & part[:, 0, None]) == masks[:, 0]
        for w in range(1, n_words):
            inside &= (masks[:, w] & part[:, w, None]) == masks[:, w]
        # the pair itself always lies inside its union; a third ray there rules it out.
        # A cone can hold more rays than uint16 counts (104,880 at d=5), so the count is uint32
        adjacent[start : start + chunk] = inside.view(np.uint8).sum(axis=1, dtype=np.uint32) == 2
    return adjacent


def _kernel_bound(masks_pos: np.ndarray, masks_neg: np.ndarray, a: np.ndarray, b: np.ndarray, unions: np.ndarray):
    """Which pairs ``(a, b)`` with union sizes ``unions`` the kernel-dimension bound proves adjacent.

    A pair is proved adjacent when its union has at most one cell more than
    the larger of its two supports (the module note).
    """
    sizes = []
    for masks in (masks_pos, masks_neg):
        counts = np.bitwise_count(masks)
        # one more than each support; a one-word mask needs no sum
        sizes.append((counts[:, 0] if masks.shape[1] == 1 else counts.sum(axis=1)) + 1)
    return unions <= np.maximum(sizes[0].take(a), sizes[1].take(b))


def _adjacent_pairs(masks: np.ndarray, pos: np.ndarray, neg: np.ndarray, inserted: int):
    """The adjacent split pairs as index arrays (pos-major, neg-minor), and how many passed the popcount bound."""
    masks_pos, masks_neg = masks.take(pos, axis=0), masks.take(neg, axis=0)
    # rank(A_S) <= inserted, so an adjacent pair has |S| <= inserted + 2
    a, b, unions = _popcount_pairs(masks_pos, masks_neg, inserted + 2)
    within = len(a)
    adjacent = _kernel_bound(masks_pos, masks_neg, a, b, unions)
    rest = (~adjacent).nonzero()[0]
    if len(rest):
        unions = masks_pos.take(a.take(rest), axis=0) | masks_neg.take(b.take(rest), axis=0)
        adjacent[rest] = _subset_adjacent(masks, unions)
        a, b = a[adjacent], b[adjacent]
    return pos.take(a), neg.take(b), within


def _insert_equality(
    R: np.ndarray,
    masks: np.ndarray,
    inserted: int,
    h: np.ndarray,
    h_max: int,
) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Refine the cone by ``h . y = 0``; return the new ray matrix, its masks and the row's counts.

    ``R`` holds one ray per row, ``h`` is one row of ``int_rows``, ``h_max``
    is ``max|h|`` and ``inserted`` is the number of rows inserted before ``h``.
    """
    # rays are nonnegative, and the cone holds at least one
    r_max = int(R.max())
    R, h = _exact(len(h) * h_max * r_max, R, h)
    vals = R @ h
    # rays by sign, each group in index order
    neg, zero, pos = (vals < 0).nonzero()[0], (vals == 0).nonzero()[0], (vals > 0).nonzero()[0]
    counts = {
        "rays_in": len(R),
        "candidate_pairs": len(pos) * len(neg),
        "popcount_pairs": 0,
        "subset_pairs": 0,
    }
    if not len(pos) or not len(neg):
        return R.take(zero, axis=0), masks.take(zero, axis=0), counts
    a, b, counts["popcount_pairs"] = _adjacent_pairs(masks, pos, neg, inserted)
    counts["subset_pairs"] = len(a)
    bound = 2 * _max_abs(vals) * r_max
    R, vals = _exact(bound, R, vals)
    # vals[a] > 0 > vals[b]: a positive combination of r_a and r_b on the hyperplane; cells-major, one
    # gcd reduce runs across all new rays at once instead of along each short row
    new = (vals.take(a)[:, None] * R.take(b, axis=0) - vals.take(b)[:, None] * R.take(a, axis=0)).T.copy()
    g = np.gcd.reduce(new, axis=0)
    if bound < _FLOAT_EXACT_BOUND and new.dtype == np.int64:
        # every entry, the gcd and the quotient are integers below 2^53, so the float64 quotient is
        # exact; it is written back in place
        np.divide(new, g, out=new, casting="unsafe")
    else:
        new //= g
    # both rays are nonnegative, so the support of the new ray is the union of theirs
    unions = masks.take(a, axis=0) | masks.take(b, axis=0)
    return np.concatenate([R.take(zero, axis=0), new.T]), np.concatenate([masks.take(zero, axis=0), unions]), counts


def _log_row(counts: dict) -> None:
    logger.debug(
        "row %(row)s: %(rays_in)d -> %(rays_out)d rays; %(candidate_pairs)d candidate pairs, "
        "%(popcount_pairs)d within the popcount bound, %(subset_pairs)d adjacent",
        counts,
    )


def _insert_rows(R: np.ndarray, masks: np.ndarray, inserted: int, labels: Sequence, rows, record):
    """Insert ``rows`` in order after ``inserted`` earlier ones, passing each row's counts to ``record``.

    Returns the ray matrix, its masks and the label of the row that emptied
    the cone (None when none did).
    """
    h_max = np.abs(rows).max(axis=1, initial=0).tolist()
    for inserted, (label, h, h_abs) in enumerate(zip(labels, rows, h_max), inserted):
        R, masks, counts = _insert_equality(R, masks, inserted, h, h_abs)
        counts.update(row=label, rays_out=len(R))
        record(counts)
        if not len(R):
            return R, masks, label
    return R, masks, None


@dataclass(frozen=True, eq=False)
class _Cone:
    """The cone after a row prefix: read-only rays and masks, the emptying label, and each row's counts."""

    R: np.ndarray
    masks: np.ndarray
    emptied: Optional[tuple]
    records: Tuple[dict, ...]


@functools.lru_cache(maxsize=_MARGIN_CONES)
def _margin_cone(n_cols: int, labels: tuple, rows: tuple, int64_bound: int) -> _Cone:
    """The cone after the margin rows ``rows``, from the orthant; ``int64_bound`` only keys the cache."""
    R = np.eye(n_cols, dtype=np.int64)
    records = []
    rows = np.array(rows, dtype=object).reshape(len(rows), n_cols)  # 2-D when there are no rows too
    R, masks, emptied = _insert_rows(R, _mask_words(R), 0, labels, rows, records.append)
    R.flags.writeable = masks.flags.writeable = False
    return _Cone(R, masks, emptied, tuple(records))


def _extreme_rays(H: ConstraintMatrix) -> Tuple[np.ndarray, Optional[tuple]]:
    """Extreme rays of ``{y >= 0 : H y = 0}``, unsorted, and the label of the row that emptied it.

    The rays are the rows of one integer matrix (int64, or Python ints past
    the overflow bound), each primitive; the label is None unless the cone
    is {0}, when the matrix has no rows.  The cone after H's leading margin
    rows comes from :func:`_margin_cone`, whose row records are logged
    again; the rest of the rows are inserted here.
    """
    k = next((r for r, label in enumerate(H.labels) if label[0] != "margin"), H.n_rows)
    margin_rows = tuple(map(tuple, H.int_rows[:k].tolist()))
    cone = _margin_cone(H.n_cols, H.labels[:k], margin_rows, _linalg._INT64_BOUND)
    for counts in cone.records:
        _log_row(dict(counts))
    if cone.emptied is not None:
        return cone.R, cone.emptied
    R, _, emptied = _insert_rows(cone.R, cone.masks, k, H.labels[k:], H.int_rows[k:], _log_row)
    return R, emptied


def _descending_order(keys: np.ndarray) -> np.ndarray:
    """The row order that sorts ``keys``, distinct nonnegative integer rows, in descending lexicographic order."""
    if keys.dtype != np.int64:
        return np.lexsort(keys.T[::-1])[::-1]
    # nonnegative int64 rows compare as their big-endian bytes do, so one argsort of the byte rows
    # orders them; on a little-endian machine the bytes are swapped in place, and back
    swap = sys.byteorder == "little"
    if swap:
        keys.byteswap(inplace=True)
    order = np.argsort(keys.view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0])
    if swap:
        keys.byteswap(inplace=True)
    return order[::-1]


def enumerate_vertices(H: ConstraintMatrix) -> VertexSet:
    """Extreme pmfs of the feasible polytope: each extreme ray divided by its coordinate sum."""
    R, certificate = _extreme_rays(H)
    (R,) = _exact(R.shape[1] * _max_abs(R), R)
    sums = R.sum(axis=1)
    # every entry >= 0 and every sum > 0: each row over its sum is a valid rational pmf
    if not ((R >= 0).all() and (sums > 0).all()):
        raise AssertionError("extreme ray with a negative entry or nonpositive sum; enumeration invariant broken")
    L = math.lcm(*sums.tolist())
    R, sums = _exact(L, R, sums)
    keys = R * (L // sums)[:, None]  # the vertices times L
    # descending lexicographic order; the keys are distinct
    keys = keys.take(_descending_order(keys), axis=0)
    return VertexSet(keys=keys, scale=L, constraints=H, empty_certificate=certificate)


def _require_nonempty(V: VertexSet):
    """Raise :class:`EmptyFeasibleSetError` with the certificate of ``V`` when it has no vertex."""
    if not len(V):
        raise EmptyFeasibleSetError("the feasible polytope is empty", certificate=V.empty_certificate)


def _second_order_point(targets: MarginTargets) -> List[int]:
    """M^d times Bahadur's second-order table of the targets, one int per cell; M the lcm of the target denominators.

    With w_j(1) = M m_j, w_j(0) = M - M m_j and P = prod_j w_j(x_j), cell x
    is ``P + sum_{k<l} +-(M^2 mu_kl - M m_k M m_l) (P // (w_k w_l))``, + where
    x_k = x_l: every target margin and moment, and no interaction of order 3
    or more.  Under uniform margins it is the L2 projection of the uniform
    table onto the affine hull.  Every w_j > 0, so each division is exact.
    """
    d = targets.d
    M = math.lcm(*(t.denominator for t in (*targets.univariate, *targets.moments.values())))
    ones = [int(M * m) for m in targets.univariate]
    pairs = [(i - 1, j - 1, int(M * M * mu) - ones[i - 1] * ones[j - 1]) for (i, j), mu in targets.moments.items()]
    y = []
    for cell in range(2**d):
        x = [_bit(cell, d, i) for i in range(1, d + 1)]
        w = [a if v else M - a for a, v in zip(ones, x)]
        P = math.prod(w)
        y.append(P + sum((c if x[k] == x[l] else -c) * (P // (w[k] * w[l])) for k, l, c in pairs))
    return y


def _relative_interior(H: ConstraintMatrix) -> Tuple[Tuple[int, ...], int]:
    """An exact relative-interior point of the feasible polytope, and its affine dimension.

    ``y`` is a nonnegative integer vector with ``H y = 0``, positive on
    every cell some feasible table uses.  The proposal is the second-order
    table of H's targets (:func:`_second_order_point`); when every cell of
    it is positive and ``H y = 0`` holds exactly on the integer rows, ``y``
    proves the dimension ``2^d - 1 - rank(H)``.  The rank is ``H.rank``:
    the row count of a :func:`build_H` system, whose rows are independent
    by the Walsh triangularity of the ``constraints`` module note, so no
    elimination runs; a system built by hand is eliminated by
    ``_int_rref``.  The debug record carries that rank either way.
    Otherwise :func:`enumerate_vertices` runs: ``y`` is the column sums of
    its keys (the vertex centroid, up to scale), and the dimension is
    :attr:`VertexSet.dimension`.  An empty polytope raises
    :class:`EmptyFeasibleSetError` with the row that emptied the cone.
    """
    y = _second_order_point(H.targets)
    rows, point = _exact(H.n_cols * _max_abs(H.int_rows) * max(map(abs, y)), H.int_rows, np.array(y, dtype=object))
    certified = min(y) > 0 and not (rows @ point).any()
    logger.debug(
        "interior point certificate: certified %(certified)s, rank %(rank)d",
        {"certified": certified, "rank": H.rank},
    )
    if certified:
        return tuple(y), H.n_cols - 1 - H.rank
    V = enumerate_vertices(H)
    _require_nonempty(V)
    (keys,) = _exact(len(V) * V.scale, V.keys)  # each column sums at most len(V) entries <= L
    return tuple(keys.sum(axis=0).tolist()), V.dimension


def polytope_dimension(H: ConstraintMatrix) -> int:
    """Affine dimension of the feasible polytope, exact even when degenerate.

    Read from ``H.relative_interior``, which runs :func:`_relative_interior`
    once per H; that runs the ray pass only when no full-support feasible
    table is certified.

    Raises
    ------
    EmptyFeasibleSetError
        If the polytope is empty.
    """
    return H.relative_interior[1]


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def mixture(weights: Union[MixtureWeights, Sequence], V: VertexSet) -> Pmf:
    """Convex combination ``sum_i theta_i r_i`` of the vertex set."""
    if not isinstance(weights, MixtureWeights):
        weights = MixtureWeights(tuple(weights))
    theta = weights.theta
    if len(theta) != len(V):
        raise DimensionMismatchError(f"{len(theta)} weights for {len(V)} vertices")
    d = V.constraints.d
    if all(isinstance(t, Fraction) for t in theta):
        # over the common denominator M of theta: cell k is sum_j (M theta_j) keys[j, k] / (M L)
        M = math.lcm(*(t.denominator for t in theta))
        w = np.array([t.numerator * (M // t.denominator) for t in theta], dtype=object)
        w, keys = _exact(M * V.scale, w, V.keys)  # every product and sum is at most M L
        cells = tuple(Fraction(k, M * V.scale) for k in (w @ keys).tolist())
        return Pmf(d=d, cells=cells, mode=RATIONAL)
    products = np.array(theta)[:, None] * V.float_matrix
    cells = tuple(math.fsum(column) for column in products.T.tolist())
    return Pmf(d=d, cells=cells, mode=FLOAT)


def _nnls(A: np.ndarray, b: np.ndarray, max_iter: Optional[int] = None) -> np.ndarray:
    """Nonnegative least squares ``min ||A x - b||, x >= 0`` (Lawson & Hanson, 1974).

    The active-set method: the outer loop frees the column of largest
    gradient ``w = A^T (b - A x)``; the inner loop steps back along the
    segment towards the passive-set solution while that has a nonpositive
    entry, dropping the entries it zeroes.  Each passive-set subproblem is
    solved on the Gram matrix of the passive columns alone, ``A_P^T A_P``,
    and falls back to ``lstsq`` on those columns when it is singular; the
    full n x n Gram matrix is never formed, so memory stays O(m n) (at
    21,633 vertices that Gram matrix alone would take 3.5 GiB).  Every solve
    counts against ``max_iter`` (default ``3 n``); at the cap the current
    iterate is returned, so the solver always returns a nonnegative ``x``.
    """
    m, n = A.shape
    # the largest squared column norm is the largest diagonal entry of A^T A
    tol = 10 * max(m, n) * np.finfo(float).eps * max(1.0, float(np.einsum("ij,ij->j", A, A).max(initial=0)))
    budget = 3 * n if max_iter is None else max_iter
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = A.T @ b

    def solve(target: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``A[:, passive] s = target``, zero off the passive set."""
        s = np.zeros(n)
        idx = np.flatnonzero(passive)
        A_P = A[:, idx]
        try:
            s[idx] = np.linalg.solve(A_P.T @ A_P, target @ A_P)
        except np.linalg.LinAlgError:
            s[idx] = np.linalg.lstsq(A_P, target, rcond=None)[0]
        return s

    while budget > 0:
        j = int(np.argmax(np.where(passive, -np.inf, w)))
        if passive[j] or w[j] <= tol:
            break
        passive[j] = True
        s = solve(b)
        budget -= 1
        while passive.any() and s[passive].min() <= 0:
            if budget == 0:
                return x
            neg = passive & (s <= 0)
            # x > 0 on the passive set but for the new column, where s <= 0 makes the step 0
            alpha = np.min(x[neg] / np.maximum(x[neg] - s[neg], np.finfo(float).tiny))
            x = x + alpha * (s - x)
            passive &= x > tol
            x[~passive] = 0
            s = solve(b)
            budget -= 1
        x = s
        w = A.T @ (b - A @ x)
    # one correction from the residual of A itself (the corrected seminormal
    # equations) brings the Gram solution to the accuracy of a QR solve
    refined = x + solve(b - A @ x)
    return refined if (refined[passive] > 0).all() else x


def decompose(p: Pmf, V: VertexSet, tol: float = 1e-9) -> MixtureWeights:
    """Mixture weights reproducing ``p`` over the vertex set.

    A nonnegative least-squares fit of ``[V; 1] theta = [p; 1]`` by the
    numpy active-set solver :func:`_nnls` (Lawson & Hanson, at most 3n
    passive-set solves for n vertices) proposes the weights; it only
    proposes, so a fit stopped at that cap still ends in exact weights or
    the error below.  When ``p`` is rational, the system on the proposed
    support is solved exactly over the integer keys, and a consistent,
    nonnegative solution, which proves membership, is returned as exact
    weights.  Otherwise the renormalized float fit is returned when its
    max-norm residual is within ``tol``.  Beyond segments the
    representation need not be unique; the answer is the certified
    least-squares support, not a canonical choice.

    Raises
    ------
    DomainError
        If ``tol`` is not a finite number >= 0, or ``V`` is empty.
    NotInPolytopeError
        If neither reproduces ``p``; the error carries the max-norm residual
        of the renormalized least-squares fit.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be finite and >= 0, got {tol}")
    n_d = len(V)
    if n_d == 0:
        raise DomainError("cannot decompose over an empty vertex set")
    d = V.constraints.d
    if p.d != d:
        raise DimensionMismatchError(f"pmf dimension {p.d} != vertex dimension {d}")

    A = V.float_matrix.T
    A_aug = np.vstack([A, np.ones((1, n_d))])
    b_aug = np.concatenate([np.array(float_cells(p)), [1.0]])
    # theta is never 0: at 0, raising any weight lowers the residual, since v.p + 1 > 0
    theta = _nnls(A_aug, b_aug)
    support = np.flatnonzero(theta > 0).tolist()
    if p.mode == RATIONAL:
        # keys[j] = L v_j, so sum_j theta_j keys[j] = L p, next to sum_j theta_j = 1
        rows = V.keys[support].T.tolist() + [[1] * len(support)]
        solved = frac_solve(rows, [V.scale * c for c in p.cells] + [1])
        # any nonnegative solution proves membership, whatever the nullity
        if solved is not None and all(x >= 0 for x in solved[0]):
            exact = dict(zip(support, solved[0]))
            return MixtureWeights(tuple(exact.get(j, Fraction(0)) for j in range(n_d)))
    theta = theta / theta.sum()
    res = float(np.max(np.abs(A @ theta - b_aug[:-1])))
    if res <= tol:
        return MixtureWeights(tuple(float(t) for t in theta))
    raise NotInPolytopeError(
        f"pmf is not in the polytope (least-squares max-norm residual {res:.3e} > tol {tol:.1e})",
        best_residual=res,
    )
