"""Dependence targets and the margin/moment constraint matrix.

A target system prescribes the d univariate margins and the d(d-1)/2
second-order moments mu_ij = P(X_i=1, X_j=1).  Targets derived from odds
ratios are irrational in general, so they are rounded to a caller-chosen
number of decimal digits and stored as exact rationals; exact enumeration
downstream needs rational data, and reproducing published 3-digit examples
needs ``digits=3``.  One solver, :func:`moment_for_margins`, serves both
margin modes (uniform margins are margins 1/2); it rounds each root half up
exactly, in integer arithmetic, so a target is the correctly rounded root
however close the root lies to a tie.  Its integer core, :func:`_moment`,
takes the odds ratio and the two margins as integer pairs, not necessarily
in lowest terms: :func:`targets_from_pmf` passes the count products
n11*n00 and n10*n01 and the margins (1, 2) or (ones_i, L), and builds no
``Fraction`` for them.  :meth:`MarginTargets.frechet_violation` checks the
Frechet bounds by cross-multiplying numerators and denominators.

The homogeneous constraint matrix H couples a cell vector p to the targets:

* margin row i: ``+1`` on cells with alpha_i = 0 and ``-1`` on cells with
  alpha_i = 1 (uniform mode), so that ``row . p = m_i^0 - m_i^1``;
  in general-margin mode the row is ``+m_i`` on alpha_i = 0 cells and
  ``-(1 - m_i)`` on alpha_i = 1 cells, so that ``row . p = 0`` iff the
  axis-i margin of p/sum(p) equals the target.
* moment row (i, j): ``mu_ij - 1`` on cells with alpha_i*alpha_j = 1 and
  ``mu_ij`` elsewhere, so that ``row . p = mu_ij*sum(p) - m_ij^11``.

Integer rows come first.  Each row scaled to primitive integers is known
in closed form, and :func:`build_H` keeps only its terms: with m_i = a/b
a margin row is ``a`` on alpha_i = 0 cells and ``a - b`` on alpha_i = 1
cells, and with mu_ij = a/b a moment row is ``a`` off the pair cells and
``a - b`` on them; gcd(a, a - b) = gcd(a, b) = 1, so each is primitive.
A rational entry is the primitive entry over b, except that a uniform
margin row (m_i = 1/2) is the primitive row itself, +-1.

The nonnegative kernel of H is the cone of all feasible (unnormalized)
tables; intersecting with the probability simplex gives the feasible
polytope handled by :mod:`bintab.geometry`.

H builds on first read, once each, what the system determines and the
queries on it read: ``int_rows``, which every exact reader of H uses;
``rows``, which the ``bintab constraints`` output and an exact
:func:`residual` read; ``rank``; ``relative_interior``, read by
``polytope_dimension`` and the CLI hit-and-run start; and
``kernel_chart``, which hit-and-run walks in.  The row space of
``[H; 1]`` is the span of the Walsh characters of order at most 2 for
every :func:`build_H` system, so the chart is the same array for every
such system of one d.  With chi_S(x) = (-1)^(sum of x_i over i in S),
margin row i is ``(m_i - 1/2) chi_{} + chi_i / 2`` and moment row (i, j)
is ``(mu_ij - 1/4) chi_{} + (chi_i + chi_j - chi_ij) / 4``, whatever the
target values: ordered by |S|, ``[H; 1]`` is triangular with a nonzero
diagonal, so the rows of H are independent and ``rank`` is their count,
d + d(d-1)/2, with no elimination.  A read that raises, such as the
:class:`~bintab.errors.EmptyFeasibleSetError` of an empty polytope, caches
nothing, so every later read raises too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .errors import (
    DimensionMismatchError,
    DomainError,
    InfeasibleTargetsError,
    UnsupportedTargetError,
)
from .table import FLOAT, RATIONAL, Pmf, Scalar, _bit, all_pairs

if TYPE_CHECKING:
    import numpy as np

#: Default decimal precision at which moment targets are rationalized.
DEFAULT_DIGITS = 6

#: Largest decimal precision accepted for moment targets.  A double holds 17
#: significant digits, and every printed target passes through Python's
#: int-to-string conversion, which refuses integers past 4,300 digits.
MAX_DIGITS = 1000

#: Default tolerance and sweep cap of :func:`bintab.ipf.ipf_max_entropy`; kept
#: here, in a module free of numpy, so the CLI reads them without loading it.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50_000

UNIFORM = "uniform"
OBSERVED = "observed"

Pair = Tuple[int, int]


def moment_from_odds_ratio(omega, digits: int = DEFAULT_DIGITS) -> Fraction:
    """Second-order moment of the uniform-margin 2x2 table with odds ratio omega.

    The root in (0, 1/2) of ``omega = mu^2 / (1/2 - mu)^2``, that is
    ``mu = sqrt(omega) / (2 (sqrt(omega) + 1))``, rounded half up to
    ``digits`` decimals as an exact rational: :func:`moment_for_margins`
    with both margins 1/2.
    """
    return moment_for_margins(omega, Fraction(1, 2), Fraction(1, 2), digits)


def _check_digits(digits: int) -> None:
    if not 0 <= digits <= MAX_DIGITS:
        raise DomainError(f"digits must be in 0..{MAX_DIGITS}, got {digits}")


def moment_for_margins(omega, mi1, mj1, digits: int = DEFAULT_DIGITS) -> Fraction:
    """Second-order moment matching ``omega`` under prescribed margins.

    With margins a = P(X_i=1), b = P(X_j=1) fixed, the 2x2 table is a
    function of mu alone and its odds ratio equals omega iff

        f(mu) = (omega - 1) mu^2 - (omega (a + b) + 1 - a - b) mu + omega a b = 0.

    f = omega*m01*m10 - m11*m00 falls strictly from f(lo) > 0 to f(hi) < 0 on
    the Frechet interval [lo, hi] = [max(0, a+b-1), min(a, b)], so exactly one
    root lies in it (the product a*b when omega = 1).  The root is rounded
    half up to ``digits`` decimals exactly, in integers: an ``isqrt``
    estimate is settled by the sign of f at the half-way points.  A rounded
    value past a bound becomes that bound, so the targets of any table with
    these margins stay admissible.  ``digits`` must lie in 0..``MAX_DIGITS``.
    """
    _check_digits(digits)
    if isinstance(omega, float) and (math.isnan(omega) or math.isinf(omega)):
        raise DomainError(f"odds ratio must be finite and positive, got {omega}")
    omega, a, b = Fraction(omega), Fraction(mi1), Fraction(mj1)
    # omega = p/q, a = a1/a0, b = b1/b0 in lowest terms, so q, a0, b0 > 0
    p, q = omega.numerator, omega.denominator
    a1, a0, b1, b0 = a.numerator, a.denominator, b.numerator, b.denominator
    if p <= 0:
        raise DomainError(f"odds ratio must be finite and positive, got {omega}")
    if not (0 < a1 < a0 and 0 < b1 < b0):
        raise DomainError("margins must lie strictly between 0 and 1")
    return _moment(p, q, a1, a0, b1, b0, digits)


def _moment(p: int, q: int, a1: int, a0: int, b1: int, b0: int, digits: int) -> Fraction:
    """The rounded root of :func:`moment_for_margins` for omega = p/q, a = a1/a0 and b = b1/b0.

    All six are positive integers, with a1 < a0 and b1 < b0, not
    necessarily in lowest terms: every quantity below is homogeneous in
    each of the pairs (p, q), (a1, a0) and (b1, b0), so scaling a pair
    scales it by a positive factor and leaves every sign the loops test
    unchanged.  The ``isqrt`` estimate may move with the scale; the loops
    settle the one k whatever it starts from.
    """
    # over the common denominator den: a + b = s/den, lo = lo_n/den, hi = hi_n/den
    den = a0 * b0
    s = a1 * b0 + b1 * a0
    lo_n, hi_n = max(0, s - den), min(a1 * b0, b1 * a0)
    # den*q*f, whose coefficients are integers
    qa = (p - q) * den
    qb = -(p * s + q * (den - s))
    qc = p * a1 * b1
    # root * t for t = 2 * 10^digits from a sum of two terms of one sign, so
    # with no cancellation; off by about a unit at most, which the loops settle
    scale = 10**digits
    t = 2 * scale
    sq = math.isqrt((qb * qb - 4 * qa * qc) * t * t)
    if qb <= 0:
        twice = 2 * qc * t * t // (sq - qb * t)
    else:
        twice = (qb * t + sq) // (-2 * qa)
    k = (twice + 1) // 2

    def at_or_below_root(k):
        # (k - 1/2) / scale = n / t: at or below lo, or at or below hi with f >= 0
        n = 2 * k - 1
        if n * den <= lo_n * t:
            return True
        if n * den > hi_n * t:
            return False
        return (qa * n + qb * t) * n + qc * t * t >= 0

    while not at_or_below_root(k):
        k -= 1
    while at_or_below_root(k + 1):
        k += 1
    # rounding can step past a bound that is not a digits-decimal; that bound is
    # then the admissible value nearest to both the rounded and the exact root
    if k * den < lo_n * scale:
        return Fraction(lo_n, den)
    if k * den > hi_n * scale:
        return Fraction(hi_n, den)
    return Fraction(k, scale)


def _fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class MarginTargets:
    """Prescribed univariate margins and second-order moments.

    ``univariate[i-1]`` is the target P(X_i = 1); ``moments[(i, j)]`` the
    target P(X_i = 1, X_j = 1) for every pair i < j.  All values are exact
    rationals and every pair must satisfy the Frechet bounds
    ``max(0, m_i + m_j - 1) <= mu_ij <= min(m_i, m_j)``.
    """

    d: int
    univariate: Tuple[Fraction, ...]
    moments: Dict[Pair, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")
        uni = tuple(map(_fraction, self.univariate))
        if len(uni) != self.d:
            raise DimensionMismatchError(f"expected {self.d} univariate targets, got {len(uni)}")
        if any(not (0 < m.numerator < m.denominator) for m in uni):
            raise DomainError("univariate targets must lie strictly between 0 and 1")
        pairs = all_pairs(self.d)
        moments = {pair: _fraction(self.moments[pair]) for pair in pairs if pair in self.moments}
        missing = [pair for pair in pairs if pair not in moments]
        if missing:
            raise DomainError(f"missing moment targets for pairs {missing}")
        object.__setattr__(self, "univariate", uni)
        object.__setattr__(self, "moments", moments)
        violation = self.frechet_violation()
        if violation is not None:
            raise InfeasibleTargetsError(
                f"moment target for pair {violation} violates the Frechet bounds",
                pair=violation,
            )

    def frechet_violation(self) -> Optional[Pair]:
        """The first pair, in moment order, whose target lies outside its Frechet bounds; None when none does."""
        # max(0, mi + mj - 1) <= mu <= min(mi, mj) with mi = a/b, mj = c/e and
        # mu = n/m, each bound cross-multiplied by the positive denominators
        for (i, j), mu in self.moments.items():
            mi, mj = self.univariate[i - 1], self.univariate[j - 1]
            a, b, c, e = mi.numerator, mi.denominator, mj.numerator, mj.denominator
            n, m = mu.numerator, mu.denominator
            if n < 0 or n * b > a * m or n * e > c * m or n * b * e < (a * e + c * b - b * e) * m:
                return (i, j)
        return None

    @classmethod
    def uniform(cls, d: int, moments: Dict[Pair, Fraction]) -> "MarginTargets":
        return cls(d=d, univariate=tuple([Fraction(1, 2)] * d), moments=moments)

    def pair_margin_table(self, i: int, j: int) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        """Target 2x2 margin (m00, m01, m10, m11) of the pair implied by the targets."""
        a, b = self.univariate[i - 1], self.univariate[j - 1]
        mu = self.moments[(i, j)]
        return (1 - a - b + mu, b - mu, a - mu, mu)


@functools.lru_cache(maxsize=256)
def _all_ones(d: int, *axes: int) -> Tuple[bool, ...]:
    """Per cell of a d-way table, whether every axis in ``axes`` is 1 there."""
    return tuple(all(_bit(k, d, i) for i in axes) for k in range(2**d))


def targets_from_pmf(p: Pmf, digits: int = DEFAULT_DIGITS, margins: str = UNIFORM) -> MarginTargets:
    """Derive dependence targets from an observed table.

    ``margins="uniform"`` keeps the table's marginal odds ratios but moves
    every margin to 1/2; ``margins="observed"`` keeps both the margins and
    the odds ratios of ``p``.  Every pairwise marginal odds ratio of ``p``
    must be finite and positive.
    """
    if margins not in (UNIFORM, OBSERVED):
        raise DomainError(f"margins must be '{UNIFORM}' or '{OBSERVED}', got {margins!r}")
    q = p.to_rational() if p.mode == FLOAT else p
    # odds ratios and margins are scale-free: sum the integer cells of L q,
    # with L the common denominator (so they sum to L), instead of Fractions
    L = math.lcm(*(c.denominator for c in q.cells))
    counts = [c.numerator * (L // c.denominator) for c in q.cells]
    ones = [sum(compress(counts, _all_ones(q.d, i))) for i in range(1, q.d + 1)]

    # the odds ratio of a pair is odds / cross, as integers >= 0
    terms = {}
    for (i, j) in all_pairs(q.d):
        n11 = sum(compress(counts, _all_ones(q.d, i, j)))
        n10, n01 = ones[i - 1] - n11, ones[j - 1] - n11
        n00 = L - n11 - n10 - n01
        odds, cross = n11 * n00, n10 * n01
        if not cross:
            kind = "infinite" if odds else "undefined"
            raise UnsupportedTargetError(
                f"marginal odds ratio of pair ({i},{j}) is {kind}; targets are not defined"
            )
        if not odds:
            raise UnsupportedTargetError(
                f"marginal odds ratio of pair ({i},{j}) is 0; targets require a positive ratio"
            )
        terms[(i, j)] = (odds, cross)
    _check_digits(digits)
    # a finite positive odds ratio needs all four cells of its 2x2 margin > 0,
    # so the observed margins lie strictly between 0 and 1; each margin is the
    # pair (numerator, denominator) that _moment takes, not in lowest terms
    if margins == UNIFORM:
        uni = (Fraction(1, 2),) * q.d
        margin = [(1, 2)] * q.d
    else:
        uni = tuple(Fraction(n1, L) for n1 in ones)
        margin = [(n1, L) for n1 in ones]
    moments = {
        (i, j): _moment(odds, cross, *margin[i - 1], *margin[j - 1], digits)
        for (i, j), (odds, cross) in terms.items()
    }
    return MarginTargets(d=q.d, univariate=uni, moments=moments)


RowLabel = Tuple  # ("margin", i) or ("moment", i, j)


@functools.lru_cache(maxsize=8)
def _ones_table(d: int) -> np.ndarray:
    """Per row of a d-way :func:`build_H` system and per cell, whether every axis of the row is 1 there; read-only."""
    import numpy as np

    bits = ((np.arange(2**d) >> np.arange(d - 1, -1, -1)[:, None]) & 1).astype(bool)
    i, j = np.triu_indices(d, 1)  # the pairs in pair-lexicographic order
    table = np.concatenate([bits, bits[i] & bits[j]])
    table.flags.writeable = False
    return table


@dataclass(frozen=True, init=False, eq=False)
class ConstraintMatrix:
    """The homogeneous margin/moment system ``H p = 0``.

    d margin rows followed by the d(d-1)/2 moment rows in pair-lexicographic
    order; ``labels[r]`` names row ``r``.  A :func:`build_H` system holds
    the terms of the module note, and derives ``int_rows`` and ``rows``
    from them.  A system built by hand keeps its rational ``rows``, and
    ``int_rows`` scales each to its primitive integer multiple.  Systems
    with equal d, labels, targets and rows are equal.
    """

    d: int
    labels: Tuple[RowLabel, ...]
    targets: MarginTargets

    def __init__(self, d: int, rows, labels, targets: MarginTargets):
        if targets.d != d:
            raise DimensionMismatchError(f"targets of d={targets.d} for a d={d} system")
        # every reader zips labels with rows, so a missing label would silently drop its row
        if len(labels) != len(rows):
            raise DimensionMismatchError(f"{len(labels)} labels for {len(rows)} rows")
        for r, row in enumerate(rows):
            if len(row) != 2**d:
                raise DimensionMismatchError(f"row {r} has {len(row)} entries for {2**d} cells")
        # the given rows stand in place of the derived ones; _terms is None on every H but build_H's
        vars(self).update(d=d, rows=rows, labels=tuple(labels), targets=targets, _terms=None)

    def __eq__(self, other):
        if not isinstance(other, ConstraintMatrix):
            return NotImplemented
        return (self.d, self.labels, self.targets, self.rows) == (other.d, other.labels, other.targets, other.rows)

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_cols(self) -> int:
        return 2**self.d

    @functools.cached_property
    def rows(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The rational rows, derived on first read on a :func:`build_H` system."""
        rows = []
        for label, (a, c, den) in zip(self.labels, self._terms):
            off, on = Fraction(a, den), Fraction(c, den)
            rows.append(tuple(on if one else off for one in _all_ones(self.d, *label[1:])))
        return tuple(rows)

    @functools.cached_property
    def int_rows(self) -> np.ndarray:
        """The rows as primitive integers, read-only: int64 below the ``_exact`` bound, else Python ints."""
        import numpy as np

        from ._linalg import _exact, _integer_rows, _max_abs

        if self._terms is None:
            rows = np.array(_integer_rows(self.rows), dtype=object).reshape(self.n_rows, self.n_cols)
            (rows,) = _exact(_max_abs(rows), rows)
        else:
            off, on, _ = zip(*self._terms)
            # the largest entry of a row is a or b - a
            off, on = _exact(max(max(off), -min(on)), np.array(off, dtype=object), np.array(on, dtype=object))
            rows = np.where(_ones_table(self.d), on[:, None], off[:, None])
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def rank(self) -> int:
        """The rank of H over the rationals.

        A :func:`build_H` system's rows are independent (the module note),
        so its rank is its row count; a system built by hand is eliminated
        by :func:`bintab._linalg._int_rref`.
        """
        if self._terms is not None:
            return self.n_rows
        from ._linalg import _int_rref

        return len(_int_rref(self.int_rows)[1])

    @functools.cached_property
    def relative_interior(self) -> Tuple[Tuple[int, ...], int]:
        """An exact relative-interior point of the feasible cone and the polytope's affine dimension.

        :func:`bintab.geometry._relative_interior`, run on first read; it
        raises :class:`~bintab.errors.EmptyFeasibleSetError` on every read
        when the polytope is empty.
        """
        from .geometry import _relative_interior

        return _relative_interior(self)

    @functools.cached_property
    def kernel_chart(self) -> np.ndarray:
        """An orthonormal float basis, as columns, of the kernel of H with an all-ones row appended; read-only.

        The kernel basis read off the integer elimination of ``[H; 1]``
        (:func:`bintab._linalg._int_rref`), orthonormalized by a QR
        factorization: the chart hit-and-run walks in.  Free column ``fc``
        gives the vector that is 1 at ``fc`` and ``-row[fc] / row[pc]`` at
        each pivot ``pc``, an integer true division, so each entry is the
        correctly rounded rational; an entry whose ``row[fc]`` is 0 stays
        +0.0 (``-0 / row[pc]`` is -0.0 when ``row[pc] < 0``).  Its shape
        is ``(2^d, 0)`` when that kernel is {0}.
        """
        import numpy as np

        from ._linalg import _int_rref

        m, pivots = _int_rref(np.vstack([self.int_rows, np.ones(self.n_cols, dtype=np.int64)]))
        free = sorted(set(range(self.n_cols)).difference(pivots))
        if free:
            basis = np.zeros((len(free), self.n_cols))
            basis[range(len(free)), free] = 1.0
            for row, pc in zip(m, pivots):
                # Python-int true division rounds correctly past 2^53, where float64 operands would not
                basis[:, pc] = [-row[fc] / row[pc] if row[fc] else 0.0 for fc in free]
            chart, _ = np.linalg.qr(basis.T)
        else:
            chart = np.empty((self.n_cols, 0))
        chart.flags.writeable = False
        return chart


def build_H(targets: MarginTargets) -> ConstraintMatrix:
    """The constraint matrix of a target system; it keeps each row's terms of the module note, and no entry."""
    labels = [("margin", i) for i in range(1, targets.d + 1)] + [("moment", *pair) for pair in all_pairs(targets.d)]
    values = [(v.numerator, v.denominator) for v in (*targets.univariate, *targets.moments.values())]
    # a, a - b and the rational row's denominator b; a uniform margin row (b = 2) is +-1 over 1
    terms = [(a, a - b, 1 if r < targets.d and b == 2 else b) for r, (a, b) in enumerate(values)]
    H = object.__new__(ConstraintMatrix)
    vars(H).update(d=targets.d, labels=tuple(labels), targets=targets, _terms=terms)
    return H


def residual(H: ConstraintMatrix, p: Pmf) -> tuple:
    """The vector ``H . p``; exact Fractions when ``p`` is rational, else each entry h read as ``float(h)``."""
    if 2**p.d != H.n_cols:
        raise DimensionMismatchError(f"pmf has {2**p.d} cells but H has {H.n_cols} columns")
    if p.mode == RATIONAL:
        return tuple(sum(h * c for h, c in zip(row, p.cells)) for row in H.rows)
    import numpy as np

    if H._terms is None:
        floats = np.array(H.rows, dtype=float)
    else:
        # a / den in Python ints rounds as float(Fraction(a, den)) does
        pairs = np.array([(a / den, c / den) for a, c, den in H._terms])
        floats = np.where(_ones_table(H.d), pairs[:, 1:], pairs[:, :1])
    # each product is one IEEE multiplication, as h * c in Python, and fsum adds them exactly
    return tuple(map(math.fsum, (floats * p.cells).tolist()))


def satisfies(H: ConstraintMatrix, p: Pmf, tol: Scalar = 0) -> bool:
    """Whether ``max |H . p| <= tol`` (use tol=0 for exact rational checks)."""
    return max(abs(r) for r in residual(H, p)) <= tol
