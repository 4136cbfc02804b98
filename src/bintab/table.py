"""Data model and elementary statistics for d-way binary probability tables.

A table over binary variables X_1..X_d is stored as the dense vector of its
2^d cell probabilities in lexicographic order of the cell configurations:
cell k (1-based) corresponds to the configuration whose bits are the binary
representation of k-1, most significant bit first.  Axes are 1-based
throughout the public API, matching the usual subscripts X_1..X_d.

Two numeric modes exist and never mix implicitly:

* ``rational`` -- cells are ``fractions.Fraction``; all statistics that stay
  inside the rational field (margins, moments, odds ratios) are exact.
* ``float`` -- cells are binary doubles; used for logarithms and sampling.

Odds ratios are tri-state: a finite value (``Fraction`` in rational mode,
``float`` otherwise), ``math.inf`` when only the denominator vanishes, and
``math.nan`` when the ratio is 0/0.  Extreme tables legitimately contain
zero cells, so zero-cell ratios are values, not errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Tuple, Union

from .errors import DegenerateMarginError, DimensionMismatchError, DomainError

Scalar = Union[Fraction, float]
Configuration = Tuple[int, ...]

RATIONAL = "rational"
FLOAT = "float"

#: |sum(cells) - 1| allowed for float-mode tables.
FLOAT_SUM_TOL = 1e-12


def cell_index(alpha: Sequence[int]) -> int:
    """1-based lexicographic index of a cell configuration.

    ``cell_index((0, 1, 1)) == 4``: the configuration is read as a binary
    number (first axis most significant) and shifted by one.
    """
    _check_configuration(alpha)
    k = 0
    for bit in alpha:
        k = (k << 1) | bit
    return k + 1


def configuration(k: int, d: int) -> Configuration:
    """Inverse of :func:`cell_index`: the configuration of cell ``k`` in 1..2^d."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 1 <= k <= 2**d:
        raise DomainError(f"cell index {k} outside 1..{2**d}")
    offset = k - 1
    return tuple(_bit(offset, d, i) for i in range(1, d + 1))


def _check_configuration(alpha: Sequence[int]) -> None:
    if len(alpha) == 0:
        raise DomainError("empty configuration")
    if any(b not in (0, 1) for b in alpha):
        raise DomainError(f"configuration entries must be 0 or 1, got {tuple(alpha)}")


def _check_axis(d: int, i: int) -> None:
    if not 1 <= i <= d:
        raise DomainError(f"axis {i} outside 1..{d}")


def _bit(offset: int, d: int, i: int) -> int:
    """Value of axis ``i`` (1-based) in the configuration of 0-based ``offset``."""
    return (offset >> (d - i)) & 1


def _probability_vector(values: Sequence, rational: bool, what: str, float_tol: float) -> tuple:
    """``values`` checked to be a probability vector, as a tuple of Fractions or of floats.

    Rational values become Fractions (existing Fractions are kept as they
    are), none negative, summing to exactly 1: the sum is checked in
    integers over the lcm of the denominators.  Float values must be
    nonnegative and finite, with an ``fsum`` within ``float_tol`` of 1.
    ``what`` names one value in the :class:`DomainError` messages.
    """
    if rational:
        values = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        if any(v.numerator < 0 for v in values):
            raise DomainError(f"negative {what} in {values}")
        common = math.lcm(*(v.denominator for v in values))
        if sum(v.numerator * (common // v.denominator) for v in values) != common:
            raise DomainError(f"{what} sum {sum(values)}, expected exactly 1")
        return values
    try:
        values = tuple(map(float, values))
        # finite values can still overflow the sum; a NaN or infinite value skips it
        total = math.fsum(values) if all(map(math.isfinite, values)) else math.nan
    except OverflowError as exc:
        raise DomainError(f"{what} out of float range in {values}") from exc
    if any(v < 0 for v in values):
        raise DomainError(f"negative {what} in {values}")
    if math.isnan(total):
        raise DomainError(f"non-finite {what} in {values}")
    if abs(total - 1.0) > float_tol:
        raise DomainError(f"{what} sum {total!r}, expected 1 within {float_tol}")
    return values


@dataclass(frozen=True)
class Pmf:
    """Probability mass function of a d-way binary table.

    Parameters
    ----------
    d : int
        Number of binary variables (>= 2).
    cells : tuple
        2^d cell probabilities in lexicographic order.
    mode : str
        ``"rational"`` or ``"float"``.
    total : int, optional
        Raw count total when the table was ingested from counts; kept for
        display only.
    """

    d: int
    cells: tuple
    mode: str = RATIONAL
    total: Optional[int] = None

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")
        if len(self.cells) != 2**self.d:
            raise DimensionMismatchError(
                f"expected {2**self.d} cells for d={self.d}, got {len(self.cells)}"
            )
        if self.mode not in (RATIONAL, FLOAT):
            raise DomainError(f"unknown mode {self.mode!r}")
        cells = _probability_vector(self.cells, self.mode == RATIONAL, "cell probability", FLOAT_SUM_TOL)
        object.__setattr__(self, "cells", cells)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_cells(cls, cells: Sequence, mode: Optional[str] = None, total: Optional[int] = None) -> "Pmf":
        """Build a pmf from a cell vector, inferring d and (optionally) mode.

        Mode is inferred as ``float`` when any entry is a float, otherwise
        ``rational``; pass ``mode`` explicitly to override.
        """
        n = len(cells)
        d = n.bit_length() - 1
        if n < 4 or 2**d != n:
            raise DimensionMismatchError(f"cell count {n} is not 2^d for some d >= 2")
        if mode is None:
            mode = FLOAT if any(isinstance(c, float) for c in cells) else RATIONAL
        return cls(d=d, cells=tuple(cells), mode=mode, total=total)

    @classmethod
    def _valid(cls, d: int, cells: tuple, mode: str) -> "Pmf":
        """A pmf built without ``__post_init__``; for cells already proved valid.

        The caller guarantees what the validation would check: ``d >= 2``,
        ``2^d`` cells, and for ``mode`` rational each a nonnegative
        ``Fraction``, summing to exactly 1, for ``mode`` float each a finite
        nonnegative float with an ``fsum`` within ``FLOAT_SUM_TOL`` of 1.
        Two callers rely on it:

        * ``VertexSet.vertices``: :func:`bintab.geometry.enumerate_vertices`
          checks ``d >= 2``, ``2^d`` columns, every ray entry >= 0 and every
          ray sum s > 0, so ray / s is nonnegative and sums to 1; a vertex
          file validates each vertex as a pmf when it is loaded.
        * :func:`_float_pmfs`, which checks a whole block of float draws at once.
        """
        p = object.__new__(cls)
        p.__dict__.update(d=d, cells=cells, mode=mode, total=None)
        return p

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "Pmf":
        """Normalize a vector of nonnegative integer counts to a rational pmf."""
        # type() rather than isinstance(): True, an int subclass, is not a count
        if any(type(c) is not int or c < 0 for c in counts):
            raise DomainError("counts must be nonnegative integers")
        total = sum(counts)
        if total == 0:
            raise DomainError("counts sum to zero")
        return cls.from_cells([Fraction(c, total) for c in counts], mode=RATIONAL, total=total)

    @classmethod
    def uniform(cls, d: int, mode: str = RATIONAL) -> "Pmf":
        n = 2**d
        cell = Fraction(1, n) if mode == RATIONAL else 1.0 / n
        return cls(d=d, cells=tuple([cell] * n), mode=mode)

    # -- conversions (always explicit) --------------------------------

    def to_float(self) -> "Pmf":
        if self.mode == FLOAT:
            return self
        return Pmf(d=self.d, cells=tuple(float_cells(self)), mode=FLOAT, total=self.total)

    def to_rational(self) -> "Pmf":
        """Exact rationalization of a float pmf (binary-float values are rational)."""
        if self.mode == RATIONAL:
            return self
        cells = [Fraction(c) for c in self.cells]
        s = sum(cells)
        if s == 0:
            raise DomainError("cannot rationalize the zero vector")
        return Pmf(d=self.d, cells=tuple(c / s for c in cells), mode=RATIONAL, total=self.total)

    # -- element access ------------------------------------------------

    def cell(self, alpha: Sequence[int]) -> Scalar:
        """Probability of a configuration."""
        if len(alpha) != self.d:
            raise DimensionMismatchError(f"configuration length {len(alpha)} != d={self.d}")
        return self.cells[cell_index(alpha) - 1]

    def support_size(self) -> int:
        return sum(1 for c in self.cells if c != 0)


def _float_pmfs(d: int, block) -> list:
    """The rows of a (draws x 2^d) float array as float pmfs, validated as one block.

    The constructor's checks, made once for the block: every cell finite
    and >= 0, and each row's ``fsum`` within ``FLOAT_SUM_TOL`` of 1, read at
    call time.  When the block fails, the rows are checked in order by
    :func:`_probability_vector`, which raises the constructor's
    :class:`DomainError` for the first failing row.  The caller guarantees
    ``d >= 2`` and ``2^d`` columns.
    """
    rows = block.tolist()
    try:
        # a NaN fails both comparisons, an infinity the second
        valid = bool(((block >= 0) & (block < math.inf)).all()) and all(
            abs(math.fsum(row) - 1.0) <= FLOAT_SUM_TOL for row in rows
        )
    except OverflowError:
        valid = False
    if not valid:
        for row in rows:
            _probability_vector(row, False, "cell probability", FLOAT_SUM_TOL)
    return [Pmf._valid(d, tuple(row), FLOAT) for row in rows]


@dataclass(frozen=True)
class BivariateMargin:
    """2x2 margin of a pair of axes; entries sum to 1.

    ``m01`` is the mass of cells with the first axis at 0 and the second at 1.
    """

    m00: Scalar
    m01: Scalar
    m10: Scalar
    m11: Scalar

    @property
    def entries(self):
        return ((self.m00, self.m01), (self.m10, self.m11))

    def first_margin(self):
        """(m_i^0, m_i^1) of the first axis of the pair."""
        return (self.m00 + self.m01, self.m10 + self.m11)

    def second_margin(self):
        return (self.m00 + self.m10, self.m01 + self.m11)

    def odds_ratio(self):
        return _classified_ratio(self.m11 * self.m00, self.m10 * self.m01)


def float_cells(p: Pmf) -> list:
    """The cells as floats; for a Fraction ``numerator / denominator`` is ``float()``, minus the call overhead."""
    if p.mode == FLOAT:
        return list(p.cells)
    return [c.numerator / c.denominator for c in p.cells]


def univariate_margin(p: Pmf, i: int):
    """The pair ``(m_i^0, m_i^1)`` for axis ``i``."""
    _check_axis(p.d, i)
    one = Fraction(1) if p.mode == RATIONAL else 1.0
    m1 = sum(c for k, c in enumerate(p.cells) if _bit(k, p.d, i))
    return (one - m1, m1)


def bivariate_margin(p: Pmf, i: int, j: int) -> BivariateMargin:
    """2x2 margin of the pair ``(i, j)`` obtained by summing out the other axes."""
    _check_axis(p.d, i)
    _check_axis(p.d, j)
    if i == j:
        raise DomainError(f"axes must differ, got i=j={i}")
    if i > j:
        i, j = j, i
    zero = Fraction(0) if p.mode == RATIONAL else 0.0
    sums = [zero, zero, zero, zero]
    for k, c in enumerate(p.cells):
        sums[2 * _bit(k, p.d, i) + _bit(k, p.d, j)] += c
    return BivariateMargin(m00=sums[0], m01=sums[1], m10=sums[2], m11=sums[3])


def second_order_moment(p: Pmf, i: int, j: int) -> Scalar:
    """E[X_i X_j]: the mass of cells with both axes at 1."""
    return bivariate_margin(p, i, j).m11


def correlation(p: Pmf, i: int, j: int) -> Scalar:
    """Pearson correlation of the pair; depends only on the 2x2 margin.

    In rational mode the result is an exact ``Fraction`` whenever the
    variance product is a perfect rational square (uniform margins always
    are); otherwise a float is returned.

    Raises
    ------
    DegenerateMarginError
        If either univariate margin is 0 or 1.
    """
    bm = bivariate_margin(p, i, j)
    mi0, mi1 = bm.first_margin()
    mj0, mj1 = bm.second_margin()
    if 0 in (mi0, mi1, mj0, mj1):
        raise DegenerateMarginError(f"degenerate margin for pair ({i},{j})")
    num = bm.m11 - mi1 * mj1
    var = mi1 * mi0 * mj1 * mj0
    if p.mode == RATIONAL:
        root = _exact_sqrt(var)
        if root is not None:
            return num / root
    return float(num) / math.sqrt(float(var))


def _exact_sqrt(value: Fraction) -> Optional[Fraction]:
    rn, rd = isqrt(value.numerator), isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def _classified_ratio(num: Scalar, den: Scalar):
    """Tri-state ratio: finite value, math.inf (x/0, x>0), or math.nan (0/0)."""
    if den == 0:
        return math.nan if num == 0 else math.inf
    if isinstance(num, Fraction) and isinstance(den, Fraction):
        return num / den
    return float(num) / float(den)


def marginal_odds_ratio(p: Pmf, i: int, j: int):
    """Odds ratio of the collapsed 2x2 margin of the pair ``(i, j)``."""
    return bivariate_margin(p, i, j).odds_ratio()


def conditional_odds_ratio(p: Pmf, i: int, j: int, rest: Sequence[int]):
    """Odds ratio of ``(X_i, X_j)`` given a fixed configuration of the rest.

    ``rest`` lists the values of the remaining d-2 axes in increasing axis
    order.
    """
    _check_axis(p.d, i)
    _check_axis(p.d, j)
    if i == j:
        raise DomainError(f"axes must differ, got i=j={i}")
    if len(rest) != p.d - 2:
        raise DimensionMismatchError(f"rest must fix {p.d - 2} axes, got {len(rest)}")
    if any(b not in (0, 1) for b in rest):
        raise DomainError("rest entries must be 0 or 1")
    others = [a for a in range(1, p.d + 1) if a not in (i, j)]

    def cell_at(vi: int, vj: int) -> Scalar:
        alpha = [0] * p.d
        alpha[i - 1], alpha[j - 1] = vi, vj
        for axis, val in zip(others, rest):
            alpha[axis - 1] = val
        return p.cell(alpha)

    num = cell_at(1, 1) * cell_at(0, 0)
    den = cell_at(1, 0) * cell_at(0, 1)
    return _classified_ratio(num, den)


def top_order_odds_ratio(p: Pmf):
    """Highest-order interaction contrast of the table.

    The alternating product ``prod_alpha p_alpha^((-1)^{|alpha|})``: cells
    with an even number of ones go to the numerator.  At d=2 this is the
    plain 2x2 odds ratio; at d=3 it is the three-dimensional odds ratio
    (p000*p011*p101*p110)/(p111*p100*p010*p001).
    """
    one = Fraction(1) if p.mode == RATIONAL else 1.0
    num, den = one, one
    for k, c in enumerate(p.cells):
        if bin(k).count("1") % 2 == 0:
            num *= c
        else:
            den *= c
    return _classified_ratio(num, den)


def reflect(p: Pmf) -> Pmf:
    """The complement table ``p'_alpha = p_{1-alpha}``.

    Equivalently reverses the lexicographic cell vector.  An involution;
    preserves uniform margins and all second-order moments.
    """
    return Pmf(d=p.d, cells=tuple(reversed(p.cells)), mode=p.mode, total=p.total)


def all_pairs(d: int):
    """Axis pairs (i, j), i < j, in pair-lexicographic order."""
    return [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
