"""Dependence targets and the margin/moment constraint matrix.

A target system prescribes the d univariate margins and the d(d-1)/2
second-order moments mu_ij = P(X_i=1, X_j=1).  Targets derived from odds
ratios are irrational in general, so they are rounded to a caller-chosen
number of decimal digits and stored as exact rationals; exact enumeration
downstream needs rational data, and reproducing published 3-digit examples
needs ``digits=3``.

The homogeneous constraint matrix H couples a cell vector p to the targets:

* margin row i: ``+1`` on cells with alpha_i = 0 and ``-1`` on cells with
  alpha_i = 1 (uniform mode), so that ``row . p = m_i^0 - m_i^1``;
  in general-margin mode the row is ``+m_i`` on alpha_i = 0 cells and
  ``-(1 - m_i)`` on alpha_i = 1 cells, so that ``row . p = 0`` iff the
  axis-i margin of p/sum(p) equals the target.
* moment row (i, j): ``mu_ij - 1`` on cells with alpha_i*alpha_j = 1 and
  ``mu_ij`` elsewhere, so that ``row . p = mu_ij*sum(p) - m_ij^11``.

The nonnegative kernel of H is the cone of all feasible (unnormalized)
tables; intersecting with the probability simplex gives the feasible
polytope handled by :mod:`bintab.geometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP, localcontext
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .errors import (
    DimensionMismatchError,
    DomainError,
    InfeasibleTargetsError,
    UnsupportedTargetError,
)
from .table import FLOAT, RATIONAL, Pmf, Scalar, _bit, _exact_sqrt, all_pairs, marginal_odds_ratio, univariate_margin

#: Default decimal precision at which moment targets are rationalized.
DEFAULT_DIGITS = 6

UNIFORM = "uniform"
OBSERVED = "observed"

Pair = Tuple[int, int]


def round_to_digits(value: Union[Fraction, float, Decimal], digits: int) -> Fraction:
    """Round to ``digits`` decimal places (half away from zero), exactly."""
    if digits < 0:
        raise DomainError(f"digits must be >= 0, got {digits}")
    with localcontext() as ctx:
        ctx.prec = max(digits + 20, 40)
        if isinstance(value, Fraction):
            dec = Decimal(value.numerator) / Decimal(value.denominator)
        else:
            dec = Decimal(value)
        quantum = Decimal(1).scaleb(-digits)
        dec = dec.quantize(quantum, rounding=ROUND_HALF_UP)
    return Fraction(dec)


def moment_from_odds_ratio(omega, digits: int = DEFAULT_DIGITS) -> Fraction:
    """Second-order moment of the uniform-margin 2x2 table with odds ratio omega.

    Solves ``omega = mu^2 / (1/2 - mu)^2`` for the root in (0, 1/2):
    ``mu = sqrt(omega) / (2 (sqrt(omega) + 1))``, rounded to ``digits``
    decimals and returned as an exact rational.
    """
    if isinstance(omega, float) and (math.isnan(omega) or math.isinf(omega)):
        raise DomainError(f"odds ratio must be finite and positive, got {omega}")
    omega = Fraction(omega)
    if omega <= 0:
        raise DomainError(f"odds ratio must be finite and positive, got {omega}")
    with localcontext() as ctx:
        ctx.prec = max(digits + 20, 40)
        # a rational root stays an exact Fraction, so a half-way root rounds up
        root = _exact_sqrt(omega) or (Decimal(omega.numerator) / Decimal(omega.denominator)).sqrt()
        mu = root / (2 * (root + 1))
    return round_to_digits(mu, digits)


def moment_for_margins(omega, mi1, mj1, digits: int = DEFAULT_DIGITS) -> Fraction:
    """Second-order moment matching ``omega`` under prescribed margins.

    With margins a = P(X_i=1), b = P(X_j=1) fixed, the 2x2 table is a
    function of mu alone and its odds ratio equals omega iff

        (omega - 1) mu^2 - (omega (a + b) + 1 - a - b) mu + omega a b = 0.

    Exactly one root lies in the Frechet interval
    [max(0, a+b-1), min(a, b)] for omega != 1; for omega = 1 the moment is
    the independence product a*b.  The root is rounded to ``digits`` and
    kept in the Frechet interval: a rounded value past a bound becomes that
    bound, so the targets of any table with these margins stay admissible.
    A rational root (the discriminant is a rational square) is rounded
    exactly, so a root half-way between two decimals rounds up.
    """
    if isinstance(omega, float) and (math.isnan(omega) or math.isinf(omega)):
        raise DomainError(f"odds ratio must be finite and positive, got {omega}")
    omega = Fraction(omega)
    if omega <= 0:
        raise DomainError(f"odds ratio must be finite and positive, got {omega}")
    a, b = Fraction(mi1), Fraction(mj1)
    if not (0 < a < 1 and 0 < b < 1):
        raise DomainError("margins must lie strictly between 0 and 1")
    # rounding can step past a bound that is not a digits-decimal; that bound is
    # then the admissible value nearest to both the rounded and the exact root
    lo = max(Fraction(0), a + b - 1)
    hi = min(a, b)
    if omega == 1:
        return min(max(round_to_digits(a * b, digits), lo), hi)
    qa = omega - 1
    qb = -(omega * (a + b) + 1 - a - b)
    qc = omega * a * b
    disc = qb * qb - 4 * qa * qc
    # a rational root is solved in Fractions, so a half-way root rounds up; an irrational one in Decimal
    sq = _exact_sqrt(disc)
    num = Fraction if sq is not None else (lambda q: Decimal(q.numerator) / Decimal(q.denominator))
    with localcontext() as ctx:
        ctx.prec = max(digits + 20, 50)
        if sq is None:
            sq = num(disc).sqrt()
        roots = [(-num(qb) + sq) / (2 * num(qa)), (-num(qb) - sq) / (2 * num(qa))]
        inside = [r for r in roots if num(lo) <= r <= num(hi)]
    if not inside:
        raise DomainError(f"no admissible moment for omega={omega} with margins ({a}, {b})")
    return min(max(round_to_digits(min(inside), digits), lo), hi)


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
        uni = tuple(Fraction(m) for m in self.univariate)
        if len(uni) != self.d:
            raise DimensionMismatchError(f"expected {self.d} univariate targets, got {len(uni)}")
        if any(not (0 < m < 1) for m in uni):
            raise DomainError("univariate targets must lie strictly between 0 and 1")
        pairs = all_pairs(self.d)
        moments = {pair: Fraction(self.moments[pair]) for pair in pairs if pair in self.moments}
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
        for (i, j), mu in self.moments.items():
            mi, mj = self.univariate[i - 1], self.univariate[j - 1]
            if not (max(Fraction(0), mi + mj - 1) <= mu <= min(mi, mj)):
                return (i, j)
        return None

    @property
    def is_uniform(self) -> bool:
        half = Fraction(1, 2)
        return all(m == half for m in self.univariate)

    @classmethod
    def uniform(cls, d: int, moments: Dict[Pair, Fraction]) -> "MarginTargets":
        return cls(d=d, univariate=tuple([Fraction(1, 2)] * d), moments=moments)

    def pair_margin_table(self, i: int, j: int) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        """Target 2x2 margin (m00, m01, m10, m11) of the pair implied by the targets."""
        a, b = self.univariate[i - 1], self.univariate[j - 1]
        mu = self.moments[(i, j)]
        return (1 - a - b + mu, b - mu, a - mu, mu)


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
    omegas = {}
    for (i, j) in all_pairs(q.d):
        omega = marginal_odds_ratio(q, i, j)
        if isinstance(omega, float) and (math.isinf(omega) or math.isnan(omega)):
            kind = "infinite" if math.isinf(omega) else "undefined"
            raise UnsupportedTargetError(
                f"marginal odds ratio of pair ({i},{j}) is {kind}; targets are not defined"
            )
        if omega <= 0:
            raise UnsupportedTargetError(
                f"marginal odds ratio of pair ({i},{j}) is {omega}; targets require a positive ratio"
            )
        omegas[(i, j)] = omega
    if margins == UNIFORM:
        return MarginTargets.uniform(
            q.d, {pair: moment_from_odds_ratio(om, digits) for pair, om in omegas.items()}
        )
    uni = tuple(univariate_margin(q, i)[1] for i in range(1, q.d + 1))
    if any(not (0 < m < 1) for m in uni):
        raise UnsupportedTargetError("observed-margin targets need nondegenerate margins")
    moments = {
        (i, j): moment_for_margins(omegas[(i, j)], uni[i - 1], uni[j - 1], digits)
        for (i, j) in all_pairs(q.d)
    }
    return MarginTargets(d=q.d, univariate=uni, moments=moments)


RowLabel = Tuple  # ("margin", i) or ("moment", i, j)


@dataclass(frozen=True)
class ConstraintMatrix:
    """The homogeneous margin/moment system ``H p = 0``.

    Rows are exact rationals: d margin rows followed by the d(d-1)/2 moment
    rows in pair-lexicographic order.  ``labels[r]`` names row ``r``.
    """

    d: int
    rows: Tuple[Tuple[Fraction, ...], ...]
    labels: Tuple[RowLabel, ...]
    targets: MarginTargets

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return 2**self.d


def build_H(targets: MarginTargets) -> ConstraintMatrix:
    """Assemble the constraint matrix for a target system.

    Uniform-margin rows are emitted exactly as the +/-1 indicator
    difference; general margins use the balanced form with weights
    ``m_i`` and ``-(1 - m_i)``.
    """
    violation = targets.frechet_violation()
    if violation is not None:
        raise InfeasibleTargetsError(
            f"moment target for pair {violation} violates the Frechet bounds", pair=violation
        )
    d = targets.d
    n = 2**d
    rows = []
    labels = []
    for i in range(1, d + 1):
        mi = targets.univariate[i - 1]
        if mi == Fraction(1, 2):
            row = tuple(Fraction(1) if _bit(k, d, i) == 0 else Fraction(-1) for k in range(n))
        else:
            row = tuple(mi if _bit(k, d, i) == 0 else -(1 - mi) for k in range(n))
        rows.append(row)
        labels.append(("margin", i))
    for (i, j) in all_pairs(d):
        mu = targets.moments[(i, j)]
        row = tuple(mu - 1 if _bit(k, d, i) and _bit(k, d, j) else mu for k in range(n))
        rows.append(row)
        labels.append(("moment", i, j))
    return ConstraintMatrix(d=d, rows=tuple(rows), labels=tuple(labels), targets=targets)


def residual(H: ConstraintMatrix, p: Pmf) -> tuple:
    """The vector ``H . p``; exact Fractions when ``p`` is rational."""
    if 2**p.d != H.n_cols:
        raise DimensionMismatchError(f"pmf has {2**p.d} cells but H has {H.n_cols} columns")
    if p.mode == RATIONAL:
        return tuple(sum(h * c for h, c in zip(row, p.cells)) for row in H.rows)
    return tuple(math.fsum(float(h) * c for h, c in zip(row, p.cells)) for row in H.rows)


def satisfies(H: ConstraintMatrix, p: Pmf, tol: Scalar = 0) -> bool:
    """Whether ``max |H . p| <= tol`` (use tol=0 for exact rational checks)."""
    return max(abs(r) for r in residual(H, p)) <= tol
