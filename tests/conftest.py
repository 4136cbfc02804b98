"""Shared fixtures, random table generators, and independent oracles.

The brute-force vertex oracle and the kernel bases used to build random
tables deliberately carry their own Gaussian elimination over Fractions
instead of reusing the package's linear algebra, so that the enumeration
tests check the double description method against genuinely independent
machinery, and the package's integer elimination is checked against them.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from pathlib import Path

import pytest

from bintab import ConstraintMatrix, MarginTargets, Pmf, build_H, targets_from_pmf
from bintab.datasets import builtin_pmf

F = Fraction


@pytest.fixture(scope="session")
def example1():
    return builtin_pmf("example1")


@pytest.fixture(scope="session")
def water():
    return builtin_pmf("water")


@pytest.fixture(scope="session")
def raters():
    return builtin_pmf("raters")


@pytest.fixture(scope="session")
def pool_pmfs():
    """The 32 random positive d=4 tables of the benchmark's ``golden.json`` pool."""
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    return [Pmf.from_counts(counts) for counts in json.loads(golden.read_text())["pool"]]


@pytest.fixture(scope="session")
def example1_H3():
    """Constraint matrix of the running example at 3-digit targets."""
    return build_H(targets_from_pmf(builtin_pmf("example1"), digits=3))


# Exact segment endpoints of the running example's uniform-margin polytope
# at 3-digit targets, derived by eliminating the constraint system by hand:
# with t = p111, the free cells are p110 = mu12 - t, p101 = mu13 - t,
# p011 = mu23 - t, p100 = t + 1/2 - mu12 - mu13, p010 = t + 1/2 - mu12 - mu23,
# p001 = t + 1/2 - mu13 - mu23, p000 = mu12 + mu13 + mu23 - 1/2 - t, and the
# feasible range is t in [0, 173/1000].
EXAMPLE1_VERTEX_A = tuple(F(v, 1000) for v in (0, 194, 222, 84, 257, 49, 21, 173))
EXAMPLE1_VERTEX_B = tuple(F(v, 1000) for v in (173, 21, 49, 257, 84, 222, 194, 0))

#: Counts of an observed-margin d=5 table whose polytope is full-dimensional
#: (dimension 16 at digits 3), though the least-squares projection of the
#: uniform table onto it has a negative cell.
MOD19_COUNTS = [(10 * k) % 19 for k in range(32)]


# ---------------------------------------------------------------------------
# independent rational elimination
# ---------------------------------------------------------------------------


def reference_rref(rows):
    """Reduced row echelon form by plain Gauss-Jordan over Fractions.

    Returns ``(rref_rows, pivot_columns)``: all input rows, zero rows last.
    """
    m = [list(map(F, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def reference_nullspace(rows, ncols):
    """Right-kernel basis; each vector sets one free variable to 1 and the others to 0."""
    if not rows:
        return [tuple(F(int(i == j)) for i in range(ncols)) for j in range(ncols)]
    rref, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rref[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def walsh_character(d, axes):
    """The Walsh character chi_S of the axes S over the 2^d cells, as a tuple of +1 and -1.

    chi_S(k) = (-1)^(sum of bit_i(k) over i in S), where axis 1 is the most
    significant bit of the cell index k.  The characters with |S| <= 2 span
    the row space of [H; 1] for every ``build_H`` system (Bahadur 1961), so
    those with |S| >= 3 span its kernel.
    """
    return tuple(-1 if sum((k >> (d - i)) & 1 for i in axes) % 2 else 1 for k in range(2**d))


def reference_axis_mass(cells, axes):
    """P(X_i = 1 for every axis i in ``axes``) of a table of exact masses summing to 1."""
    d = len(cells).bit_length() - 1
    return sum((c for k, c in enumerate(cells) if all((k >> (d - i)) & 1 for i in axes)), F(0))


def reference_centred_moment(cells, means, axes):
    """E[prod over i in ``axes`` of (X_i - means[i - 1])] of a table of exact masses summing to 1."""
    d = len(cells).bit_length() - 1
    total = F(0)
    for k, c in enumerate(cells):
        term = F(c)
        for i in axes:
            term *= ((k >> (d - i)) & 1) - means[i - 1]
        total += term
    return total


def reference_second_order_uniform(d, moments):
    """The uniform-margin table 2^-d (1 + sum rho_ij chi_ij) with rho_ij = 4 mu_ij - 1 (Bahadur 1961).

    Of all tables with margins 1/2 and the moments ``moments``, the one
    whose Walsh coefficients of order 3 and higher are all 0.
    """
    cells = [F(1)] * 2**d
    for (i, j), mu in moments.items():
        rho = 4 * F(mu) - 1
        cells = [c + rho * chi for c, chi in zip(cells, walsh_character(d, (i, j)))]
    return [c / 2**d for c in cells]


def reference_primitive_row(row):
    """The primitive integer row that is a positive multiple of the rational ``row``."""
    den = 1
    for v in row:
        den = den * F(v).denominator // gcd(den, F(v).denominator)
    ints = [int(F(v) * den) for v in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints] if g else ints


# ---------------------------------------------------------------------------
# random table generators (non-oracle helpers)
# ---------------------------------------------------------------------------


def random_rational_pmf(rng, d, positive=False, max_weight=20) -> Pmf:
    """Random exact-rational pmf with integer-weight cells."""
    low = 1 if positive else 0
    while True:
        weights = [rng.randint(low, max_weight) for _ in range(2**d)]
        if sum(weights) > 0:
            break
    total = sum(weights)
    return Pmf.from_cells([F(w, total) for w in weights])


def random_uniform_margin_pmf(rng, d) -> Pmf:
    """Random exact-rational pmf whose univariate margins are all (1/2, 1/2).

    Built as the uniform table plus a random rational element of the kernel
    of the margin (and total-mass) constraints, scaled to keep every cell
    nonnegative.  Generically not symmetric under the complement map.
    """
    n = 2**d
    margin_rows = [
        tuple(F(1) if ((k >> (d - i)) & 1) == 0 else F(-1) for k in range(n))
        for i in range(1, d + 1)
    ]
    ones = tuple([F(1)] * n)
    basis = reference_nullspace(margin_rows + [ones], n)
    direction = [F(0)] * n
    for vec in basis:
        c = F(rng.randint(-9, 9))
        direction = [a + c * b for a, b in zip(direction, vec)]
    worst = min(direction)
    if worst >= 0:  # degenerate draw: no negative part to bound the step
        return Pmf.uniform(d)
    scale = F(1, n) / (-worst) * F(rng.randint(0, 10), 10)
    cells = [F(1, n) + scale * v for v in direction]
    return Pmf.from_cells(cells)


def random_targets(rng, d, digits=2) -> MarginTargets:
    """Uniform-margin targets derived from a random strictly positive table."""
    return targets_from_pmf(random_rational_pmf(rng, d, positive=True), digits=digits)


def generic_targets(d) -> MarginTargets:
    """Uniform-margin digits-2 targets of a random positive d-way table, seeded by d."""
    return random_targets(random.Random(d), d)


def d5_margin_H():
    """The five uniform margin rows of d=5 (2,712 vertices); the moment targets do not enter them."""
    full = build_H(MarginTargets.uniform(5, {(i, j): F(1, 4) for i in range(1, 6) for j in range(i + 1, 6)}))
    return ConstraintMatrix(d=5, rows=full.rows[:5], labels=full.labels[:5], targets=full.targets)


# ---------------------------------------------------------------------------
# independent brute-force vertex oracle
# ---------------------------------------------------------------------------


def _gauss_solve(rows, rhs):
    """Solve exactly; returns (solution, nullity) or None if inconsistent.

    Standalone Gauss-Jordan over Fractions, independent of the package's
    linear algebra helpers.
    """
    aug = [list(row) + [val] for row, val in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for row in aug[r:]:
        if row[-1] != 0:
            return None
    x = [F(0)] * ncols
    for idx, c in enumerate(pivots):
        x[c] = aug[idx][-1]
    return x, ncols - len(pivots)


def _gauss_rank(rows):
    if not rows:
        return 0
    sol_rows = [list(row) for row in rows]
    ncols = len(sol_rows[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(sol_rows)) if sol_rows[i][c] != 0), None)
        if pivot is None:
            continue
        sol_rows[r], sol_rows[pivot] = sol_rows[pivot], sol_rows[r]
        for i in range(r + 1, len(sol_rows)):
            if sol_rows[i][c] != 0:
                f = sol_rows[i][c] / sol_rows[r][c]
                sol_rows[i] = [a - f * b for a, b in zip(sol_rows[i], sol_rows[r])]
        r += 1
    return r


def reference_rank(rows):
    """Rank over the rationals of int or Fraction rows, by :func:`_gauss_rank`."""
    return _gauss_rank([[F(v) for v in row] for row in rows])


def reference_affine_rank(points):
    """Dimension of the affine hull of the points; None when there are none."""
    if not points:
        return None
    base = points[0]
    return reference_rank([[F(a) - F(b) for a, b in zip(p, base)] for p in points[1:]])


def brute_force_vertices(H) -> set:
    """All vertices of {p >= 0, Hp = 0, sum p = 1} by support enumeration.

    A point is a vertex iff the columns of [H; 1] on its support are
    linearly independent, so solving the restricted system on every support
    subset of size up to rank(H)+1 and keeping the unique nonnegative
    solutions enumerates exactly the vertex set.
    """
    n = H.n_cols
    rank = _gauss_rank([list(row) for row in H.rows])
    found = set()
    for size in range(1, rank + 2):
        for support in combinations(range(n), size):
            rows = [[row[c] for c in support] for row in H.rows]
            rows.append([F(1)] * size)
            rhs = [F(0)] * len(H.rows) + [F(1)]
            solved = _gauss_solve(rows, rhs)
            if solved is None:
                continue
            x, nullity = solved
            if nullity > 0 or any(v < 0 for v in x):
                continue
            full = [F(0)] * n
            for c, v in zip(support, x):
                full[c] = v
            found.add(tuple(full))
    return found


# ---------------------------------------------------------------------------
# independent moment-target oracles
# ---------------------------------------------------------------------------
# They share no code with the package's solver: observed targets are each
# table's own moments, and uniform targets come from the closed form.


def round_half_up(value, digits) -> Fraction:
    """A nonnegative Fraction rounded half up to ``digits`` decimals, exactly."""
    scale = 10**digits
    return F((2 * value.numerator * scale + value.denominator) // (2 * value.denominator), scale)


def reference_moment_from_root(mu, a, b, digits) -> Fraction:
    """The exact moment ``mu`` rounded half up, then clamped into [max(0, a+b-1), min(a, b)]."""
    return min(max(round_half_up(mu, digits), max(F(0), a + b - 1)), min(a, b))


def reference_observed_targets(cells, digits):
    """``(univariate, moments)`` of the observed-margin targets of a table of counts or masses.

    The odds ratio of a pair's 2x2 margin has exactly one root in the
    Frechet interval of the table's own margins, and the table's own m11 is
    it; so each target is that m11, rounded and clamped.  Cell k (from 0)
    has alpha_i = bit d - i of k.
    """
    d = len(cells).bit_length() - 1
    total = sum(cells)

    def mass(*axes):
        return F(sum(c for k, c in enumerate(cells) if all((k >> (d - i)) & 1 for i in axes)), total)

    uni = tuple(mass(i) for i in range(1, d + 1))
    moments = {
        (i, j): reference_moment_from_root(mass(i, j), uni[i - 1], uni[j - 1], digits)
        for i, j in combinations(range(1, d + 1), 2)
    }
    return uni, moments


def reference_targets(cells, digits, margins):
    """``(univariate, moments)`` of a table's targets, or None when some pair has no finite positive odds ratio.

    Each pair's 2x2 margin is summed cell by cell as Fractions, and its
    odds ratio is m11 m00 / (m10 m01), finite and positive exactly when all
    four entries are.  Observed targets are the pair's own m11, rounded and
    clamped (:func:`reference_moment_from_root`); uniform targets come from
    the closed form (:func:`reference_uniform_moment`).
    """
    d = len(cells).bit_length() - 1
    total = sum(F(c) for c in cells)
    uni = tuple(F(sum(F(c) for k, c in enumerate(cells) if (k >> (d - i)) & 1), total) for i in range(1, d + 1))
    moments = {}
    for i, j in combinations(range(1, d + 1), 2):
        m = {(a, b): F(0) for a in (0, 1) for b in (0, 1)}
        for k, c in enumerate(cells):
            m[(k >> (d - i)) & 1, (k >> (d - j)) & 1] += F(c) / total
        if min(m.values()) == 0:
            return None
        if margins == "uniform":
            moments[(i, j)] = reference_uniform_moment(m[1, 1] * m[0, 0] / (m[1, 0] * m[0, 1]), digits)
        else:
            moments[(i, j)] = reference_moment_from_root(m[1, 1], uni[i - 1], uni[j - 1], digits)
    return ((F(1, 2),) * d if margins == "uniform" else uni), moments


def reference_uniform_moment(omega, digits) -> Fraction:
    """``sqrt(omega) / (2 (sqrt(omega) + 1))`` rounded half up to ``digits`` decimals.

    The square root is exact when omega is a rational square, so a root on
    a tie rounds up; otherwise it is taken to 1000 digits.  The result lies
    in [0, 1/2] without clamping.
    """
    omega = F(omega)
    rn, rd = isqrt(omega.numerator), isqrt(omega.denominator)
    if rn * rn == omega.numerator and rd * rd == omega.denominator:
        root = F(rn, rd)
        return round_half_up(root / (2 * (root + 1)), digits)
    with localcontext() as ctx:
        ctx.prec = 1000
        root = (Decimal(omega.numerator) / Decimal(omega.denominator)).sqrt()
        return round_half_up(F(root / (2 * (root + 1))), digits)
