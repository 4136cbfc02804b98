"""Exact linear algebra over rationals and integers.

Small dense systems only (at most a few dozen rows/columns).  Rational
rows are scaled to primitive integer rows with :func:`_integer_rows`, and
both eliminations run on Python integers: a fraction-free Gauss-Jordan
(:func:`_int_rref`) for the reduced row echelon form, divided into
Fractions once per pivot row at the end, and a fraction-free Bareiss rank,
which is what the vertex-enumeration code uses.  The interior-point
certificate in ``geometry`` reads the integer Gauss-Jordan rows directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


def _integer_rows(rows: Sequence[Sequence]) -> List[Tuple[int, ...]]:
    """Scale each rational row to a primitive integer row (same row space, same kernel).

    Entries are ints or Fractions; a zero row stays zero.
    """
    out = []
    for row in rows:
        lcm = math.lcm(*(v.denominator for v in row))
        ints = [v.numerator * (lcm // v.denominator) for v in row]
        g = math.gcd(*ints)
        out.append(tuple(v // g for v in ints) if g > 1 else tuple(ints))
    return out


def _int_rref(m: List[List[int]]) -> List[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; returns the pivot columns.

    Clearing column ``c`` of row ``i`` with pivot row ``p`` is
    ``p[c] * row_i - row_i[c] * p``, after which row ``i`` is divided by the
    gcd of its entries.  On return the first ``len(pivots)`` rows are the
    pivot rows, each zero in every other pivot column, and the rest are
    zero; each row is a primitive integer multiple of the corresponding row
    of the reduced row echelon form.
    """
    if not m:
        return []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r]
        pc = p[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                row = [pc * a - f * b for a, b in zip(m[i], p)]
                g = math.gcd(*row)
                m[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def frac_rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form.

    Returns ``(rref_rows, pivot_columns)`` where ``rref_rows`` is a list of
    lists of Fractions, as many as the input rows (zero rows last), and
    ``pivot_columns`` lists the pivot column of each nonzero row.

    The elimination runs on primitive integer rows (:func:`_int_rref`), and
    each pivot row is divided by its pivot entry at the end.  The reduced
    row echelon form of a matrix is unique, so this is the same result as
    Gauss-Jordan over Fractions.
    """
    rational = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row] for row in rows]
    m = [list(row) for row in _integer_rows(rational)]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = _int_rref(m)
    out = []
    for i, row in enumerate(m):
        if i < len(pivots):
            pv = row[pivots[i]]
            out.append([Fraction(v, pv) for v in row])
        else:
            out.append([Fraction(0)] * ncols)
    return out, pivots


def frac_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    _, pivots = frac_rref(rows)
    return len(pivots)


def frac_nullspace(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Basis of the right kernel of the given rows, as tuples of Fractions.

    Each basis vector sets one free variable to 1 and the others to 0.
    """
    if not rows:
        return [tuple(Fraction(int(i == j)) for i in range(ncols)) for j in range(ncols)]
    rref, pivots = frac_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rref[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def frac_solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve ``rows @ x = rhs`` exactly.

    Returns ``(solution, nullity)`` with the free variables set to 0, or
    ``None`` when the system is inconsistent.
    """
    aug = [[*row, v] for row, v in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    rref, pivots = frac_rref(aug)
    for row in rref:
        if row[-1] != 0 and all(v == 0 for v in row[:-1]):
            return None
    x = [Fraction(0)] * ncols
    for row_idx, pc in enumerate(pivots):
        if pc == ncols:  # pivot in the augmented column: inconsistent
            return None
        x[pc] = rref[row_idx][-1]
    return tuple(x), ncols - len(pivots)


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix via fraction-free (Bareiss) elimination."""
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        for i in range(rank + 1, nrows):
            # rows with a zero in the pivot column still need the Bareiss
            # rescaling, or later exact divisions break
            ric = m[i][c]
            mi = m[i]
            for j in range(c + 1, ncols):
                mi[j] = (mi[j] * pr[c] - ric * pr[j]) // prev
            mi[c] = 0
        prev = pr[c]
        rank += 1
        if rank == nrows:
            break
    return rank


def affine_rank(points: Sequence[Sequence[Fraction]]) -> Optional[int]:
    """Dimension of the affine hull of the given points (None when empty)."""
    if not points:
        return None
    base = points[0]
    diffs = [[Fraction(a) - Fraction(b) for a, b in zip(p, base)] for p in points[1:]]
    return frac_rank(diffs) if diffs else 0
