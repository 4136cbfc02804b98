"""Exact linear algebra over rationals, on integers.

Small dense systems only (a few dozen rows, up to 2^d columns).  There is one
elimination, :func:`_int_rref`, a fraction-free Gauss-Jordan.  Readers of
H pass its primitive integer rows, the array ``ConstraintMatrix.int_rows``,
which it reduces as they are; other rational rows are first scaled to
primitive integer rows (:func:`_integer_rows`).  Each row it returns is an
integer multiple of a row of the reduced row echelon form, which is
unique, so a Fraction read off it (an entry over the row's pivot entry) is
the one plain Gauss-Jordan over Fractions gives.  The rank is the number
of pivots.  :func:`frac_solve` reads the rows, and so do the
support-rank and the interior-point certificate in ``geometry`` and the
hit-and-run chart, ``ConstraintMatrix.kernel_chart``, which reads each
kernel entry as a float by integer true division, with no Fraction.

:func:`_exact` holds the one int64-or-Python-int rule for the exact integer
arrays: H's integer rows, the rays and the vertex keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import numpy as np

#: int64 arithmetic is used only when a bound on every intermediate is below this.
_INT64_BOUND = 1 << 62


def _exact(bound: int, *arrays: np.ndarray) -> List[np.ndarray]:
    """The arrays as int64 when ``bound`` on every intermediate is below 2^62, else as Python ints."""
    dtype = np.int64 if bound < _INT64_BOUND else object
    return [a.astype(dtype, copy=False) for a in arrays]


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


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


def _int_rref(rows: Union[Sequence[Sequence], np.ndarray]) -> Tuple[List[List[int]], List[int]]:
    """Integer reduced row echelon form of ``rows``, and its pivot columns.

    Rational rows are scaled by :func:`_integer_rows`; an integer array,
    such as ``ConstraintMatrix.int_rows``, is taken as it is.  Fraction-free
    Gauss-Jordan: clearing column ``c`` of row ``i`` with pivot row ``p`` is
    ``p[c] * row_i - row_i[c] * p``, after which row ``i`` is divided by the
    gcd of its entries.  Returns all rows, the pivot rows first: row ``i <
    len(pivots)`` is an integer multiple of the ``i``-th row of the reduced
    row echelon form (primitive when the rows it starts from are), zero in
    every other pivot column, and the rest are zero.
    """
    m = rows.tolist() if isinstance(rows, np.ndarray) else [list(row) for row in _integer_rows(rows)]
    pivots: List[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
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
    return m, pivots


def frac_solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve ``rows @ x = rhs`` exactly.

    Returns ``(solution, nullity)`` with the free variables set to 0, or
    ``None`` when the system is inconsistent.
    """
    ncols = len(rows[0]) if rows else 0
    m, pivots = _int_rref([[*row, v] for row, v in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:  # a pivot in the augmented column
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(m, pivots):
        x[pc] = Fraction(row[-1], row[pc])
    return tuple(x), ncols - len(pivots)
