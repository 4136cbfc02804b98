"""Unit checks for the exact linear algebra helpers."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bintab._linalg import affine_rank, frac_nullspace, frac_rank, frac_rref, frac_solve, int_rank
from conftest import reference_rref

F = Fraction


def test_int_rank_matches_rational_rank_on_random_matrices():
    rng = random.Random(8128)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert int_rank(m) == frac_rank([[F(v) for v in row] for row in m])


def test_int_rank_with_zero_pivot_column_rows():
    # regression: rows with a zero in the pivot column must still be rescaled
    m = [
        [2, 3, 5, 7],
        [0, 4, 6, 10],
        [2, 7, 11, 17],
    ]
    assert int_rank(m) == frac_rank([[F(v) for v in row] for row in m]) == 2


def test_nullspace_vectors_annihilate_rows():
    rng = random.Random(999)
    for _ in range(50):
        rows = [[F(rng.randint(-5, 5)) for _ in range(6)] for _ in range(3)]
        basis = frac_nullspace(rows, 6)
        assert len(basis) == 6 - frac_rank(rows)
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_solve_consistency_and_inconsistency():
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    solution, nullity = frac_solve(rows, [F(3), F(1)])
    assert solution == (F(2), F(1)) and nullity == 0
    assert frac_solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


def test_affine_rank():
    pts = [(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]
    assert affine_rank(pts) == 1
    assert affine_rank([(F(1), F(2))]) == 0


# sparse small rationals: most entries 0, so zero rows and zero columns are common
_entries = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.builds(F, st.integers(-12, 12), st.integers(1, 9)),
)


@st.composite
def rational_matrices(draw):
    """Random rational matrices, wide or tall, with dependent rows and an optional rhs column."""
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 8))
    m = [draw(st.lists(_entries, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    if n_rows >= 2 and draw(st.booleans()):
        # rank-deficient: one row a rational combination of two others
        a, b = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
        x, y = draw(_entries), draw(_entries)
        m[draw(st.integers(0, n_rows - 1))] = [x * u + y * v for u, v in zip(m[a], m[b])]
    if draw(st.booleans()):
        # augmented with a right-hand side, as frac_solve builds it
        m = [row + [draw(_entries)] for row in m]
    return m


@settings(max_examples=400, deadline=None)
@given(rational_matrices())
def test_frac_rref_matches_rational_gauss_jordan(m):
    rows, pivots = frac_rref(m)
    expected_rows, expected_pivots = reference_rref(m)
    assert pivots == expected_pivots
    assert rows == expected_rows
    assert all(type(v) is Fraction for row in rows for v in row)


def test_frac_rref_accepts_int_rows_and_keeps_zero_rows():
    rows, pivots = frac_rref([[0, 0, 0], [2, 4, 6], [1, 2, 3], [0, 0, 5]])
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]]
