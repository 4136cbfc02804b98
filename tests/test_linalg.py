"""Unit checks for the exact linear algebra helpers, against the conftest oracles."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bintab
from bintab._linalg import _int_rref, frac_solve
from conftest import _gauss_solve, reference_primitive_row, reference_rank, reference_rref

F = Fraction


def test_int_rank_matches_rational_rank_on_random_matrices():
    rng = random.Random(8128)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert len(_int_rref(m)[1]) == reference_rank(m)


def test_int_rank_with_zero_pivot_column_rows():
    # regression: rows with a zero in the pivot column must still be rescaled
    m = [
        [2, 3, 5, 7],
        [0, 4, 6, 10],
        [2, 7, 11, 17],
    ]
    assert len(_int_rref(m)[1]) == reference_rank(m) == 2


def test_solve_consistency_and_inconsistency():
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    solution, nullity = frac_solve(rows, [F(3), F(1)])
    assert solution == (F(2), F(1)) and nullity == 0
    assert frac_solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None
    # a zero row with a nonzero right-hand side, and no rows at all
    assert frac_solve([[F(0), F(0)], [F(1), F(2)]], [F(1), F(0)]) is None
    assert frac_solve([], []) == ((), 0)


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
    rows, pivots = _int_rref(m)
    expected_rows, expected_pivots = reference_rref(m)
    assert pivots == expected_pivots
    assert len(rows) == len(expected_rows)
    # primitive integer rows: each pivot row over its pivot entry is the rational RREF row
    assert all(type(v) is int for row in rows for v in row)
    assert all(math.gcd(*row) in (0, 1) for row in rows)
    for i, row in enumerate(rows):
        if i < len(pivots):
            assert [F(v, row[pivots[i]]) for v in row] == expected_rows[i]
        else:
            assert not any(row) and not any(expected_rows[i])
    # an integer array, as H's primitive rows are given, is reduced as it is, to the same rows
    primitive = np.array([reference_primitive_row(row) for row in m], dtype=np.int64)
    assert _int_rref(primitive.reshape(len(m), len(m[0]) if m else 0)) == (rows, pivots)


@settings(max_examples=400, deadline=None)
@given(rational_matrices(), st.data())
def test_frac_solve_matches_oracle(m, data):
    # the rank-deficient rows make many of these right-hand sides inconsistent
    rhs = data.draw(st.lists(_entries, min_size=len(m), max_size=len(m)))
    expected = _gauss_solve(m, rhs)
    solved = frac_solve(m, rhs)
    if expected is None:
        assert solved is None
    else:
        assert solved == (tuple(expected[0]), expected[1])


def test_frac_rref_accepts_int_rows_and_keeps_zero_rows():
    rows, pivots = _int_rref([[0, 0, 0], [2, 4, 6], [1, 2, 3], [0, 0, 5]])
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]]


def test_every_linalg_function_has_a_caller_in_the_package():
    # exact-algebra helpers that only tests call are expected values computed by package code
    src = Path(bintab.__file__).parent
    defined = {
        node.name
        for node in ast.parse((src / "_linalg.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    imported = set()
    for path in src.glob("*.py"):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("_linalg", "bintab._linalg"):
                imported.update(alias.name for alias in node.names)
    assert defined and not defined - imported, f"no caller in src/bintab: {sorted(defined - imported)}"


def test_only_constraints_scales_rows_and_only_linalg_holds_the_int64_rule():
    # H's rows are scaled to integers once, in ConstraintMatrix.int_rows, which every exact reader uses
    src = Path(bintab.__file__).parent
    users, definers = set(), {}
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = (
                {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom)
                else {node.id} if isinstance(node, ast.Name)
                else {node.attr} if isinstance(node, ast.Attribute)
                else set()
            )
            if "_integer_rows" in names:
                users.add(path.stem)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined = {node.name}
            elif isinstance(node, ast.Assign):
                defined = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                continue
            for name in defined & {"_exact", "_max_abs", "_INT64_BOUND"}:
                definers.setdefault(name, set()).add(path.stem)
    assert users == {"_linalg", "constraints"}
    assert definers == {name: {"_linalg"} for name in ("_exact", "_max_abs", "_INT64_BOUND")}
