"""Properties of the fraction-free integer linear algebra in ``linalg``.

The solver is compared with a plain ``Fraction`` Gauss-Jordan oracle and the
determinant with the Leibniz expansion; neither oracle shares code with the
module under test.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicriticals import linalg
from dicriticals.descriptor import make_descriptor, valuation_matrix
from dicriticals.errors import MatrixError
from dicriticals.linalg import bareiss_determinant, leading_minors, solve_row_system


def fraction_solve(matrix, rhs):
    """Oracle: x * matrix = rhs by Gauss-Jordan over ``Fraction``.

    Returns None when the matrix is singular and the (possibly
    non-integral) solution otherwise.
    """
    n = len(matrix)
    aug = [[Fraction(matrix[r][c]) for r in range(n)] + [Fraction(rhs[c])] for c in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col] / pv
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    return tuple(aug[col][n] / aug[col][col] for col in range(n))


def leibniz_determinant(matrix):
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for r in range(n):
            term *= matrix[r][perm[r]]
        total += term
    return total


def assert_matches_oracle(matrix, rhs):
    expected = fraction_solve(matrix, rhs)
    assert expected is not None and all(v.denominator == 1 for v in expected)
    assert solve_row_system(matrix, rhs) == tuple(int(v) for v in expected)


# -- strategies ----------------------------------------------------------------


@st.composite
def unimodular_matrices(draw, max_n=8):
    """Products of integer elementary matrices: row additions, swaps, negations."""
    n = draw(st.integers(1, max_n))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3 * n))):
        kind = draw(st.sampled_from(["add", "swap", "negate"]))
        i, j = draw(index), draw(index)
        if kind == "add" and i != j:
            k = draw(st.integers(-3, 3))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        elif kind == "swap":
            m[i], m[j] = m[j], m[i]
        elif kind == "negate":
            m[i] = [-a for a in m[i]]
    return m


@st.composite
def descriptor_matrices(draw, max_m=24):
    """Valuation matrix of a descriptor with random parents and 0/1 multiplicities."""
    m = draw(st.integers(1, max_m))
    parents = [[]]
    for j in range(2, m + 1):
        parents.append(sorted(draw(st.sets(st.integers(1, j - 1), min_size=1, max_size=3))))
    rows = [tuple(draw(st.integers(0, 1)) for _ in range(j - 1)) + (1,) for j in range(1, m + 1)]
    d = make_descriptor(3, parents, curvette_mults=rows)
    return [list(row) for row in valuation_matrix(d).rows]


def square_matrices(max_n, lo=-2, hi=2):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n)
    )


def with_rhs(matrices):
    return matrices.flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.integers(-50, 50), min_size=len(m), max_size=len(m)))
    )


# -- solve ---------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(with_rhs(unimodular_matrices()))
def test_solve_matches_fraction_oracle_on_unimodular(case):
    matrix, rhs = case
    assert bareiss_determinant(matrix) in (1, -1)
    assert_matches_oracle(matrix, rhs)


@settings(max_examples=25, deadline=None)
@given(with_rhs(descriptor_matrices()))
def test_solve_matches_fraction_oracle_on_valuation_matrices(case):
    matrix, rhs = case
    assert_matches_oracle(matrix, rhs)


@settings(max_examples=80, deadline=None)
@given(with_rhs(square_matrices(5)))
def test_solve_agrees_with_oracle_on_any_matrix(case):
    matrix, rhs = case
    expected = fraction_solve(matrix, rhs)
    if expected is None:
        with pytest.raises(MatrixError, match="^matrix is singular$"):
            solve_row_system(matrix, rhs)
    elif any(v.denominator != 1 for v in expected):
        with pytest.raises(MatrixError, match="no integer solution; matrix is not unimodular"):
            solve_row_system(matrix, rhs)
    else:
        assert solve_row_system(matrix, rhs) == tuple(int(v) for v in expected)


def test_solve_error_messages():
    with pytest.raises(MatrixError, match="^matrix is singular$"):
        solve_row_system([[1, 1], [2, 2]], [1, 0])
    assert bareiss_determinant([[2, 1], [0, 1]]) == 2
    with pytest.raises(MatrixError, match="^system has no integer solution; matrix is not unimodular$"):
        solve_row_system([[2, 1], [0, 1]], [1, 0])
    assert bareiss_determinant([[0, 1], [2, 0]]) == -2
    with pytest.raises(MatrixError, match="^system has no integer solution; matrix is not unimodular$"):
        solve_row_system([[0, 1], [2, 0]], [1, 1])
    with pytest.raises(MatrixError, match="^right-hand side has wrong length$"):
        solve_row_system([[1, 0], [0, 1]], [1])
    # a determinant of 2 still admits the integer solutions that exist
    assert solve_row_system([[2, 1], [0, 1]], [2, 4]) == (1, 3)
    assert solve_row_system([], []) == ()


# -- determinants and minors -----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(square_matrices(5, -3, 3))
def test_determinant_matches_leibniz(matrix):
    assert bareiss_determinant(matrix) == leibniz_determinant(matrix)


@settings(max_examples=150, deadline=None)
@given(st.one_of(square_matrices(7, -1, 1), square_matrices(6), unimodular_matrices(6)))
def test_leading_minors_are_leading_determinants(matrix):
    expected = tuple(bareiss_determinant([row[:t] for row in matrix[:t]]) for t in range(1, len(matrix) + 1))
    assert leading_minors(matrix) == expected


def test_leading_minors_after_zero_pivots():
    assert leading_minors([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == (0, -1, -1)
    assert leading_minors([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == (0, 0, -1)
    assert leading_minors([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == (1, 0, -1)
    assert leading_minors([]) == ()


def test_unit_minors_take_one_pass(monkeypatch):
    m = 24
    d = make_descriptor(3, [[]] + [[k] for k in range(1, m)])
    matrix = [list(row) for row in valuation_matrix(d).rows]
    calls = []
    original = linalg.bareiss_determinant

    def counting(arg):
        calls.append(len(arg))
        return original(arg)

    monkeypatch.setattr(linalg, "bareiss_determinant", counting)
    assert leading_minors(matrix) == (1,) * m
    assert calls == []
    # only a zero leading minor sends the larger sizes to single determinants
    assert leading_minors([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == (0, -1, -1)
    assert calls == [2, 3]


# -- input boundary ----------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda m: bareiss_determinant(m),
        lambda m: leading_minors(m),
        lambda m: solve_row_system(m, [1] * len(m)),
    ],
    ids=["determinant", "minors", "solve"],
)
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1.5]], "matrix entry 1.5 is not an integer"),
        ([[1, 0], [0, 1.0]], "matrix entry 1.0 is not an integer"),
        ([[True]], "matrix entry True is not an integer"),
        ([[1, 2, 3], [4, 5, 6]], "matrix is not square"),
        ([[1, 2], [3]], "matrix is not square"),
    ],
)
def test_entry_points_reject_bad_matrices(call, matrix, message):
    with pytest.raises(MatrixError, match=f"^{message}$"):
        call(matrix)


@pytest.mark.parametrize("rhs", [[1.5], [False]])
def test_solve_rejects_non_integer_rhs(rhs):
    with pytest.raises(MatrixError, match=f"^right-hand side entry {rhs[0]!r} is not an integer$"):
        solve_row_system([[1]], rhs)
