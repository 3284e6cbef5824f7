"""Exact integer linear algebra for small dense systems.

Everything runs on one fraction-free elimination loop (Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination").  After step k of that loop, by Sylvester's identity, each
remaining entry is a (k+1)-rowed minor of the matrix divided by the k-th
pivot, so every division is exact and every intermediate value is an integer
bounded by a minor.  The determinant is the last pivot, the leading minors
are the pivots of one pass without row swaps, and a linear solve
back-substitutes in integers on ``det * x``.  A pass costs O(n^3) integer
operations; nothing touches ``Fraction`` or floating point.

Nothing in the library calls this module: the package re-exports its
functions, and the tests use them as an oracle independent of the
factorization A = M·P of the valuation matrix.  ``leading_minors`` checks
the minors that ``descriptor.leading_principal_minors`` certifies from that
factorization, and ``solve_row_system`` checks the inverse the solvers take
by undoing the order recursion (``descriptor.inverse_orders``).
``bareiss_determinant`` serves ``leading_minors`` after a zero pivot.

Entries must be ``int`` (``bool`` is refused) and matrices must be square; a
violation raises ``MatrixError`` instead of being truncated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import MatrixError

IntMatrix = Sequence[Sequence[int]]


def _check_ints(values: Iterable[int], what: str = "matrix entry") -> None:
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise MatrixError(f"{what} {v!r} is not an integer")


def _square_rows(matrix: IntMatrix) -> list[list[int]]:
    """Validated mutable copy of a square integer matrix."""
    n = len(matrix)
    rows = [list(row) for row in matrix]
    if any(len(row) != n for row in rows):
        raise MatrixError("matrix is not square")
    _check_ints(v for row in rows for v in row)
    return rows


def _eliminate(m: list[list[int]], pivoting: bool) -> tuple[int, int]:
    """Bareiss forward elimination of the n leading columns of ``m``, in place.

    ``m`` has n rows and at least n columns; columns beyond the n-th are
    carried along (an augmented right-hand side).  Afterwards ``m[k][k]`` is
    the (k+1)-th leading minor of the row-permuted matrix, and the upper
    triangle holds an equivalent integer system; entries below the diagonal
    are left stale.  A zero pivot is replaced by a lower row when
    ``pivoting`` is set, and otherwise ends the pass.

    Returns ``(steps, sign)``: the number of nonzero pivots (n unless the
    pass stopped at a zero pivot ``m[steps][steps]``) and the sign of the
    row permutation.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k] != 0), None) if pivoting else None
            if r is None:
                return k, sign
            m[k], m[r] = m[r], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        tail = top[k + 1 :]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            row[k + 1 :] = [(a * p - f * b) // prev for a, b in zip(row[k + 1 :], tail)]
        prev = p
    return n, sign


def bareiss_determinant(matrix: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    m = _square_rows(matrix)
    n = len(m)
    if n == 0:
        return 1
    steps, sign = _eliminate(m, pivoting=True)
    return sign * m[n - 1][n - 1] if steps == n else 0


def leading_minors(matrix: IntMatrix) -> tuple[int, ...]:
    """Determinants of all leading principal submatrices.

    One elimination pass without row swaps reads them off as its pivots.
    Only when a leading minor is zero does the pass stop; the larger sizes
    are then computed one determinant at a time.
    """
    m = _square_rows(matrix)
    n = len(m)
    steps, _ = _eliminate(m, pivoting=False)
    minors = [m[k][k] for k in range(min(steps + 1, n))]
    for t in range(len(minors) + 1, n + 1):
        minors.append(bareiss_determinant([row[:t] for row in matrix[:t]]))
    return tuple(minors)


def solve_row_system(matrix: IntMatrix, rhs: Sequence[int]) -> tuple[int, ...]:
    """Solve x * matrix = rhs exactly for a square integer matrix.

    The matrix must be invertible; an integer solution is required (it always
    exists when the determinant is a unit) and verified by back-substitution.
    """
    rows = _square_rows(matrix)
    n = len(rows)
    if len(rhs) != n:
        raise MatrixError("right-hand side has wrong length")
    _check_ints(rhs, "right-hand side entry")
    if n == 0:
        return ()
    # Transpose so the unknowns form an ordinary column system.
    aug = [list(col) + [b] for col, b in zip(zip(*rows), rhs)]
    steps, _ = _eliminate(aug, pivoting=True)
    if steps < n:
        raise MatrixError("matrix is singular")
    det = aug[n - 1][n - 1]
    # By Cramer's rule det * x is integral, so each division here is exact.
    scaled = [0] * n
    for k in range(n - 1, -1, -1):
        row = aug[k]
        acc = det * row[n] - sum(row[j] * scaled[j] for j in range(k + 1, n))
        scaled[k] = acc // row[k]
    values = []
    for y in scaled:
        q, r = divmod(y, det)
        if r:
            raise MatrixError("system has no integer solution; matrix is not unimodular")
        values.append(q)
    for c in range(n):
        if sum(values[r] * rows[r][c] for r in range(n)) != rhs[c]:
            raise MatrixError("solution verification failed")
    return tuple(values)
