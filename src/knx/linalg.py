"""Small exact linear algebra helpers over Fraction.

Everything here works on plain lists/tuples of Fraction; matrices are
lists of rows.  Sizes in this package stay in the single digits, so
straightforward Gaussian elimination is both fast enough and easy to audit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (in place on a copy) plus pivot columns."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return mat, pivots


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    _, pivots = row_reduce([list(r) for r in rows])
    return len(pivots)


def independent_subset(vectors: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a greedy maximal linearly independent subset (first wins)."""
    chosen: list[int] = []
    basis: list[list[Fraction]] = []
    for i, v in enumerate(vectors):
        if not span_contains(basis, v):
            basis = span_extend(basis, v)
            chosen.append(i)
    return chosen


def span_extend(basis: list[list[Fraction]], v: Sequence[Fraction]) -> list[list[Fraction]]:
    """Return an RREF basis of span(basis ∪ {v}); basis must already be RREF."""
    vec = list(v)
    for row in basis:
        p = _pivot(row)
        if p is not None and vec[p] != 0:
            f = vec[p]
            vec = [a - f * b for a, b in zip(vec, row)]
    p = _pivot(vec)
    if p is None:
        return basis
    inv = ONE / vec[p]
    vec = [x * inv for x in vec]
    new = basis + [vec]
    # re-reduce above the new pivot and keep rows ordered by pivot column
    for row in new[:-1]:
        if row[p] != 0:
            f = row[p]
            row[:] = [a - f * b for a, b in zip(row, vec)]
    new.sort(key=lambda r: _pivot(r))
    return new


def span_contains(basis: list[list[Fraction]], v: Sequence[Fraction]) -> bool:
    vec = list(v)
    for row in basis:
        p = _pivot(row)
        if p is not None and vec[p] != 0:
            f = vec[p]
            vec = [a - f * b for a, b in zip(vec, row)]
    return all(x == 0 for x in vec)


def span_key(basis: list[list[Fraction]]) -> tuple:
    """Hashable canonical fingerprint of a span (its RREF basis)."""
    return tuple(tuple(row) for row in basis)


def _pivot(row: Sequence[Fraction]) -> int | None:
    return next((j for j, x in enumerate(row) if x != 0), None)


def solve_exact(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve A x = b exactly; None if inconsistent, free variables set to 0."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = row_reduce(aug)
    sol = [ZERO] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None  # pivot in the constant column: inconsistent
        sol[c] = red[r][n]
    # rows past the pivots must be all-zero including rhs
    for r in range(len(pivots), m):
        if red[r][n] != 0:
            return None
    return sol
