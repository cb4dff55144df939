"""Small exact linear algebra helpers: Fraction elimination and integer spans.

Matrices are lists of rows.  ``row_reduce``, ``matrix_rank`` and
``solve_exact`` run Gauss-Jordan elimination over Fraction (int entries
are accepted and come back as Fractions); the passive solves of the cone
projection, the defining supports and the oracle use them.

The span walk of the strata path works on integer rows only.  A span is
held as its canonical basis: each row is the primitive integer multiple,
with positive pivot, of the matching row of the reduced row echelon form,
so the rows are zero in every other row's pivot column and the basis is
its own hashable key.  Vectors are reduced against it fraction-free
(Bareiss 1968): a row step multiplies by the pivot instead of dividing by
it, and one gcd at the end keeps the entries small.  Sizes in this package
stay in the single digits, so straightforward elimination is both fast
enough and easy to audit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

IntVector = tuple[int, ...]
IntBasis = tuple[IntVector, ...]


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
    basis: IntBasis = ()
    for i, v in enumerate(clear_denominators(vectors)[1]):
        if not span_contains(basis, v):
            basis = span_extend(basis, v)
            chosen.append(i)
    return chosen


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[IntVector, ...]]:
    """(d, d * rows) for the least d > 0 that makes every entry an integer."""
    d = lcm(1, *(x.denominator for row in rows for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def span_extend(basis: IntBasis, v: Sequence[int]) -> IntBasis:
    """Canonical basis of span(basis + {v}); ``basis`` itself when v lies in
    its span, so one call both tests and extends."""
    vec = _reduce(basis, v)
    p = _pivot(vec)
    if p is None:
        return basis
    vec = _primitive(vec, p)
    d = vec[p]
    # clear the new pivot column from the rows above; each keeps its own
    # pivot entry positive, and vec is zero in their pivot columns
    rows = [_primitive([d * a - row[p] * b for a, b in zip(row, vec)], _pivot(row))
            if row[p] else row for row in basis]
    rows.append(vec)
    rows.sort(key=_pivot)
    return tuple(rows)


def span_contains(basis: IntBasis, v: Sequence[int]) -> bool:
    return not any(_reduce(basis, v))


def span_key(basis: IntBasis) -> IntBasis:
    """Hashable canonical fingerprint of a span: its canonical basis."""
    return tuple(basis)


def rref_key(basis: IntBasis) -> tuple[tuple[Fraction, ...], ...]:
    """The reduced row echelon form of the span over Fraction, for ordering."""
    return tuple(tuple(Fraction(a, row[_pivot(row)]) for a in row) for row in basis)


def _reduce(basis: IntBasis, v: Sequence[int]) -> list[int]:
    # a positive multiple of v minus its component in the span: zero in
    # every pivot column, and zero exactly when v lies in the span
    vec = list(v)
    for row in basis:
        p = _pivot(row)
        f = vec[p]
        if f:
            d = row[p]
            vec = [d * a - f * b for a, b in zip(vec, row)]
    return vec


def _primitive(vec: Sequence[int], p: int) -> IntVector:
    # divide by the content, signed so that the entry at p is positive
    g = gcd(*vec)
    if vec[p] < 0:
        g = -g
    return tuple(a // g for a in vec)


def _pivot(row: Sequence) -> int | None:
    for j, x in enumerate(row):
        if x:
            return j
    return None


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
