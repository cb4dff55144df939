"""Small exact linear algebra on integers: canonical span bases and a
square fraction-free solve.

Matrices are lists of rows with Fraction or int entries.  ``matrix_rank``
and the span walk clear the rows to integers with one common denominator
(``clear_denominators``) and build the canonical basis of their span:
each basis row is the primitive integer multiple, with positive pivot, of
the matching row of the reduced row echelon form, so the rows are zero in
every other row's pivot column and the basis is its own hashable key.
``span_extend`` adds one vector fraction-free (Bareiss 1968): a row step
multiplies by the pivot instead of dividing by it, and one gcd at the end
keeps the entries small.  A caller that extends one basis by many vectors
passes the basis's ``pivots`` once.  ``span_residual`` is the first half
of that step: the primitive part of a vector outside the span, zero in
every pivot column, so two vectors extend a basis to the same span
exactly when their residuals are equal.  ``rref_sorted`` orders bases of
one rank as their Fraction RREFs would be ordered, without building one:
the RREF rows times the lcm of all their pivot entries are integer rows.

The flat enumeration of the strata path groups the lines off a flat by
their residuals modulo its basis and extends the basis once per flat not
met before; the residuals modulo that flat are the old ones reduced by
the one new row.  ``matrix_rank`` is the size of the basis of the rows.
``solve_exact`` takes only square integer systems: a Bareiss elimination
with row pivoting, then back substitution to the integers det(A) * x,
returned as (den, nums) in lowest terms, or None when the matrix is
singular.  The passive solves of the cone projection call
``solve_exact`` on the integer Gram table, and each defining support
makes one ``matrix_rank`` call to re-check its independence.  The oracle
makes one ``matrix_rank`` call per closest-point search, for the affine
rank of its vertices; it eliminates the supports' Gram minors itself,
one chain at a time, and re-solves each winning support with one
``solve_exact``.  No Fraction is built here.  Sizes in this package stay
in the single digits, so straightforward elimination is both fast enough
and easy to audit.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul
from typing import Sequence

IntVector = tuple[int, ...]
IntBasis = tuple[IntVector, ...]


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(reduce(span_extend, clear_denominators(rows)[1], ()))


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
    return sum(map(mul, u, v))


def pivots(basis: IntBasis) -> list[int]:
    """The pivot column of each row of a canonical basis, in row order."""
    return [_pivot(row) for row in basis]


def span_extend(basis: IntBasis, v: Sequence[int], cols: Sequence[int] | None = None) -> IntBasis:
    """Canonical basis of span(basis + {v}); ``basis`` itself when v lies in
    its span, so one call both tests and extends.  ``cols`` are the
    basis's ``pivots``, for a caller that extends one basis by many vectors."""
    if cols is None:
        cols = pivots(basis)
    vec = span_residual(basis, v, cols)
    if vec is None:
        return basis
    p = _pivot(vec)
    d = vec[p]
    # clear the new pivot column from the rows above; each keeps its own
    # pivot column and a positive entry there, since vec is zero in every
    # pivot column and before p
    rows = [_primitive([d * a - row[p] * b for a, b in zip(row, vec)], c)
            if row[p] else row for row, c in zip(basis, cols)]
    rows.insert(bisect_left(cols, p), vec)
    return tuple(rows)


def span_residual(basis: IntBasis, v: Sequence[int], cols: Sequence[int]) -> IntVector | None:
    """v minus its component in the span, as its primitive multiple with a
    positive pivot; None when v lies in the span.  It is zero in every
    pivot column of the basis, so two vectors extend the basis to the same
    span exactly when their residuals are equal."""
    vec = _reduce(basis, cols, v)
    p = _pivot(vec)
    return None if p is None else _primitive(vec, p)


def span_contains(basis: IntBasis, v: Sequence[int]) -> bool:
    return not any(_reduce(basis, pivots(basis), v))


def span_key(basis: IntBasis) -> IntBasis:
    """Hashable canonical fingerprint of a span: its canonical basis."""
    return tuple(basis)


def rref_sorted(bases: Sequence[IntBasis]) -> list[IntBasis]:
    """Canonical bases of one rank, in the order of their reduced row echelon
    forms over Fraction.  Each row of the RREF is the basis row over its
    pivot entry; times the lcm of every pivot entry of the bases, it is an
    integer row, and one positive scale for all keeps their order."""
    cols = [pivots(basis) for basis in bases]
    scale = lcm(1, *(row[c] for basis, bc in zip(bases, cols) for row, c in zip(basis, bc)))
    keys = [tuple(tuple(a * (scale // row[c]) for a in row) for row, c in zip(basis, bc))
            for basis, bc in zip(bases, cols)]
    return [basis for _, basis in sorted(zip(keys, bases))]


def _reduce(basis: IntBasis, cols: Sequence[int], v: Sequence[int]) -> list[int]:
    # a positive multiple of v minus its component in the span: zero in
    # every pivot column, and zero exactly when v lies in the span
    vec = list(v)
    for row, p in zip(basis, cols):
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
    return tuple([a // g for a in vec])


def _pivot(row: Sequence) -> int | None:
    for j, x in enumerate(row):
        if x:
            return j
    return None


def solve_exact(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[int, IntVector] | None:
    """Solve the square integer system A x = b as x = nums/den, with den > 0
    and gcd(den, *nums) = 1; None when A is singular.

    Fraction-free elimination (Bareiss 1968): a row step multiplies by the
    pivot and divides exactly by the previous one, so every entry stays an
    integer minor and the last pivot is det A up to sign.  Back
    substitution then gives the integers det(A) * x (Cramer's rule).  The
    content of A is divided out first: the oracle's Gram minors carry the
    square of their vertices' clearing scale, which the minors would
    otherwise raise to the k-th power.
    """
    n = len(rows)
    # A = c A' for the content c of A: x = x'/c with A' x' = b
    c = gcd(*(a for row in rows for a in row)) or 1
    m = [[*(a // c for a in row), b] for row, b in zip(rows, rhs)]
    det = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return None
        m[k], m[p] = m[p], m[k]
        pivot_row = m[k]
        d = pivot_row[k]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(d * a - f * b) // det for a, b in zip(m[i], pivot_row)]
        det = d
    nums = [0] * n
    for i in reversed(range(n)):
        row = m[i]
        nums[i] = (det * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))) // row[i]
    g = gcd(det * c, *nums)
    if det < 0:
        g = -g
    return det * c // g, tuple(x // g for x in nums)
