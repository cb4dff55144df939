"""Small exact linear algebra on one integer kernel: canonical span bases.

Matrices are lists of rows with Fraction or int entries.  Every
elimination clears the rows to integers with one common denominator
(``clear_denominators``) and builds the canonical basis of their span:
each basis row is the primitive integer multiple, with positive pivot, of
the matching row of the reduced row echelon form, so the rows are zero in
every other row's pivot column and the basis is its own hashable key.
``span_extend`` adds one vector fraction-free (Bareiss 1968): a row step
multiplies by the pivot instead of dividing by it, and one gcd at the end
keeps the entries small.

The span walk of the strata path extends bases directly.  ``matrix_rank``
is the size of the basis of the rows, and ``solve_exact`` reads
x = nums/den off the basis of the augmented rows [A | b] and returns the
integers (den, nums).  The passive solves of the cone projection call
``solve_exact``, and each defining support makes one ``matrix_rank`` call
to re-check its independence.  The oracle makes one ``matrix_rank`` call
per closest-point search, for the affine rank of its vertices, and one
``solve_exact`` per support.  Sizes in this
package stay in the single digits, so straightforward elimination is both
fast enough and easy to audit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
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
) -> tuple[int, IntVector] | None:
    """Solve A x = b exactly as x = nums/den with den > 0; None if
    inconsistent, free variables set to 0."""
    n = len(rows[0]) if rows else 0
    aug = clear_denominators([list(r) + [b] for r, b in zip(rows, rhs)])[1]
    basis = reduce(span_extend, aug, ())
    pivots = [_pivot(row) for row in basis]
    if n in pivots:
        return None  # pivot in the constant column: inconsistent
    # each basis row is a row of the RREF of [A | b] times its pivot entry,
    # so x_p = row[n] / row[p]: den is the lcm of the pivot entries
    den = lcm(1, *(row[p] for row, p in zip(basis, pivots)))
    nums = [0] * n
    for row, p in zip(basis, pivots):
        nums[p] = row[n] * (den // row[p])
    return den, tuple(nums)
