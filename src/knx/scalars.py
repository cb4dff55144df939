"""Exact scalars and vectors: rationals, rational vectors, the pairing q.

Problem data and every reported number are Fractions; the pairings in
between are integers.  Each problem is cleared to integers once: the
weight system caches its cleared weights, the group its cleared roots and
``GramForm.cleared`` the form's integer rows, and the span walk, the cone
projection, the stratum signs, the shifts and the invariance checks pair
those tables in Python ints.  Fractions are still built where a value is
parsed or reported (a ``ConeProjection`` builds its Fraction fields only
when they are read) and for c(beta) through ``GramForm.apply``.  The
infinitesimal perturbation of the weight hulls never needs its own
arithmetic: the closest point of a perturbed hull is exactly eps*v for a
rational vector v (see ``convex``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidParameter
from .linalg import IntVector, clear_denominators

# ASCII digits only: \d and int() would also take other scripts' digits
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")


def rat(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction.  Floats are rejected outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidParameter("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value.strip())
        if match is None:
            raise InvalidParameter(f"not a rational string: {value!r}")
        num, den = match.groups()
        try:
            return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
        except ValueError as exc:  # more digits than int() converts
            raise InvalidParameter("too many digits in a rational string") from exc
    raise InvalidParameter(f"floats and other types are not allowed: {value!r}")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as 'p/q', or 'p' when q=1.  Never a float."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


Vector = tuple[Fraction, ...]


def vector(entries: Iterable) -> Vector:
    return tuple(rat(e) for e in entries)


def vec_neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vec_scale(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def vec_zero(n: int) -> Vector:
    return (Fraction(0),) * n


@dataclass(frozen=True)
class GramForm:
    """Symmetric positive-definite rational bilinear form (Weyl-invariant q)."""

    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "GramForm":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "GramForm":
        mat = tuple(tuple(rat(x) for x in r) for r in rows)
        n = len(mat)
        if any(len(r) != n for r in mat):
            raise InvalidParameter("form matrix must be square")
        if any(mat[i][j] != mat[j][i] for i in range(n) for j in range(i)):
            raise InvalidParameter("form matrix must be symmetric")
        # elimination without row swaps: the k-th pivot is the ratio of the
        # k-th and (k-1)-th leading minors, so all pivots are > 0 exactly
        # when the form is positive definite (Sylvester's criterion)
        work = [list(r) for r in mat]
        for k in range(n):
            if work[k][k] <= 0:
                raise InvalidParameter("form matrix must be positive definite")
            for i in range(k + 1, n):
                f = work[i][k] / work[k][k]
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
        return cls(mat)

    @cached_property
    def cleared(self) -> tuple[int, tuple[IntVector, ...]]:
        """(d, d*q) for the least d > 0 that makes every entry an integer."""
        return clear_denominators(self.rows)

    @cached_property
    def _sparse_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The nonzero (j, q_ij) of each row: forms are mostly sparse (the
        presets are identities), so a pairing visits only these."""
        return tuple(tuple((j, r) for j, r in enumerate(row) if r) for row in self.rows)

    def apply(self, u: Vector, v: Vector) -> Fraction:
        if len(u) != self.rank:
            raise InvalidParameter("vector length does not match form rank")
        # zero terms are skipped: weights are mostly sparse too
        return sum((a * b for a, b in zip(u, self.covector(v)) if a), Fraction(0))

    def covector(self, v: Vector) -> tuple[Fraction, ...]:
        """q*v, so that q(u, v) is the dot product of u with it."""
        if len(v) != self.rank:
            raise InvalidParameter("vector length does not match form rank")
        if self.is_identity:  # every preset's form: q*v is v
            return tuple(v)
        return tuple(sum(r * v[j] for j, r in row) for row in self._sparse_rows)

    @cached_property
    def is_identity(self) -> bool:
        return all(row == ((i, 1),) for i, row in enumerate(self._sparse_rows))

    def norm2(self, v: Vector) -> Fraction:
        return self.apply(v, v)
