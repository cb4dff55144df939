"""Exact q-projection of a character onto the cone of a weight set.

Every candidate polytope in this package is a perturbed weight hull
conv{0, w_i} + eps*chi, compared in the limit eps -> 0^-.  The origin is
always a vertex, so near 0 the hull is the cone spanned by the w_i, and
its closest point to the origin is exactly eps*v with

    v = chi - p,    p = the q-closest point of cone{w_i} to chi.

p is found by an exact Lawson-Hanson active-set nonnegative least-squares
solve over Fraction (Lawson and Hanson, *Solving Least Squares Problems*,
1974, ch. 23), on the Gram matrix q(w_i, w_j) and the pairings q(w_i, chi),
computed once per weight set.  The Moreau/KKT conditions certify the
result completely: the coefficients of p are >= 0, q(w, v) <= 0 for every
weight w of the set, and q(p, v) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import InternalInconsistency
from .linalg import matrix_rank, solve_exact
from .scalars import GramForm, Vector, is_zero_vector, vec_add, vec_scale, vec_sub, vec_zero

DEFAULT_VERTEX_CAP = 24


@dataclass(frozen=True)
class GramTable:
    """Weights w_i and a character chi with their q-pairings.

    gram[i][j] = q(w_i, w_j) and rhs[i] = q(w_i, chi).
    """

    form: GramForm
    weights: tuple[Vector, ...]
    chi: Vector
    gram: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]


def gram_table(weights: Sequence[Vector], chi: Vector, q: GramForm) -> GramTable:
    n = len(weights)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = q.apply(weights[i], weights[j])
    rhs = tuple(q.apply(w, chi) for w in weights)
    return GramTable(q, tuple(weights), chi, tuple(map(tuple, gram)), rhs)


@dataclass(frozen=True)
class ConeProjection:
    """The projection p of chi onto cone{w_i : i in members} and v = chi - p.

    The closest point of conv{0, w_i} + eps*chi to the origin is eps*v.
    coefficients[k] >= 0 is the weight of w_{members[k]} in p, and
    pairings[k] = q(w_{members[k]}, v) <= 0.
    """

    direction: Vector
    projection: Vector
    members: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    pairings: tuple[Fraction, ...]


def min_norm_point(table: GramTable, members: Sequence[int]) -> ConeProjection:
    """Certified cone projection of table.chi onto the given table weights.

    A weight enters the passive set only when it pairs positively with the
    current residual v, which is q-orthogonal to the span of the passive
    set; so the passive weights stay linearly independent and every
    passive solve is nonsingular.
    """
    members = tuple(members)
    gram = [[table.gram[i][j] for j in members] for i in members]
    rhs = [table.rhs[i] for i in members]
    coeffs = [Fraction(0)] * len(members)
    passive: list[int] = []
    dual = list(rhs)
    while True:
        entering = [k for k in range(len(members)) if k not in passive and dual[k] > 0]
        if not entering:
            break
        passive.append(max(entering, key=lambda k: dual[k]))
        while True:
            z = solve_exact([[gram[i][j] for j in passive] for i in passive],
                            [rhs[i] for i in passive])
            if z is None:
                raise InternalInconsistency("the passive weights became linearly dependent")
            if all(x > 0 for x in z):
                for k, x in zip(passive, z):
                    coeffs[k] = x
                break
            # step from coeffs towards z until the first coefficient hits 0
            step = min(coeffs[k] / (coeffs[k] - x) for k, x in zip(passive, z) if x <= 0)
            for k, x in zip(passive, z):
                coeffs[k] += step * (x - coeffs[k])
            passive = [k for k in passive if coeffs[k] > 0]
        dual = [rhs[i] - sum(gram[i][k] * coeffs[k] for k in passive)
                for i in range(len(members))]
    return _certify(table, members, tuple(coeffs))


def _certify(table: GramTable, members: tuple[int, ...], coeffs: tuple[Fraction, ...]) -> ConeProjection:
    # the Moreau/KKT conditions, re-evaluated from the vectors and the form
    q = table.form
    if any(c < 0 for c in coeffs):
        raise InternalInconsistency("cone projection has a negative coefficient")
    p = vec_zero(len(table.chi))
    for i, c in zip(members, coeffs):
        p = vec_add(p, vec_scale(c, table.weights[i]))
    v = vec_sub(table.chi, p)
    pairings = tuple(q.apply(table.weights[i], v) for i in members)
    if any(s > 0 for s in pairings):
        raise InternalInconsistency("cone projection residual pairs positively with a weight")
    if q.apply(p, v) != 0:
        raise InternalInconsistency("cone projection residual is not orthogonal to the projection")
    return ConeProjection(v, p, members, coeffs, pairings)


def cone_support(proj: ConeProjection, table: GramTable) -> tuple[Vector, ...]:
    """First linearly independent set of member weights, in (size, lex)
    order over the members, that lies in the face {w : q(w, v) = 0} and
    carries the projection p with every coefficient > 0; () when p = 0."""
    p = proj.projection
    if is_zero_vector(p):
        return ()
    face = [table.weights[i] for i, s in zip(proj.members, proj.pairings) if s == 0]
    dim = len(p)
    for size in range(1, min(len(face), dim) + 1):
        for support in combinations(face, size):
            if matrix_rank(support) != size:
                continue
            a = solve_exact([[w[r] for w in support] for r in range(dim)], list(p))
            if a is not None and all(x > 0 for x in a):
                return support
    raise InternalInconsistency("no face of the cone carries the projection")
