"""Exact q-projection of a character onto the cone of a weight set.

Every candidate polytope in this package is a perturbed weight hull
conv{0, w_i} + eps*chi, compared in the limit eps -> 0^-.  The origin is
always a vertex, so near 0 the hull is the cone spanned by the w_i, and
its closest point to the origin is exactly eps*v with

    v = chi - p,    p = the q-closest point of cone{w_i} to chi.

p comes from an exact Lawson-Hanson active-set nonnegative least-squares
solve (Lawson and Hanson, *Solving Least Squares Problems*, 1974, ch. 23)
run in integers: the weights, chi and the form are each cleared of
denominators once, which scales the cone's generators, chi, p and q by
positive constants only.  The Moreau/KKT conditions certify the result
completely and are re-checked in integers: the coefficients of p are >= 0,
q(w, v) <= 0 for every weight w of the set, and q(p, v) = 0.  The
projection keeps that integer certificate; v, p, the coefficients and the
pairings become Fractions only when they are read.  Within the solve, the
coefficients are integers over one common denominator, and the step
lengths are compared by cross-multiplication.

The defining support of p is read off the solve, not searched for: the
members with a coefficient > 0, its final passive set, are independent
weights of the face {w : q(w, v) = 0} that carry p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

from .errors import InternalInconsistency
from .linalg import IntVector, clear_denominators, dot, matrix_rank, solve_exact
from .scalars import GramForm, Vector

DEFAULT_VERTEX_CAP = 24


@dataclass(frozen=True)
class WeightTable:
    """Weights w_i with their q-pairings in integers, chi-free.

    ``weights`` are the Fraction vectors as given.  The cleared weights are
    W_i = weight_scale*w_i (``int_weights``) and the cleared form is
    Q = form_scale*q; ``covectors[i]`` is Q W_i and gram[i][j] = Q(W_i, W_j).
    """

    weights: tuple[Vector, ...]
    int_weights: tuple[IntVector, ...]
    covectors: tuple[IntVector, ...]
    weight_scale: int
    form_scale: int
    gram: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GramTable(WeightTable):
    """A weight table and a character chi: X = chi_scale*chi (``int_chi``)
    and rhs[i] = Q(W_i, X)."""

    int_chi: IntVector
    chi_scale: int
    rhs: tuple[int, ...]


def weight_table(
    weights: Sequence[Vector],
    q: GramForm,
    cleared: tuple[int, Sequence[IntVector]] | None = None,
) -> WeightTable:
    """``cleared`` is ``clear_denominators(weights)``, for a caller that has it."""
    weight_scale, int_weights = clear_denominators(weights) if cleared is None else cleared
    form_scale, int_form = q.cleared
    covectors = tuple(tuple(dot(row, w) for row in int_form) for w in int_weights)
    gram = tuple(tuple(dot(c, w) for w in int_weights) for c in covectors)
    return WeightTable(tuple(weights), tuple(int_weights), covectors, weight_scale, form_scale, gram)


def with_chi(table: WeightTable, chi: Vector) -> GramTable:
    """The table of ``table``'s weights and chi: chi is cleared and paired here."""
    chi_scale, (int_chi,) = clear_denominators([chi])
    rhs = tuple(dot(c, int_chi) for c in table.covectors)
    return GramTable(table.weights, table.int_weights, table.covectors, table.weight_scale,
                     table.form_scale, table.gram, int_chi, chi_scale, rhs)


def gram_table(weights: Sequence[Vector], chi: Vector, q: GramForm) -> GramTable:
    return with_chi(weight_table(weights, q), chi)


@dataclass(frozen=True)
class ConeProjection:
    """The projection p of chi onto cone{w_i : i in members} and v = chi - p.

    The closest point of conv{0, w_i} + eps*chi to the origin is eps*v.
    The certificate is kept in integers on the table's scales: V = scale*v
    (``int_direction``), P = scale*p, coefficient k of w_{members[k]} in p
    is int_coefficients[k]*weight_scale/scale >= 0, and its pairing
    q(w_{members[k]}, v) is int_pairings[k]/(scale*weight_scale*form_scale)
    <= 0.  The Fraction fields are built on first read.
    """

    members: tuple[int, ...]
    int_direction: IntVector
    int_projection: IntVector
    int_coefficients: IntVector
    int_pairings: IntVector
    scale: int
    weight_scale: int
    form_scale: int

    @cached_property
    def direction(self) -> Vector:
        return tuple(Fraction(x, self.scale) for x in self.int_direction)

    @cached_property
    def projection(self) -> Vector:
        return tuple(Fraction(x, self.scale) for x in self.int_projection)

    @cached_property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k * self.weight_scale, self.scale) for k in self.int_coefficients)

    @cached_property
    def pairings(self) -> tuple[Fraction, ...]:
        pair_scale = self.scale * self.weight_scale * self.form_scale
        return tuple(Fraction(s, pair_scale) for s in self.int_pairings)


def min_norm_point(table: GramTable, members: Sequence[int]) -> ConeProjection:
    """Certified cone projection of chi onto the given table weights.

    The solve runs on the integer table, for X = chi_scale*chi on the W_i.
    A weight enters the passive set only when it pairs positively with the
    current residual, which is Q-orthogonal to the span of the passive
    set; so the passive weights stay linearly independent and every
    passive solve is nonsingular.
    """
    members = tuple(members)
    gram = [[table.gram[i][j] for j in members] for i in members]
    rhs = [table.rhs[i] for i in members]
    passive: list[int] = []
    # the coefficients are ks/den over one common denominator, and dual is
    # den times the pairings of the weights with the residual X - P
    ks, den = [0] * len(members), 1
    dual = list(rhs)
    while True:
        entering = [k for k in range(len(members)) if k not in passive and dual[k] > 0]
        if not entering:
            break
        passive.append(max(entering, key=lambda k: dual[k]))
        while True:
            sol = solve_exact([[gram[i][j] for j in passive] for i in passive],
                              [rhs[i] for i in passive])
            if sol is None:
                raise InternalInconsistency("the passive weights became linearly dependent")
            zden, zs = sol
            if all(x > 0 for x in zs):
                ks, den = [0] * len(members), zden
                for k, x in zip(passive, zs):
                    ks[k] = x
                break
            # step from ks/den towards zs/zden until the first coefficient
            # hits 0: t = K zden / (K zden - x den), compared crosswise
            tn, td = 1, 0
            for k, x in zip(passive, zs):
                if x <= 0:
                    a, b = ks[k] * zden, ks[k] * zden - x * den
                    if td == 0 or a * td < tn * b:
                        tn, td = a, b
            # ks/den + t (zs/zden - ks/den) over the denominator den zden td
            for k, x in zip(passive, zs):
                ks[k] = ks[k] * zden * (td - tn) + tn * x * den
            den *= zden * td
            g = gcd(den, *ks)
            ks, den = [k // g for k in ks], den // g
            passive = [k for k in passive if ks[k] > 0]
        dual = [den * r - dot(row, ks) for r, row in zip(rhs, gram)]
    return _certify(table, members, ks, den)


def _certify(table: GramTable, members: tuple[int, ...], ks: Sequence[int], den: int) -> ConeProjection:
    # the Moreau/KKT conditions, re-evaluated from the integer vectors and
    # form: the coefficients of X on the W_i are ks/den, so den*X = P + V
    # with P = sum k_i W_i
    if any(k < 0 for k in ks):
        raise InternalInconsistency("cone projection has a negative coefficient")
    p = [0] * len(table.int_chi)
    for i, k in zip(members, ks):
        if k:
            p = [a + k * w for a, w in zip(p, table.int_weights[i])]
    v = [den * x - a for x, a in zip(table.int_chi, p)]
    pairings = [dot(table.covectors[i], v) for i in members]
    if any(s > 0 for s in pairings):
        raise InternalInconsistency("cone projection residual pairs positively with a weight")
    # Q(P, V) expanded over P = sum k_i W_i
    if dot(ks, pairings) != 0:
        raise InternalInconsistency("cone projection residual is not orthogonal to the projection")
    # back to chi = X/chi_scale: v = V/scale, p = P/scale, w_i = W_i/weight_scale
    return ConeProjection(members, tuple(v), tuple(p), tuple(ks), tuple(pairings),
                          den * table.chi_scale, table.weight_scale, table.form_scale)


def cone_support(proj: ConeProjection, table: GramTable) -> tuple[int, ...]:
    """Table indices of the members with coefficient > 0: the final passive
    set of the solve, () when p = 0.  By the certificate they carry p with
    positive coefficients and pair to 0 with v; their linear independence
    is re-checked here."""
    support = tuple(i for i, k in zip(proj.members, proj.int_coefficients) if k > 0)
    if matrix_rank([table.int_weights[i] for i in support]) != len(support):
        raise InternalInconsistency("the defining support is linearly dependent")
    return support
