"""Enumeration of Kirwan-Ness one-parameter subgroups of a linearized
representation, with stratum descriptions, ordering and semistability
detection.

Each candidate is the closest point to the origin of a perturbed weight
hull conv{0, w_i} + eps*chi.  The origin is always a vertex, so that point
is exactly eps*v with v = chi - proj_{cone(w_i)}(chi) in the q-metric, and
the exact cone projection of ``convex`` computes and certifies v.
Subsets are deduplicated by the span of their weights: if J is a minimal
support of the optimum for any subset, the optimum is also the optimum of
the maximal subset with span(J), so evaluating one maximal subset per span
(a flat) finds every stratum and every semistable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .convex import (
    DEFAULT_VERTEX_CAP,
    ConeProjection,
    GramTable,
    cone_support,
    gram_table,
    min_norm_point,
)
from .errors import CapExceeded, InvalidParameter
from .groups import GroupData, TorusCharacter, primitive_rescale, weyl_canonicalize
from .linalg import dot, rref_key, span_extend
from .scalars import Vector, is_zero_vector, vec_neg, vector

ORIENTATIONS = ("negative", "positive", "both")


@dataclass(frozen=True)
class WeightSystem:
    """Torus weights of the space to stratify.

    cotangent mode stratifies T*W: the weight list doubles to
    w_weights + (-w_weights) and w_weights feeds the shift formula.
    raw mode stratifies the given weights directly.
    """

    w_weights: tuple[Vector, ...]
    mode: str = "cotangent"

    def __post_init__(self):
        if self.mode not in ("cotangent", "raw"):
            raise InvalidParameter(f"unknown mode {self.mode!r}")
        if not self.w_weights:
            raise InvalidParameter("at least one weight is required")
        n = len(self.w_weights[0])
        if any(len(w) != n for w in self.w_weights):
            raise InvalidParameter("weights must all have the same length")

    @property
    def rank(self) -> int:
        return len(self.w_weights[0])

    @property
    def stratify_weights(self) -> tuple[Vector, ...]:
        if self.mode == "cotangent":
            return self.w_weights + tuple(vec_neg(w) for w in self.w_weights)
        return self.w_weights


def weight_system(weights: Sequence[Sequence], mode: str = "cotangent") -> WeightSystem:
    return WeightSystem(tuple(vector(w) for w in weights), mode)


@dataclass(frozen=True)
class KNStratum:
    """One Kirwan-Ness stratum of the stratified space.

    ``direction`` is the unrescaled closest-point direction v (the closest
    point is eps*v); beta_neg/beta_pos are the two signed primitive
    representatives, beta the orientation-selected one.  Index fields refer
    to positions in stratify_weights; the defining subset is the origin
    together with the weights at defining_indices: the final passive set
    of the cone solve on the first flat giving this stratum.
    """

    direction: Vector
    beta_neg: Vector
    beta_pos: Vector
    beta: Vector
    beta_dominant: Vector
    q_norm: Fraction
    defining_indices: tuple[int, ...]
    v_plus: tuple[int, ...]
    v_zero: tuple[int, ...]
    v_minus: tuple[int, ...]

    @property
    def y_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.v_plus + self.v_zero))


@dataclass(frozen=True)
class KNResult:
    strata: tuple[KNStratum, ...]
    semistable_nonempty: bool
    orientation: str


def span_candidates(
    ws: WeightSystem,
    chi: TorusCharacter,
    group: GroupData,
    cap: int = DEFAULT_VERTEX_CAP,
) -> Iterator[tuple[GramTable, ConeProjection]]:
    """Yield (pairing table, certified cone projection) per distinct span.

    The table holds the distinct nonzero weights and is shared by every
    flat; a projection's members are the table weights in its flat.  The
    origin is an implicit vertex of every flat.  The same generator feeds
    both the symbolic enumeration and the concrete-eps oracle, which
    re-solves each flat independently.
    """
    weights = ws.stratify_weights
    if len(chi.vec) != ws.rank or group.rank != ws.rank:
        raise InvalidParameter("weights, character and group rank disagree")
    distinct = sorted(set(weights))
    if len(distinct) + 1 > cap:
        raise CapExceeded(f"{len(distinct)} distinct weights exceed the cap of {cap}")
    nonzero = [w for w in distinct if not is_zero_vector(w)]
    table = gram_table(nonzero, chi.vec, group.form)

    # breadth-first over the canonical integer bases of the spans (each its
    # own key), one rank per level, each level in the order of the spans'
    # Fraction RREF keys; extending a basis by each weight both lists the
    # members of its flat (the basis comes back unchanged) and finds the
    # flats one rank up
    seen = {()}
    level = [()]
    while level:
        found = []
        for basis in level:
            members = []
            for i, w in enumerate(table.int_weights):
                bigger = span_extend(basis, w)
                if bigger is basis:
                    members.append(i)
                    continue
                if bigger not in seen:
                    seen.add(bigger)
                    found.append(bigger)
            yield table, min_norm_point(table, members)
        level = sorted(found, key=rref_key)


def enumerate_kn(
    ws: WeightSystem,
    chi: TorusCharacter,
    group: GroupData,
    orientation: str = "negative",
    cap: int = DEFAULT_VERTEX_CAP,
) -> KNResult:
    """Enumerate the KN one-parameter subgroups for the character chi."""
    if orientation not in ORIENTATIONS:
        raise InvalidParameter(f"unknown orientation {orientation!r}")
    weights = ws.stratify_weights
    q = group.form
    semistable = False
    found: dict[Vector, KNStratum] = {}
    # a direction seen before has its Weyl key in found already
    seen: set[Vector] = set()
    # each weight's first position: later positions are overwritten
    first = {w: i for i, w in reversed(tuple(enumerate(weights)))}
    for table, proj in span_candidates(ws, chi, group, cap):
        v = proj.direction
        if is_zero_vector(v):
            semistable = True
            continue
        if v in seen:
            continue
        seen.add(v)
        beta_neg = primitive_rescale(vec_neg(v))
        beta_pos = vec_neg(beta_neg)
        # W acts linearly, so either sign's orbit determines the other's
        beta = beta_pos if orientation == "positive" else beta_neg
        dominant = weyl_canonicalize(beta, group)
        if dominant in found:
            continue
        # Q(W, beta) over the integer table has the sign of q(w, beta); a
        # zero weight is not in the table and pairs to 0
        ints = [x.numerator for x in beta]
        sign = {w: dot(c, ints) for w, c in zip(table.weights, table.covectors)}
        plus, zero_idx, minus = [], [], []
        for i, w in enumerate(weights):
            s = sign.get(w, 0)
            (plus if s > 0 else zero_idx if s == 0 else minus).append(i)
        found[dominant] = KNStratum(
            direction=v,
            beta_neg=beta_neg,
            beta_pos=beta_pos,
            beta=beta,
            beta_dominant=dominant,
            q_norm=q.norm2(v),
            defining_indices=tuple(sorted(first[table.weights[j]] for j in cone_support(proj, table))),
            v_plus=tuple(plus),
            v_zero=tuple(zero_idx),
            v_minus=tuple(minus),
        )
    strata = sorted(found.values(), key=lambda s: (s.q_norm, s.beta_dominant))
    return KNResult(tuple(strata), semistable, orientation)
