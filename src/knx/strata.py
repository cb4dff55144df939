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
from functools import cached_property
from math import gcd
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
from .groups import GroupData, TorusCharacter, weyl_canonicalize
from .linalg import IntVector, clear_denominators, dot, pivots, rref_sorted, span_extend
from .scalars import Vector, vec_neg, vector

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

    @cached_property
    def stratify_weights(self) -> tuple[Vector, ...]:
        if self.mode == "cotangent":
            return self.w_weights + tuple(vec_neg(w) for w in self.w_weights)
        return self.w_weights

    @cached_property
    def cleared(self) -> tuple[int, tuple[IntVector, ...]]:
        """(d, d*w for each of w_weights) for the least d > 0 that clears them."""
        return clear_denominators(self.w_weights)

    @cached_property
    def int_stratify_weights(self) -> tuple[IntVector, ...]:
        """d*w for each of stratify_weights, on the scale d of ``cleared``."""
        ints = self.cleared[1]
        if self.mode == "cotangent":
            return ints + tuple(tuple(-a for a in w) for w in ints)
        return ints


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
    if len(chi.vec) != ws.rank or group.rank != ws.rank:
        raise InvalidParameter("weights, character and group rank disagree")
    # the distinct weights in the order of their Fraction vectors: one
    # positive scale keeps it
    ints = ws.int_stratify_weights
    distinct = sorted(set(ints))
    if len(distinct) + 1 > cap:
        raise CapExceeded(f"{len(distinct)} distinct weights exceed the cap of {cap}")
    nonzero = [w for w in distinct if any(w)]
    vectors = dict(zip(ints, ws.stratify_weights))
    table = gram_table([vectors[w] for w in nonzero], chi.vec, group.form)

    # breadth-first over the canonical integer bases of the spans (each its
    # own key), one rank per level, each level in the order of the spans'
    # Fraction RREFs; extending a basis by each weight both lists the
    # members of its flat (the basis comes back unchanged) and finds the
    # flats one rank up
    seen = {()}
    level = [()]
    while level:
        found = []
        for basis in level:
            cols = pivots(basis)
            members = []
            for i, w in enumerate(table.int_weights):
                bigger = span_extend(basis, w, cols)
                if bigger is basis:
                    members.append(i)
                    continue
                if bigger not in seen:
                    seen.add(bigger)
                    found.append(bigger)
            yield table, min_norm_point(table, members)
        level = rref_sorted(found)


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
    q = group.form
    semistable = False
    found: dict[Vector, KNStratum] = {}
    # the integer betas seen before: their Weyl keys are in found already
    seen: set[IntVector] = set()
    # per stratify weight its table index (None for a zero weight), and
    # per table index its first stratify weight, once the table is known
    index: list[int | None] = []
    first: dict[int, int] = {}
    for table, proj in span_candidates(ws, chi, group, cap):
        v = proj.int_direction
        if not any(v):
            semistable = True
            continue
        # beta_pos is the primitive integer multiple of v
        g = gcd(*v)
        ints = tuple(a // g for a in v)
        if ints in seen:
            continue
        seen.add(ints)
        beta_pos = tuple(map(Fraction, ints))
        beta_neg = vec_neg(beta_pos)
        # W acts linearly, so either sign's orbit determines the other's
        if orientation == "positive":
            beta = beta_pos
        else:
            beta, ints = beta_neg, tuple(-a for a in ints)
        dominant = weyl_canonicalize(beta, group)
        if dominant in found:
            continue
        if not index:
            # the table clears its weights by the least common denominator
            # of the same entries, so its integer weights are these
            position = {w: t for t, w in enumerate(table.int_weights)}
            index = [position.get(w) for w in ws.int_stratify_weights]
            for i, t in enumerate(index):
                first.setdefault(t, i)
        # Q(W, beta) over the integer table has the sign of q(w, beta); a
        # zero weight is not in the table and pairs to 0
        sign = [dot(c, ints) for c in table.covectors]
        plus, zero_idx, minus = [], [], []
        for i, t in enumerate(index):
            s = 0 if t is None else sign[t]
            (plus if s > 0 else zero_idx if s == 0 else minus).append(i)
        found[dominant] = KNStratum(
            direction=proj.direction,
            beta_neg=beta_neg,
            beta_pos=beta_pos,
            beta=beta,
            beta_dominant=dominant,
            q_norm=q.norm2(proj.direction),
            defining_indices=tuple(sorted(first[j] for j in cone_support(proj, table))),
            v_plus=tuple(plus),
            v_zero=tuple(zero_idx),
            v_minus=tuple(minus),
        )
    strata = sorted(found.values(), key=lambda s: (s.q_norm, s.beta_dominant))
    return KNResult(tuple(strata), semistable, orientation)
