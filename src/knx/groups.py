"""Reductive group presets and custom root data.

A group is stored as torus data only: rank, the nonzero weights of the
adjoint action (roots) as one sparse integer table, a base of them (simple
roots) and the invariant form Q.  The Weyl group is never materialized:
every use of it reflects integer vectors in the simple roots, at most
|roots| times to canonicalize.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Sequence

from .errors import InternalInconsistency, InvalidParameter, ZeroVector
from .linalg import IntVector, clear_denominators, dot, solve_exact
from .scalars import GramForm, Vector, vector

# the nonzero (i, v_i) of an integer vector v
Support = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GroupData:
    """``int_roots`` holds the roots: (d, the nonzero (i, d*r_i) of each root
    r, in root order) for the least d > 0 that clears them.  A gl(n) table
    has 2n(n-1) entries, so pairing a vector with every root is O(n^2)."""

    rank: int
    int_roots: tuple[int, tuple[Support, ...]]
    simple_roots: tuple[Vector, ...]
    form: GramForm
    label: str = "custom"

    @property
    def is_torus(self) -> bool:
        return not self.int_roots[1]

    @cached_property
    def roots(self) -> tuple[Vector, ...]:
        """The dense ``Fraction`` roots, O(rank) each: only custom-data checks read them."""
        d, table = self.int_roots
        return tuple(_dense(r, d, self.rank) for r in table)

    @cached_property
    def reflections(self) -> tuple[tuple[IntVector, Support, int], ...]:
        """(S, the nonzero (i, (Q S)_i), Q(S, S)) per simple root S, with S
        and Q S over one denominator: a vector pairs with Q S on its
        support alone, two entries for a root of gl(n)."""
        pairs = (clear_denominators([s, self.form.covector(s)])[1] for s in self.simple_roots)
        return tuple((s, tuple((i, x) for i, x in enumerate(qs) if x), dot(s, qs)) for s, qs in pairs)

    @cached_property
    def key(self) -> "Keyed":
        """The group as a cache key, by value: its label and its roots,
        simple roots and form, each cleared to integers, carrying the group.
        Equal keys give equal strata, dominant keys and shifts."""
        simple = tuple(s for s, _, _ in self.reflections)
        return Keyed((self.label, self.int_roots, simple, self.form.cleared), self)


class Keyed:
    """A cache argument that hashes and compares by ``key`` alone and
    carries ``data``, what a miss builds from.  So a cache holds one entry
    per value of the key, and neither hashes nor compares the data."""

    __slots__ = ("key", "data", "_hash")

    def __init__(self, key, data=None):
        self.key, self.data, self._hash = key, data, hash(key)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Keyed) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash


def _pairing(w: Sequence[int], qs: Support) -> int:
    """Q(w, S) on the table's scale, from the nonzero entries of Q S."""
    return sum(w[i] * x for i, x in qs)


def _reflect(w: Sequence[int], p: int, s: IntVector, qss: int) -> IntVector:
    """Q(S, S) times the reflection of w in S, for p = Q(w, S) on the table's scale."""
    return tuple(qss * a - 2 * p * b for a, b in zip(w, s))


def _permutes(vectors: Sequence[IntVector], s: IntVector, qs: Support, qss: int) -> bool:
    moved = [(w, p) for w in vectors if (p := _pairing(w, qs))]  # Q(W, S) = 0: W is fixed
    scaled = Counter(tuple(qss * a for a in w) for w, _ in moved)
    return scaled == Counter(_reflect(w, p, s, qss) for w, p in moved)


def group_data(
    rank: int,
    roots: Sequence[Sequence],
    simple_roots: Sequence[Sequence],
    form: Sequence[Sequence] | None = None,
    label: str = "custom",
) -> GroupData:
    """Build and machine-verify a group description.

    The form rows are checked for symmetry and positive definiteness; a
    reflection in a root is then a q-isometry, so only the root system's
    closure under the simple reflections needs checking.  The simple roots
    must be a base of the roots.
    """
    if rank < 1:
        raise InvalidParameter("rank must be >= 1")
    q = GramForm.identity(rank) if form is None else GramForm.from_rows(form)
    if q.rank != rank:
        raise InvalidParameter("form rank does not match group rank")
    root_vecs = tuple(vector(r) for r in roots)
    simple_vecs = tuple(vector(r) for r in simple_roots)
    for r in root_vecs + simple_vecs:
        if len(r) != rank:
            raise InvalidParameter("root length does not match rank")
        if all(x == 0 for x in r):
            raise InvalidParameter("zero vector is not a root")
    counts = Counter(root_vecs)
    for r in root_vecs:
        # a repeated root would count twice in the nilpotent part of a shift
        if counts[r] > 1:
            raise InvalidParameter(f"the root {tuple(map(str, r))} is listed more than once")
        if tuple(-x for x in r) not in counts:
            raise InvalidParameter(f"roots not closed under negation: {r}")
    den, ints = clear_denominators(root_vecs)
    table = tuple(tuple((i, x) for i, x in enumerate(r) if x) for r in ints)
    group = GroupData(rank, (den, table), simple_vecs, q, label)
    for s, reflection in zip(simple_vecs, group.reflections):
        if s not in counts:
            raise InvalidParameter("every simple root must be a root")
        if not _permutes(ints, *reflection):
            raise InvalidParameter("a simple reflection does not preserve the roots")
    _require_base(group)
    return group


def _require_base(group: GroupData) -> None:
    """The simple roots S must be linearly independent and each root a
    combination of them with coefficients all >= 0 or all <= 0.  The
    coefficients c of a root r solve (S S^T) c = S r, singular exactly when
    S is dependent."""
    simple = clear_denominators(group.simple_roots)[1]
    gram = [[dot(a, b) for b in simple] for a in simple]
    for root, r in zip(group.roots, clear_denominators(group.roots)[1]):
        solution = solve_exact(gram, [dot(s, r) for s in simple])
        if solution is None:
            raise InvalidParameter("the simple roots are linearly dependent")
        den, c = solution
        combination = [sum(x * s[j] for x, s in zip(c, simple)) for j in range(group.rank)]
        if combination != [den * a for a in r] or min(c) < 0 < max(c):
            raise InvalidParameter(
                f"the root {tuple(map(str, root))} is not a nonnegative or nonpositive "
                "combination of the simple roots"
            )


# the presets are frozen, so one instance per rank or n, with its cached
# tables, serves the process; the last 8 of each stay
@lru_cache(maxsize=8)
def torus(rank: int) -> GroupData:
    if rank < 1:
        raise InvalidParameter("rank must be >= 1")
    return GroupData(rank, (1, ()), (), GramForm.identity(rank), f"torus({rank})")


@lru_cache(maxsize=8)
def gl(n: int) -> GroupData:
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    roots = tuple(
        ((i, 1), (j, -1)) if i < j else ((j, -1), (i, 1))
        for i in range(n) for j in range(n) if i != j
    )
    simple = tuple(_dense(((i, 1), (i + 1, -1)), 1, n) for i in range(n - 1))
    return GroupData(n, (1, roots), simple, GramForm.identity(n), f"gl({n})")


@lru_cache(maxsize=8)
def sl(n: int) -> GroupData:
    """sl(n) on the rank-n coordinate lattice; the trace-zero constraint is
    recorded in the label, characters live modulo (1,...,1)."""
    return replace(gl(n), label=f"sl({n})")


def product(factors: Sequence[GroupData]) -> GroupData:
    """The product group; one instance per sequence of factor keys, the
    last 8 of them kept, since its simple roots and form take O(rank^2)
    to build."""
    if not factors:
        raise InvalidParameter("product needs at least one factor")
    return _product(Keyed(tuple(g.key for g in factors), tuple(factors)))


@lru_cache(maxsize=8)
def _product(key: Keyed) -> GroupData:
    factors = key.data
    rank = sum(g.rank for g in factors)
    zero = (Fraction(0),) * rank
    # the factors' dense rows padded with zeros, their root tables shifted to one scale
    scale = lcm(1, *(g.int_roots[0] for g in factors))
    simple: list[Vector] = []
    rows: list[Vector] = []
    roots = []
    offset = 0
    for g in factors:
        before, after = zero[:offset], zero[offset + g.rank:]
        simple.extend(before + r + after for r in g.simple_roots)
        rows.extend(before + r + after for r in g.form.rows)
        d, table = g.int_roots
        roots.extend(tuple((offset + i, x * (scale // d)) for i, x in r) for r in table)
        offset += g.rank
    label = "x".join(g.label for g in factors)
    return GroupData(rank, (scale, tuple(roots)), tuple(simple), GramForm(tuple(rows)), label)


def weyl_canonicalize(v: Vector, group: GroupData) -> Vector:
    """Dominant representative of the Weyl orbit of v.

    Repeatedly applies any simple reflection whose root pairs negatively
    with v; for gl(n) this sorts the coordinates in nonincreasing order.
    Reflects the integers den * v, one gcd per step, at most |roots| times;
    v itself when it is dominant, as every v is with no reflection."""
    if not group.reflections:
        return v
    den, (start,) = clear_denominators([v])
    current = start
    for _ in range(len(group.int_roots[1]) + 1):
        for s, qs, qss in group.reflections:
            if (p := _pairing(current, qs)) < 0:
                current = _reflect(current, p, s, qss)
                g = gcd(den * qss, *current)
                den, current = den * qss // g, tuple(a // g for a in current)
                break
        else:
            return v if current is start else tuple(Fraction(a, den) for a in current)
    raise InternalInconsistency("Weyl canonicalization did not terminate")


def primitive_rescale(v: Vector) -> Vector:
    """Unique positive rational multiple of v with coprime integer entries."""
    if all(x == 0 for x in v):
        raise ZeroVector("cannot rescale the zero vector")
    _, (ints,) = clear_denominators([v])
    g = gcd(*ints)
    return tuple(Fraction(a, g) for a in ints)


@dataclass(frozen=True)
class TorusCharacter:
    """Differential of a character of the maximal torus, in weight coordinates."""

    vec: Vector


@dataclass(frozen=True)
class LieCharacter:
    """Linear functional on the Lie algebra killing [g, g].

    ``base`` is the fixed part; an optional ``direction`` makes the
    parametric family base + t*direction.
    """

    base: Vector
    direction: Vector | None = None


def validate_lie_character(c: LieCharacter, group: GroupData) -> None:
    for name, part in (("base", c.base), ("direction", c.direction)):
        if part is not None:
            _require_invariant(f"character {name}", part, group)


def validate_torus_character(chi: TorusCharacter, group: GroupData) -> None:
    """chi must have the group's rank and vanish on every root, so that the
    Weyl group permutes the strata it defines."""
    _require_invariant("chi", chi.vec, group)


def validate_weyl_stable(int_weights: Sequence[IntVector], group: GroupData) -> None:
    """Every simple reflection must permute the weight multiset, given
    cleared to integers on any one positive scale: the strata are Weyl
    classes of flat directions, and v(wF) = w v(F) for the flats F and Weyl
    elements w only if the Weyl group permutes the weights."""
    for root, reflection in zip(group.simple_roots, group.reflections):
        if not _permutes(int_weights, *reflection):
            raise InvalidParameter(
                f"the reflection in the simple root {tuple(map(str, root))} "
                "does not permute the weights"
            )


def _require_invariant(what: str, vec: Vector, group: GroupData) -> None:
    # the length check comes first and costs nothing, whatever rank is claimed
    if len(vec) != group.rank:
        raise InvalidParameter(f"{what} length does not match rank")
    # q*vec is formed once and cleared; each root visits its nonzero entries
    _, (qv,) = clear_denominators([group.form.covector(vec)])
    d, table = group.int_roots
    for root in table:
        if sum(x * qv[i] for i, x in root):
            text = tuple(map(str, _dense(root, d, group.rank)))
            raise InvalidParameter(f"{what} does not vanish on the root {text}")


def _dense(root: Sequence[tuple[int, int]], d: int, rank: int) -> Vector:
    """The dense ``Fraction`` vector of a root's nonzero (i, d*r_i) entries."""
    out = [Fraction(0)] * rank
    for i, x in root:
        out[i] = Fraction(x, d)
    return tuple(out)
