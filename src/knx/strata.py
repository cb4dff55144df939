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

The full walk visits every flat, and the oracle re-solves each of them.
Which flats there are, and in which order the full walk meets them,
depends only on the shape (below), so they are enumerated once per shape
and kept on its record (``Shape.flats``): the oracle, every chi ray and
every orientation read the same tuple.  Parallel weights lie in the same
flats, so the enumeration tests one direction per line through the origin
and lists a flat's members as every weight on its lines.  It goes by rank
and orders each rank by reduced row echelon form.  The lines off a flat
fall into the flats that cover it by their residuals modulo its span, and
a cover is deduplicated by its set of lines before any basis is extended,
so a basis is extended once per flat.
``enumerate_kn`` needs one flat per Weyl orbit, since v(wF) = w v(F) when
W permutes the weights and fixes chi and q: (d), the precondition of every
walk.  A record exists only for weights W permutes, and ``_ray_strata``
refuses a chi that does not vanish on the roots.  The walk takes the
orbits when the problem is graphic, which ``_graphic`` checks on the
integer table: (a) W is not trivial and q is the identity; (b) every
simple root is a positive multiple of e_a - e_b, so W permutes the
coordinates within the classes, the components of the simple-root graph;
(c) every distinct nonzero weight is a multiple of e_i - e_j or of e_i.
By (d), each simple transposition then maps the weights onto themselves,
and chi is constant on each class.  Read e_i as e_i - e_0 for a ground
vertex 0: the weights are then the edges of a graph on {0, ..., n}, and
the flats are the partitions of its vertices into connected blocks
(Oxley, *Matroid Theory*, ch. 1).  The coordinates of one class are twins
in that graph, so the orbit of a flat is the multiset of its block types
(the count of each class in a block, and whether it holds 0), and whether
a block is connected depends on its type only.  Of each orbit the walk
solves the flat the full walk meets first (``_least_string``), and it
visits those flats in the full walk's order: by rank, then by reduced row
echelon form.  So each stratum is reported from the flat, direction and
defining support the full walk reports it from.  A problem that is not
graphic takes the full walk.

What is kept between calls depends on the problem's shape alone, and is
kept on its ``Shape`` record, one per group and weight multiset (its
scale and mode), which ``shape_of`` looks up by value; it keeps the last
8, and a miss refuses weights the Weyl group does not permute.  A record
holds the pairing table of the distinct nonzero weights, the graph (the
classes and the edges), the orbit walk's plan (which depends on the
classes and the edges alone), the full walk's flats and the strata of
the last 8 chi rays walked, each built on first use: all of it lives and
dies with the record.  Each walk pairs chi with the table.

The strata depend on chi only through its ray: the cone projection is
positively homogeneous, and the exact solve makes the same choices at any
positive scale, so chi = lam * ray has the ray's strata with each
direction times lam and each q-norm times lam^2.  ``_ray_strata`` checks
the primitive integer ray and walks the flats for it, and the record
keeps, per (ray, orientation), each stratum in table terms: its direction,
q-norm, betas and dominant key, the table indices of its defining subset
and Q(W_t, beta) per table index.  ``enumerate_kn`` checks the
orientation, the ranks and the cap on every call, then scales the kept
strata and reads their indices in the call's weight order; so a sweep
over c checks its ray and solves the flats once.  The oracle's walk is
never kept and takes any chi: it merges nothing by W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd
from typing import Iterator, NamedTuple, Sequence

from .convex import (
    DEFAULT_VERTEX_CAP,
    ConeProjection,
    GramTable,
    WeightTable,
    cone_support,
    min_norm_point,
    weight_table,
    with_chi,
)
from .errors import CapExceeded, InvalidParameter
from .groups import GroupData, Keyed, TorusCharacter, validate_torus_character, validate_weyl_stable, weyl_canonicalize
from .linalg import IntBasis, IntVector, clear_denominators, dot, pivots, rref_sorted, span_extend, span_residual
from .scalars import Vector, vec_neg, vec_scale, vector

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

    @cached_property
    def key(self) -> Keyed:
        """The weights as a cache key: the mode, the scale d of ``cleared``
        and the sorted d*w, so any order of the same weights gives one key."""
        d, ints = self.cleared
        return Keyed((self.mode, d, tuple(sorted(ints))))


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


@dataclass(frozen=True)
class Shape:
    """What a problem's strata and shifts use besides chi and c: a group
    and a weight multiset, on one scale and in one mode.

    ``key`` is the value the record is kept under, (group.key, ws.key), and
    carries the group and the first weight system of this shape seen, in
    its own order; everything read from it here is the same for any order.
    The chi-free table, the graph and the plan are built on the first walk,
    and the flats on the first full walk, after that call's cap check.
    ``kept`` holds the strata of the last 8 (chi ray, orientation) walked.
    """

    key: Keyed
    kept: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def table(self) -> WeightTable:
        """The distinct nonzero stratify weights, in the order of their
        Fraction vectors (one positive scale keeps it), paired."""
        group, ws = self.key.data
        nonzero = sorted({w for w in ws.int_stratify_weights if any(w)})
        vectors = dict(zip(ws.int_stratify_weights, ws.stratify_weights))
        # the distinct nonzero +-w have the denominators of the w: one scale
        return weight_table([vectors[w] for w in nonzero], group.form, (ws.cleared[0], nonzero))

    @cached_property
    def graph(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]] | None:
        return _graphic(self.table, self.key.data[0])

    @cached_property
    def flats(self) -> tuple[tuple[int, ...], ...]:
        """The table indices of the members of every flat, in the order of
        the full walk."""
        return _flats(self.table.int_weights)

    @cached_property
    def plan(self) -> tuple[tuple[int, ...], ...]:
        """The orbit walk's flats, for a graphic shape (``_orbit_plan``)."""
        return _orbit_plan(*self.graph)

    def strata(self, ray: IntVector, orientation: str) -> tuple[tuple[_RayStratum, ...], bool]:
        """``_ray_strata`` on this record, kept."""
        kept, key = self.kept, (ray, orientation)
        kept[key] = entry = kept.pop(key, None) or _ray_strata(self, ray, orientation)
        if len(kept) > 8:
            del kept[next(iter(kept))]
        return entry


def shape_of(ws: WeightSystem, group: GroupData) -> Shape:
    """The record of the shape of (ws, group), looked up by value.

    A miss checks that the Weyl group permutes the weights and raises
    ``InvalidParameter`` if it does not; such a shape is not kept.
    """
    return _shapes(Keyed((group.key, ws.key), (group, ws)))


# the records of the last 8 shapes stay in the process: a gl(12) record
# with its table and graph takes about 0.36 MiB, its key included
@lru_cache(maxsize=8)
def _shapes(key: Keyed) -> Shape:
    group, ws = key.data
    validate_weyl_stable(ws.cleared[1], group)
    return Shape(key)


def span_candidates(
    ws: WeightSystem,
    chi: TorusCharacter,
    group: GroupData,
    cap: float = DEFAULT_VERTEX_CAP,
    orbits: bool = False,
    paired: tuple[Shape, GramTable] | None = None,
) -> Iterator[tuple[GramTable, ConeProjection]]:
    """Yield (pairing table, certified cone projection) per distinct span.

    The table holds the distinct nonzero weights and is shared by every
    flat, and its chi-free part by every call of the shape; a projection's
    members are the table weights in its flat.  The origin is an implicit
    vertex of every flat.  The same generator feeds both the symbolic
    enumeration and the concrete-eps oracle, which re-solves each flat
    independently.  The full walk solves the shape's ``flats``; with
    ``orbits`` a graphic problem yields only the flat of each Weyl orbit
    that the full walk meets first, in the full walk's order (see the
    module docstring), and its caller vouches that chi vanishes on the
    roots.  ``paired`` is the shape's record and its table paired with
    chi, for a caller that has checked the sizes and has them.
    """
    if paired is None:
        _check_sizes(ws, chi, group, cap)
        shape = shape_of(ws, group)
        paired = shape, with_chi(shape.table, chi.vec)
    shape, table = paired
    for members in shape.plan if orbits and shape.graph is not None else shape.flats:
        yield table, min_norm_point(table, members)


def _flats(weights: Sequence[IntVector]) -> tuple[tuple[int, ...], ...]:
    """The indices of the weights in each flat of their span, by rank, then
    by the Fraction RREF of the flat's span."""
    # parallel weights lie in the same flats (a matroid and its
    # simplification have the same flats), so the walk tests one primitive
    # direction per line, its residual modulo the span {0}, and a flat
    # holds every weight on its lines
    lines: dict[IntVector, list[int]] = {}
    for i, w in enumerate(weights):
        lines.setdefault(span_residual((), w, ()), []).append(i)
    directions = list(lines)
    on_line = list(lines.values())
    # breadth-first, one rank per level, each level in the order of the
    # canonical integer bases' Fraction RREFs.  A flat is known by its set
    # of lines (a bit mask) and carries each line's residual modulo its
    # span, None for its own lines.  The lines of a flat F and those with
    # residual u make up the flat one rank up through u, so the residuals
    # group the lines off F into the covers of F, and only a cover not met
    # before in the level extends a basis.  Modulo that cover a line's
    # residual is its residual modulo F reduced by u alone: u is zero in
    # F's pivot columns.  A visited flat's entry goes, and a level shares
    # one tuple per distinct residual
    flats = []
    level: dict[IntBasis, tuple[int, list]] = {(): (0, directions)}
    while level:
        found: dict[IntBasis, tuple[int, list]] = {}
        seen: set[int] = set()
        shared: dict[IntVector, IntVector] = {}
        for basis in rref_sorted(list(level)):
            inside, residuals = level.pop(basis)
            covers: dict[IntVector, int] = {}
            for k, up in enumerate(residuals):
                if up is not None:
                    covers[up] = covers.get(up, inside) | 1 << k
            cols = pivots(basis)
            for up, cover in covers.items():
                if cover not in seen:
                    seen.add(cover)
                    p = pivots((up,))
                    found[span_extend(basis, up, cols)] = cover, [
                        None if cover >> k & 1 else shared.setdefault(u := span_residual((up,), r, p), u)
                        if r[p[0]] else r for k, r in enumerate(residuals)]
            flats.append(tuple(sorted(i for k, on in enumerate(on_line) if inside >> k & 1 for i in on)))
        level = found
    return tuple(flats)


def _check_sizes(ws: WeightSystem, chi: TorusCharacter, group: GroupData, cap: float) -> None:
    """The rank and cap checks of every walk and every enumeration."""
    if len(chi.vec) != ws.rank or group.rank != ws.rank:
        raise InvalidParameter("weights, character and group rank disagree")
    weights = ws.int_stratify_weights
    # the count of weights bounds the count of distinct ones
    if len(weights) + 1 > cap and (distinct := len(set(weights))) + 1 > cap:
        raise CapExceeded(f"{distinct} distinct weights exceed the cap of {cap}")


def _graphic(
    table: WeightTable, group: GroupData
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]] | None:
    """(the class of each coordinate, the edge of each table weight) when
    (a)-(c) in the module docstring hold, else None; the record's weights
    meet (d).  Vertex 0 is the ground and coordinate i is vertex i + 1; a
    class is named by one of its coordinates."""
    if not group.simple_roots or not group.form.is_identity:
        return None
    kinds = list(range(group.rank))
    for s, _, _ in group.reflections:
        ends = [i for i, x in enumerate(s) if x]
        if len(ends) != 2 or s[ends[0]] != -s[ends[1]]:
            return None
        a, b = ends
        kinds = [kinds[a] if k == kinds[b] else k for k in kinds]
    edges = []
    for w in table.int_weights:
        ends = [i for i, x in enumerate(w) if x]
        if len(ends) == 1:
            edges.append((0, ends[0] + 1))
        elif len(ends) == 2 and w[ends[0]] == -w[ends[1]]:
            edges.append((ends[0] + 1, ends[1] + 1))
        else:
            return None
    return tuple(kinds), tuple(edges)


def _orbit_plan(kinds: tuple[int, ...], edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    """The members of one flat per Weyl orbit, as indices into ``edges``:
    the flat the full walk meets first, in the order of the full walk.  It
    depends on the class layout and the edges only, so one plan serves
    every problem of that shape, whatever its chi or weight order.  gl(12)'s
    is the largest measured, 272 member tuples in about 0.1 MiB."""
    n = len(kinds)
    neighbours: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    # a coordinate without edges is a block of its own in every flat, and
    # the order of the flats is the order on the other coordinates
    active = [y for y in range(n) if neighbours[y + 1]]
    labels: dict[int, int] = {}
    active_kinds = [labels.setdefault(kinds[y], len(labels)) for y in active]
    classes = [[y + 1 for y, k in zip(active, active_kinds) if k == c] for c in range(len(labels))]
    sizes = tuple(map(len, classes))

    def connected(ground: bool, counts: tuple[int, ...]) -> bool:
        # the first vertices of each class stand for any: they are twins
        block = {0} if ground else set()
        for vertices, k in zip(classes, counts):
            block.update(vertices[:k])
        reached = {min(block)}
        stack = list(reached)
        while stack:
            new = neighbours[stack.pop()] & block - reached
            reached |= new
            stack.extend(new)
        return reached == block

    counts = list(product(*(range(k + 1) for k in sizes)))
    # the types of the blocks without 0, in decreasing order
    parts = [c for c in reversed(counts) if any(c) and connected(False, c)]

    def multisets(rest: tuple[int, ...], first: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not any(rest):
            yield ()
            return
        # the largest part holds the first class left; the block of one of
        # each class completes any rest, so no branch is a dead end
        lead = next(c for c, r in enumerate(rest) if r)
        for i in range(first, len(parts)):
            if parts[i][lead] and all(k <= r for k, r in zip(parts[i], rest)):
                left = tuple(r - k for r, k in zip(rest, parts[i]))
                for tail in multisets(left, i):
                    yield (parts[i],) + tail

    # ascending rank (most blocks first), then as the full walk orders a level
    least = _least_string(active_kinds, len(labels))
    flats = sorted((-len(tail), least(0, (), tail, ground))
                   for ground in counts if connected(True, ground)
                   for tail in multisets(tuple(s - k for s, k in zip(sizes, ground)), 0))
    # the block of each vertex, named by its largest coordinate; n for 0's
    names = active + [n]
    plan = []
    for _, string in flats:
        block = [n, *range(n)]
        for y, m in zip(active, string):
            block[y + 1] = y if m < 0 else names[m]
        plan.append(tuple(i for i, (u, v) in enumerate(edges) if block[u] == block[v]))
    return tuple(plan)


_Open = tuple[tuple[int, tuple[int, ...]], ...]


def _least_string(kinds: Sequence[int], classes: int):
    """least(0, (), parts, ground) is the flat of the orbit with block types
    ``ground`` (the block of 0) and ``parts`` that the full walk meets
    first, as its string s: s[x] is -1 when x is the largest coordinate of
    a block without 0, that largest coordinate when x is smaller, and n
    when x is in the block of 0.

    A level of the full walk is ordered by the reduced row echelon forms of
    the spans.  There a block without 0 has the rows e_x - e_m for its
    largest coordinate m and its other x, and the block of 0 the rows e_x;
    so the rows compare as the strings do, a coordinate without a row
    first.  The least string is built coordinate by coordinate, each time
    the least s[x] after which the blocks opened so far can still be
    completed, which is checked class by class, earliest deadline first.
    Only blocks of two types that both close at the same m tie.  A state is
    the next coordinate x, the opened blocks (m, the counts they still
    need), the types not opened and the counts the block of 0 still needs."""
    n = len(kinds)
    units = [tuple(int(i == c) for i in range(classes)) for c in range(classes)]
    memo: dict[tuple, tuple[int, ...]] = {}

    def completable(x: int, opened: _Open) -> bool:
        # each opened block needs its other members in x .. m - 1
        reserved = {m for m, _ in opened}
        free = [0] * classes
        need = [0] * classes
        y = x
        for m, needs in opened:
            for y in range(y, m):
                if y not in reserved:
                    free[kinds[y]] += 1
            y = m
            for c, k in enumerate(needs):
                need[c] += k - (kinds[m] == c)
                if need[c] > free[c]:
                    return False
        return True

    def placements(x: int, opened: _Open, pool: tuple, left: tuple[int, ...]):
        # per symbol s[x], ascending: the states after placing x
        c = kinds[x]
        one = units[c]
        if one in pool:
            yield -1, [(opened, _without(pool, one), left)]
        closing = {m: i for i, (m, _) in enumerate(opened)}
        types = [(t, tuple(k - d for k, d in zip(t, one))) for t in dict.fromkeys(pool) if t[c]]
        for m in range(x + 1, n):
            if m in closing:
                i = closing[m]
                needs = opened[i][1]
                if needs[c] > (kinds[m] == c):
                    moved = (m, tuple(k - d for k, d in zip(needs, one)))
                    yield m, [(opened[:i] + (moved,) + opened[i + 1:], pool, left)]
            else:
                yield m, [(tuple(sorted(opened + ((m, rest),))), _without(pool, t), left)
                          for t, rest in types if rest[kinds[m]]]
        if left[c]:
            yield n, [(opened, pool, tuple(k - d for k, d in zip(left, one)))]

    def least(x: int, opened: _Open, pool: tuple, left: tuple[int, ...]) -> tuple[int, ...]:
        if x == n:
            return ()
        state = (x, opened, pool, left)
        if state not in memo:
            if opened and opened[0][0] == x:  # x closes the block reserved for it
                memo[state] = (-1,) + least(x + 1, opened[1:], pool, left)
            else:
                for symbol, options in placements(*state):
                    tails = [least(x + 1, *o) for o in options if completable(x + 1, o[0])]
                    if tails:
                        memo[state] = (symbol,) + min(tails)
                        break
        return memo[state]

    return least


def _without(pool: tuple, t: tuple[int, ...]) -> tuple:
    i = pool.index(t)
    return pool[:i] + pool[i + 1:]


def enumerate_kn(
    ws: WeightSystem,
    chi: TorusCharacter,
    group: GroupData,
    orientation: str = "negative",
    cap: int = DEFAULT_VERTEX_CAP,
) -> KNResult:
    """Enumerate the KN one-parameter subgroups for the character chi.

    The strata of the ray of chi are kept on the shape's record
    (``Shape.strata``): for chi = lam * ray with lam > 0, each direction is
    lam times the ray's and each q-norm lam^2 times, and the indices are
    read in this call's weight order."""
    if orientation not in ORIENTATIONS:
        raise InvalidParameter(f"unknown orientation {orientation!r}")
    _check_sizes(ws, chi, group, cap)
    d, (ints,) = clear_denominators([chi.vec])
    g = gcd(*ints) or d  # chi = 0 is its own ray
    ray = tuple(a // g for a in ints)
    lam = None if g == d else Fraction(g, d)
    shape = shape_of(ws, group)
    strata, semistable = shape.strata(ray, orientation)
    # per stratify weight its table index (None for a zero weight), and
    # per table index its first stratify weight
    position = {w: t for t, w in enumerate(shape.table.int_weights)}
    index = [position.get(w) for w in ws.int_stratify_weights]
    first: dict[int | None, int] = {}
    for i, t in enumerate(index):
        first.setdefault(t, i)
    found = []
    for s in strata:
        plus, zero_idx, minus = [], [], []
        pairings = s.pairings
        for i, t in enumerate(index):
            p = 0 if t is None else pairings[t]
            (plus if p > 0 else zero_idx if p == 0 else minus).append(i)
        found.append(KNStratum(
            direction=s.direction if lam is None else vec_scale(lam, s.direction),
            beta_neg=s.beta_neg,
            beta_pos=s.beta_pos,
            beta=s.beta,
            beta_dominant=s.beta_dominant,
            q_norm=s.q_norm if lam is None else lam * lam * s.q_norm,
            defining_indices=tuple(sorted(first[t] for t in s.support)),
            v_plus=tuple(plus),
            v_zero=tuple(zero_idx),
            v_minus=tuple(minus),
        ))
    return KNResult(tuple(found), semistable, orientation)


class _RayStratum(NamedTuple):
    """A stratum of a primitive integer chi, in table terms: ``support`` is
    the table indices of the defining subset and ``pairings`` Q(W_t, beta)
    for each table index t, on the table's scale."""

    direction: Vector
    q_norm: Fraction
    beta_neg: Vector
    beta_pos: Vector
    beta: Vector
    beta_dominant: Vector
    support: tuple[int, ...]
    pairings: tuple[int, ...]


def _ray_strata(shape: Shape, ray: IntVector, orientation: str) -> tuple[tuple[_RayStratum, ...], bool]:
    """(the strata in order, whether the semistable locus is nonempty) for
    chi = ray on ``shape``; a ray not vanishing on the roots is refused."""
    group, ws = shape.key.data
    validate_torus_character(TorusCharacter(ray), group)
    form_scale, int_form = group.form.cleared
    semistable = False
    found: dict[Vector, _RayStratum] = {}
    # the integer betas seen before: their Weyl keys are in found already
    seen: set[IntVector] = set()
    # the caller checked the sizes; an integer ray clears to itself, so no
    # Fraction is built for it
    paired = shape, with_chi(shape.table, ray)
    for table, proj in span_candidates(ws, None, group, orbits=True, paired=paired):
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
        # Q(W, beta) over the integer table has the sign of q(w, beta); a
        # zero weight is not in the table and pairs to 0
        found[dominant] = _RayStratum(
            direction=proj.direction,
            # q(v, v) = Q(V, V) / (form_scale * scale^2)
            q_norm=Fraction(dot(v, [dot(row, v) for row in int_form]), form_scale * proj.scale ** 2),
            beta_neg=beta_neg,
            beta_pos=beta_pos,
            beta=beta,
            beta_dominant=dominant,
            support=cone_support(proj, table),
            pairings=tuple(dot(c, ints) for c in table.covectors),
        )
    strata = sorted(found.values(), key=lambda s: (s.q_norm, s.beta_dominant))
    return tuple(strata), semistable
