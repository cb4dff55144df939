"""Numerical semigroups of shifted weight combinations.

A semigroup is stored as scaled integers: original generators equal
scale * (integer generators).  Dividing by the content (their gcd) gives
reduced generators with smallest element a1, and the semigroup is kept as
its Apery set with respect to a1: apery[r] is the least reduced member
congruent to r mod a1, found by one round-robin walk per generator over
the residue cycles it generates (Boecker & Liptak, "A fast and simple
algorithm for the money changing problem", Algorithmica 48, 2007).  A
reduced m is a member exactly when m >= apery[m % a1], so membership is
O(1); the conductor and the gaps follow from the Apery set, and the gaps
are only listed when a report reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, zip_longest
from math import gcd, inf
from typing import Iterable, Sequence

from .errors import InternalInconsistency, InvalidParameter
from .linalg import clear_denominators
from .scalars import rat_str


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]  # positive integers, sorted, deduplicated
    scale: Fraction  # original generators = scale * generators
    content: int  # gcd of the generators; 0 for the zero semigroup {0}
    apery: tuple[int, ...]  # least reduced member per residue mod a1; () for {0}
    conductor: int  # every multiple of content >= conductor is representable

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        """Non-representable elements of content*Z>=0, ascending."""
        if self.content == 1:
            return _gaps(self.apery)
        return tuple([self.content * m for m in _gaps(self.apery)])


def semigroup_from_generators(gens: Iterable[Fraction]) -> NumericalSemigroup:
    """Semigroup of nonnegative integer combinations of positive rationals.

    An empty generator set yields the zero semigroup {0}.
    """
    originals = sorted(set(gens))
    if any(g <= 0 for g in originals):
        raise InvalidParameter("generators must be positive")
    if not originals:
        return NumericalSemigroup((), Fraction(1), 0, (), 0)
    # originals are sorted and distinct, so ints are too
    denom, (ints,) = clear_denominators([originals])
    content = gcd(*ints)
    apery = _apery_set([n // content for n in ints])
    # the Frobenius number is max(apery) - a1; it is -1 when a1 = 1
    conductor = content * (max(apery) - len(apery) + 1)
    return NumericalSemigroup(ints, Fraction(1, denom), content, apery, conductor)


def _apery_set(reduced: Sequence[int]) -> tuple[int, ...]:
    """Round robin over Z/a1: adding generator g splits the residues into
    gcd(a1, g) cycles of +g, and one walk around each cycle, started at
    its least known entry, gives every residue min(own entry, previous + g)."""
    a1 = reduced[0]
    apery = [0] + [inf] * (a1 - 1)
    for g in reduced[1:]:
        d = gcd(a1, g)
        for p in range(d):
            cur = min(apery[p::d])
            if cur == inf:
                continue  # no member reaches this cycle yet
            for _ in range(a1 // d - 1):
                cur += g
                r = cur % a1
                if apery[r] < cur:
                    cur = apery[r]
                apery[r] = cur
    return tuple(apery)  # gcd 1 reaches every residue


def _member(apery: Sequence[int], k: int) -> bool:
    """Whether the integer k lies in the reduced semigroup with this Apery
    set; a negative k never does, since every entry is >= 0."""
    return k >= apery[k % len(apery)]


def _gaps(apery: Sequence[int]) -> tuple[int, ...]:
    """Gaps of the reduced semigroup: r + j*a1 below apery[r], ascending,
    read row by row with no sort (None pads spent runs; 0 is no gap)."""
    a1 = len(apery)
    runs = [range(r, top, a1) for r, top in enumerate(apery)]
    return tuple(filter(None, chain.from_iterable(zip_longest(*runs))))


def membership(semigroup: NumericalSemigroup, shift: Fraction, value: Fraction) -> bool:
    """Exact test:  value in shift + scale * (integer semigroup)."""
    if not semigroup.generators:
        return value == shift
    r = (value - shift) / semigroup.scale
    q, rem = divmod(r.numerator, semigroup.content)
    return r.denominator == 1 and rem == 0 and _member(semigroup.apery, q)


def witness_decomposition(
    semigroup: NumericalSemigroup, shift: Fraction, value: Fraction
) -> tuple[tuple[Fraction, int], ...]:
    """Explicit counts n_i with value = shift + sum n_i * (scale*g_i).

    Only valid when membership holds; the identity is re-verified exactly.
    The counts are canonical: the largest generator is taken until the
    rest drops below conductor + g_max, then each step down takes the
    smallest generator that leaves a member.  After one run of g1, which
    keeps the residue mod a1, the rest m is an Apery element, and so is
    every member m - g: g1 never recurs, nor does a smaller generator
    after a larger one (S + g lies in S).  So each other generator g is
    taken once, c times, where the members m - j*g are exactly j = 0..c,
    and bisection finds c: O(k log m) membership tests for k generators.
    """
    if not membership(semigroup, shift, value):
        raise InvalidParameter("value is not a member; no witness exists")
    if not semigroup.generators:
        return ()
    gens = semigroup.generators
    g1, g_max = gens[0], gens[-1]
    a1, content, apery = len(semigroup.apery), semigroup.content, semigroup.apery
    m = int((value - shift) / semigroup.scale)
    top = max(0, (m - semigroup.conductor) // g_max)
    counts = dict.fromkeys(gens, 0) | {g_max: top}
    q = (m - top * g_max) // content  # reduced, as are the steps below
    counts[g1] += (q - apery[q % a1]) // a1
    q = apery[q % a1]
    for g in gens[1:]:
        h = g // content
        lo, hi = 0, q // h
        while lo < hi:  # the largest j in [lo, hi] with q - j*h a member
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if _member(apery, q - mid * h) else (lo, mid - 1)
        counts[g] += lo
        q -= lo * h
    witness = tuple(
        (semigroup.scale * g, counts[g]) for g in gens if counts[g]
    )
    total = shift + sum(gv * n for gv, n in witness)
    if total != value:
        raise InternalInconsistency("witness decomposition failed to re-verify")
    return witness


@dataclass(frozen=True)
class SetDescription:
    """Closed form of a shifted scaled semigroup on a rational line.

    The set is {offset + modulus*k : k in S}, where S is the reduced
    semigroup with Apery set ``apery`` (the default (0,) is Z>=0); modulus
    0 degenerates to {offset}; empty/full override everything (used for
    constant parametric strata).  The gaps of S are listed only when read.
    """

    offset: Fraction = Fraction(0)
    modulus: Fraction = Fraction(0)
    apery: tuple[int, ...] = (0,)
    empty: bool = False
    full: bool = False

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        return _gaps(self.apery)

    @property
    def conductor(self) -> int:
        """Every k >= conductor is in S (the Frobenius number is max(apery) - a1)."""
        return max(self.apery) - len(self.apery) + 1

    def contains(self, x: Fraction) -> bool:
        if self.empty:
            return False
        if self.full:
            return True
        if self.modulus == 0:
            return x == self.offset
        k = (x - self.offset) / self.modulus
        return k.denominator == 1 and _member(self.apery, int(k))

    def render(self) -> str:
        if self.empty:
            return "(empty)"
        if self.full:
            return "(all values)"
        if self.modulus == 0:
            return "{%s}" % rat_str(self.offset)
        step = rat_str(abs(self.modulus))
        ray = "Z>=0" if step == "1" else f"({step})*Z>=0"
        sign = "+" if self.modulus > 0 else "-"
        base = rat_str(self.offset)
        text = f"{base} {sign} {ray}"
        if self.gaps:
            # offset + modulus*k = (a + b*k)/den, reduced by one gcd per point
            den, ((a, b),) = clear_denominators([(self.offset, self.modulus)])
            points = []
            for k in self.gaps:
                num = a + b * k
                g = gcd(num, den)
                points.append(str(num // g) if g == den else f"{num // g}/{den // g}")
            text += " minus {%s}" % ", ".join(points)
        return text

    def subset_of(self, other: "SetDescription") -> bool:
        """Exact containment test between two descriptions."""
        if self.empty or other.full:
            return True
        if other.empty or self.full:
            return False
        if self.modulus == 0:
            return other.contains(self.offset)
        if other.modulus == 0:
            return False  # self is infinite
        ratio = self.modulus / other.modulus
        if ratio <= 0 or ratio.denominator != 1:
            return False
        j0 = (self.offset - other.offset) / other.modulus
        if j0.denominator != 1:
            return False
        r, j0 = int(ratio), int(j0)
        # self's point k is other's point j0 + r*k, and k runs over a + a1*t
        # for the Apery elements a of self; adding b1 keeps j in other's
        # set, so per a the first term of each residue class mod b1 decides
        step, b1 = r * len(self.apery), len(other.apery)
        return all(
            _member(other.apery, j0 + r * a + step * t)
            for a in self.apery
            for t in range(b1 // gcd(step, b1))
        )


def describe_members(
    semigroup: NumericalSemigroup, shift: Fraction, unit: Fraction = Fraction(1)
) -> SetDescription:
    """SetDescription of {shift + unit*scale*m : m in the integer semigroup}."""
    if not semigroup.generators:
        return SetDescription(offset=shift, modulus=Fraction(0))
    step = unit * semigroup.scale * semigroup.content
    return SetDescription(offset=shift, modulus=step, apery=semigroup.apery)


def reduce_union(descriptions: Sequence[SetDescription]) -> tuple[SetDescription, ...]:
    """Drop descriptions contained in another one; first of equal sets wins."""
    kept: list[SetDescription] = []
    for i, d in enumerate(descriptions):
        absorbed = False
        for j, other in enumerate(descriptions):
            if i == j or not d.subset_of(other):
                continue
            if other.subset_of(d):
                if j < i:  # same set, keep the earlier one
                    absorbed = True
                    break
            else:
                absorbed = True
                break
        if not absorbed:
            kept.append(d)
    return tuple(kept)
