"""Numerical semigroups of shifted weight combinations.

A semigroup is stored as scaled integers: original generators equal
scale * (integer generators).  Gaps and the conductor are found by a
boolean DP that runs until min-generator-many consecutive multiples of
the content are representable; past that point everything is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InternalInconsistency, InvalidParameter
from .scalars import rat_str


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]  # positive integers, sorted, deduplicated
    scale: Fraction  # original generators = scale * generators
    content: int  # gcd of the generators; 0 for the zero semigroup {0}
    gaps: tuple[int, ...]  # non-representable elements of content*Z>=0
    conductor: int  # every multiple of content >= conductor is representable

    @property
    def is_zero(self) -> bool:
        return self.content == 0

    def member_int(self, m: int) -> bool:
        """Membership for integers in the scaled (integer) semigroup."""
        if m < 0:
            return False
        if self.is_zero:
            return m == 0
        if m % self.content != 0:
            return False
        return m >= self.conductor or m not in self._gap_set

    @property
    def _gap_set(self) -> frozenset[int]:
        return frozenset(self.gaps)

    def member(self, value: Fraction) -> bool:
        """Membership for exact rationals in scale * (integer semigroup)."""
        if self.is_zero:
            return value == 0
        r = value / self.scale
        return r.denominator == 1 and self.member_int(int(r))


def semigroup_from_generators(gens: Iterable[Fraction]) -> NumericalSemigroup:
    """Semigroup of nonnegative integer combinations of positive rationals.

    An empty generator set yields the zero semigroup {0}.
    """
    originals = sorted(set(gens))
    if any(g <= 0 for g in originals):
        raise InvalidParameter("generators must be positive")
    if not originals:
        return NumericalSemigroup((), Fraction(1), 0, (), 0)
    denom = lcm(*(g.denominator for g in originals))
    scale = Fraction(1, denom)
    ints = sorted({int(g * denom) for g in originals})
    content = 0
    for n in ints:
        content = gcd(content, n)
    gaps, conductor = _gaps_and_conductor(ints, content)
    return NumericalSemigroup(tuple(ints), scale, content, tuple(gaps), conductor)


def _gaps_and_conductor(ints: Sequence[int], content: int) -> tuple[list[int], int]:
    reduced = [n // content for n in ints]
    smallest = min(reduced)
    if smallest == 1:
        return [], 0
    bound = max(reduced) * smallest
    while True:
        table = _reach_table(reduced, bound)
        run_start = _first_full_run(table, smallest)
        if run_start is not None:
            gaps = [content * m for m in range(run_start) if not table[m]]
            conductor = content * (max(gaps) // content + 1) if gaps else 0
            return gaps, conductor
        bound *= 2  # the Frobenius number is finite; keep growing


def _reach_table(reduced: Sequence[int], bound: int) -> list[bool]:
    table = [False] * (bound + 1)
    table[0] = True
    for m in range(1, bound + 1):
        for g in reduced:
            if g <= m and table[m - g]:
                table[m] = True
                break
    return table


def _first_full_run(table: Sequence[bool], length: int) -> int | None:
    run = 0
    for m, ok in enumerate(table):
        run = run + 1 if ok else 0
        if run == length:
            return m - length + 1
    return None


def membership(semigroup: NumericalSemigroup, shift: Fraction, value: Fraction) -> bool:
    """Exact test:  value in shift + scale * (integer semigroup)."""
    return semigroup.member(value - shift)


def witness_decomposition(
    semigroup: NumericalSemigroup, shift: Fraction, value: Fraction
) -> tuple[tuple[Fraction, int], ...]:
    """Explicit counts n_i with value = shift + sum n_i * (scale*g_i).

    Only valid when membership holds; the identity is re-verified exactly.
    """
    if not membership(semigroup, shift, value):
        raise InvalidParameter("value is not a member; no witness exists")
    if semigroup.is_zero:
        return ()
    target = int((value - shift) / semigroup.scale)
    counts: dict[int, int] = {}
    g_max = semigroup.generators[-1]
    # reduce to the DP window: anything past conductor + g_max steps down safely
    while target >= semigroup.conductor + g_max:
        counts[g_max] = counts.get(g_max, 0) + 1
        target -= g_max
    table: list[int | None] = [None] * (target + 1)
    table[0] = 0
    for m in range(1, target + 1):
        for g in semigroup.generators:
            if g <= m and table[m - g] is not None:
                table[m] = g
                break
    if table[target] is None:
        raise InternalInconsistency("membership and DP disagree")
    m = target
    while m > 0:
        g = table[m]
        counts[g] = counts.get(g, 0) + 1
        m -= g
    witness = tuple(
        (semigroup.scale * g, counts[g]) for g in sorted(counts)
    )
    total = shift + sum(gv * n for gv, n in witness)
    if total != value:
        raise InternalInconsistency("witness decomposition failed to re-verify")
    return witness


@dataclass(frozen=True)
class SetDescription:
    """Closed form of a shifted scaled semigroup on a rational line.

    The set is {offset + modulus*k : k in Z>=0, k not in gaps}; every
    k >= conductor is included; modulus 0 degenerates to {offset};
    empty/full override everything (used for constant parametric strata).
    """

    offset: Fraction = Fraction(0)
    modulus: Fraction = Fraction(0)
    gaps: tuple[int, ...] = ()
    conductor: int = 0
    empty: bool = False
    full: bool = False

    def contains(self, x: Fraction) -> bool:
        if self.empty:
            return False
        if self.full:
            return True
        if self.modulus == 0:
            return x == self.offset
        k = (x - self.offset) / self.modulus
        if k.denominator != 1 or k < 0:
            return False
        k = int(k)
        return k >= self.conductor or k not in self.gaps

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
            skipped = ", ".join(
                rat_str(self.offset + self.modulus * k) for k in self.gaps
            )
            text += " minus {%s}" % skipped
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
        r = int(ratio)
        j0 = int(j0)
        # indices of self past this point land at or beyond other's conductor
        k_high = max(1, -(-(other.conductor - j0) // r))  # ceil, at least 1
        for k in range(0, k_high):
            if k in self.gaps:
                continue
            j = j0 + r * k
            if j < 0:
                return False
            if j < other.conductor and j in other.gaps:
                return False
        return True


def describe_members(
    semigroup: NumericalSemigroup, shift: Fraction, unit: Fraction = Fraction(1)
) -> SetDescription:
    """SetDescription of {shift + unit*scale*m : m in the integer semigroup}."""
    if semigroup.is_zero:
        return SetDescription(offset=shift, modulus=Fraction(0))
    step = unit * semigroup.scale * semigroup.content
    return SetDescription(
        offset=shift,
        modulus=step,
        gaps=tuple(g // semigroup.content for g in semigroup.gaps),
        conductor=semigroup.conductor // semigroup.content,
    )


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
