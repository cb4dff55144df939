import random
import time
from fractions import Fraction as F
from heapq import heappop, heappush
from itertools import chain
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knx.semigroup
from knx.errors import InvalidParameter
from knx.scalars import rat_str
from knx.semigroup import (
    SetDescription,
    _apery_set,
    describe_members,
    membership,
    reduce_union,
    semigroup_from_generators,
    witness_decomposition,
)


def naive_members(gens: list[int], bound: int) -> set[int]:
    reachable = {0}
    for m in range(1, bound + 1):
        if any(m - g in reachable for g in gens if g <= m):
            reachable.add(m)
    return reachable


def test_generated_by_one():
    s = semigroup_from_generators([F(1)])
    assert s.generators == (1,)
    assert s.scale == 1 and s.content == 1
    assert s.gaps == () and s.conductor == 0


def test_two_three():
    s = semigroup_from_generators([F(2), F(3)])
    assert s.gaps == (1,) and s.conductor == 2
    assert [m for m in range(10) if membership(s, F(0), F(m))] == [0, 2, 3, 4, 5, 6, 7, 8, 9]


def test_four_six():
    s = semigroup_from_generators([F(4), F(6)])
    assert s.content == 2
    assert s.gaps == (2,) and s.conductor == 4
    assert [m for m in range(12) if membership(s, F(0), F(m))] == [0, 4, 6, 8, 10]


def test_rational_generators_scaled():
    s = semigroup_from_generators([F(1, 2), F(3, 4)])
    assert s.scale == F(1, 4)
    assert s.generators == (2, 3)
    assert membership(s, F(0), F(5, 4)) and not membership(s, F(0), F(1, 4))


def test_zero_semigroup():
    s = semigroup_from_generators([])
    assert not s.generators
    assert membership(s, F(0), F(0)) and not membership(s, F(0), F(1))
    desc = describe_members(s, F(1, 2))
    assert desc.modulus == 0 and desc.contains(F(1, 2)) and not desc.contains(F(1))


def test_negative_generators_rejected():
    with pytest.raises(InvalidParameter):
        semigroup_from_generators([F(-1)])


def test_membership_examples():
    one = semigroup_from_generators([F(1)])
    assert membership(one, F(1, 2), F(5, 2))
    assert not membership(one, F(1, 2), F(1, 3))
    s23 = semigroup_from_generators([F(2), F(3)])
    assert not membership(s23, F(0), F(1))
    assert membership(s23, F(0), F(5))


def test_membership_dp_matches_naive_enumeration():
    rng = random.Random(123)
    for trial in range(50):
        gens = sorted({rng.randint(1, 12) for _ in range(rng.randint(1, 4))})
        s = semigroup_from_generators([F(g) for g in gens])
        table = naive_members(gens, 200)
        for m in range(201):
            assert membership(s, F(0), F(m)) == (m in table), (gens, m)


def test_description_sound_on_window():
    rng = random.Random(321)
    for trial in range(30):
        gens = sorted({rng.randint(2, 15) for _ in range(rng.randint(1, 3))})
        s = semigroup_from_generators([F(g) for g in gens])
        desc = describe_members(s, F(0))
        hi = s.conductor + 3 * max(s.content, 1)
        table = naive_members(gens, hi)
        for m in range(hi + 1):
            assert desc.contains(F(m)) == (m in table), (gens, m)


def test_witness_decomposition_reverifies():
    rng = random.Random(777)
    for _ in range(40):
        gens = sorted({rng.randint(1, 9) for _ in range(rng.randint(1, 3))})
        s = semigroup_from_generators([F(g, 2) for g in gens])
        shift = F(rng.randint(-3, 3), 2)
        for _ in range(10):
            value = shift + F(rng.randint(0, 40), 2)
            if membership(s, shift, value):
                witness = witness_decomposition(s, shift, value)
                assert shift + sum(g * n for g, n in witness) == value
    with pytest.raises(InvalidParameter):
        witness_decomposition(semigroup_from_generators([F(2)]), F(0), F(3))


def test_forbidden_set_descriptions():
    assert describe_members(semigroup_from_generators([F(1)]), F(1, 2)).render() == "1/2 + Z>=0"
    half = semigroup_from_generators([F(1, 2)])
    assert describe_members(half, F(1)).render() == "1 + (1/2)*Z>=0"
    s23 = describe_members(semigroup_from_generators([F(2), F(3)]), F(0))
    assert s23.render() == "0 + Z>=0 minus {1}"
    assert not s23.contains(F(1)) and s23.contains(F(2)) and s23.contains(F(0))


def test_describe_members_with_unit():
    s = semigroup_from_generators([F(1)])
    d = describe_members(s, F(-1, 2), F(-1, 2))
    assert d.offset == F(-1, 2) and d.modulus == F(-1, 2)
    assert d.contains(F(-1, 2)) and d.contains(F(-1)) and not d.contains(F(0))


def test_subset_and_union_reduction():
    a = describe_members(semigroup_from_generators([F(1)]), F(1, 2))  # 1/2 + Z
    b = describe_members(semigroup_from_generators([F(1, 2)]), F(1, 2))  # 1/2 + Z/2
    c = describe_members(semigroup_from_generators([F(1, 3)]), F(1, 2))  # 1/2 + Z/3
    assert a.subset_of(b)
    assert not b.subset_of(a)
    assert not b.subset_of(c) and not c.subset_of(b)
    assert reduce_union([a, b]) == (b,)
    assert set(reduce_union([a, b, c])) == {b, c}
    # gaps matter for containment
    gappy = SetDescription(offset=F(0), modulus=F(1), apery=(0, 3))  # <2, 3>
    full_line = SetDescription(offset=F(0), modulus=F(1))
    assert gappy.subset_of(full_line)
    assert not full_line.subset_of(gappy)
    # empty and full behave as absorbing elements
    assert SetDescription(empty=True).subset_of(gappy)
    assert gappy.subset_of(SetDescription(full=True))
    assert not SetDescription(full=True).subset_of(gappy)


def test_negative_offset_alignment():
    a = SetDescription(offset=F(0), modulus=F(1))
    shifted = SetDescription(offset=F(-2), modulus=F(1))
    assert a.subset_of(shifted)
    assert not shifted.subset_of(a)  # -2 and -1 are not in a


# --- properties of the Apery-set representation -------------------------

def naive_gaps_and_conductor(gens: list[int]) -> tuple[tuple[int, ...], int]:
    """Gaps of content*Z>=0 by enumeration; the table runs past the
    Frobenius number, which is below content * max(gens)**2."""
    content = gcd(*gens)
    bound = content * max(gens) ** 2
    table = naive_members(gens, bound)
    gaps = tuple(m for m in range(0, bound, content) if m not in table)
    return gaps, gaps[-1] + content if gaps else 0


def dp_witnesses(gens: tuple[int, ...], conductor: int, targets: list[int]) -> list[dict]:
    """Counts of the boolean-DP witness that the Apery walk replaced: strip
    g_max down to the window below conductor + g_max, then follow a table
    that stores the smallest generator reaching each value."""
    g_max = gens[-1]
    table: list[int | None] = [None] * (conductor + g_max)
    table[0] = 0
    for m in range(1, len(table)):
        for g in gens:
            if g <= m and table[m - g] is not None:
                table[m] = g
                break
    out = []
    for target in targets:
        counts: dict[int, int] = {}
        while target >= conductor + g_max:
            counts[g_max] = counts.get(g_max, 0) + 1
            target -= g_max
        m = target
        while m > 0:
            g = table[m]
            counts[g] = counts.get(g, 0) + 1
            m -= g
        out.append(counts)
    return out


_gens = st.lists(st.integers(1, 14), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, database=None)
@given(_gens)
# a later generator shares a factor with a1, so its residues form several cycles
@example([4, 6, 9])
@example([6, 10, 15])  # the walk of 15 must start at 10, the least of its cycle 1, 4
@example([8, 12, 18, 27])
def test_apery_membership_gaps_conductor_match_enumeration(gens):
    s = semigroup_from_generators([F(g) for g in gens])
    gaps, conductor = naive_gaps_and_conductor(gens)
    assert s.gaps == gaps and s.conductor == conductor
    table = naive_members(gens, conductor + 3 * max(gens))
    for m in range(-2, conductor + 3 * max(gens) + 1):
        assert membership(s, F(0), F(m)) == (m in table), (gens, m)


def dijkstra_apery(reduced: list[int]) -> tuple[int, ...]:
    """The shortest-path search over Z/a1 that the round robin replaced
    (Nijenhuis 1979): each other generator g is an edge r -> r + g of
    weight g, so the distance to r is the least member congruent to r."""
    a1 = reduced[0]
    apery: list[int | None] = [0] + [None] * (a1 - 1)
    heap = [0]
    while heap:
        m = heappop(heap)
        if m > apery[m % a1]:
            continue  # stale entry
        for g in reduced[1:]:
            n = m + g
            best = apery[n % a1]
            if best is None or n < best:
                apery[n % a1] = n
                heappush(heap, n)
    return tuple(apery)


@st.composite
def _reduced_generators(draw):
    """Sorted distinct generators with gcd 1 and a1 up to 300, past the
    range of naive enumeration; factors of a1 are favoured, so that later
    generators walk several residue cycles."""
    a1 = draw(st.integers(1, 300))
    factors = [d for d in range(2, a1 + 1) if a1 % d == 0] or [1]
    others = draw(st.lists(
        st.builds(lambda d, k: d * k, st.sampled_from(factors), st.integers(1, 40))
        | st.integers(a1 + 1, 3 * a1 + 40),
        max_size=4,
    ))
    gens = sorted({a1, *(g for g in others if g > a1)})
    if gcd(*gens) > 1:
        gens = sorted({*gens, draw(st.integers(a1 + 1, 4 * a1 + 1).filter(
            lambda g: gcd(g, *gens) == 1))})
    return gens


@settings(max_examples=300, deadline=None, database=None)
@given(_reduced_generators())
@example([4, 7, 10])  # 10's cycle 1, 3 starts at 7 (residue 3), not at 21 (residue 1)
@example([300, 301])
def test_apery_set_and_gaps_match_the_dijkstra_reference(reduced):
    apery = dijkstra_apery(reduced)
    assert _apery_set(reduced) == apery
    runs = (range(r, top, reduced[0]) for r, top in enumerate(apery))
    s = semigroup_from_generators([F(g) for g in reduced])
    assert s.gaps == tuple(sorted(chain.from_iterable(runs)))


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.integers(2, 14), min_size=1, max_size=4),
       st.integers(1, 3), st.integers(-6, 6), st.integers(0, 10**4))
@example([3, 4, 8], 1, 0, 0)  # at 8 both 4 and 8 leave a member; the DP takes 4
@example([5, 6, 7, 9], 1, 0, 0)  # 22 = 9 + 6 + 7: g_max, then two other non-first generators
def test_witness_equals_dp_witness(gens, den, shift_num, far):
    s = semigroup_from_generators([F(g, den) for g in gens])
    shift = F(shift_num, den)
    # every value up to two steps of g_max past the conductor, and one far out
    targets = [*range(s.conductor + 2 * s.generators[-1]), s.conductor + far]
    members = [m for m in targets if membership(s, shift, shift + s.scale * m)]
    for m, counts in zip(members, dp_witnesses(s.generators, s.conductor, members)):
        expected = tuple((s.scale * g, counts[g]) for g in sorted(counts))
        assert witness_decomposition(s, shift, shift + s.scale * m) == expected
    gap = next((m for m in targets if not membership(s, shift, shift + s.scale * m)), None)
    if gap is not None:
        with pytest.raises(InvalidParameter):
            witness_decomposition(s, shift, shift + s.scale * gap)


def brute_set(gens: list[int], shift: F, unit: F, window: int) -> tuple[list[F], object]:
    """The points shift + unit*m for the members m < window of the integer
    semigroup, and a membership test for the whole set."""
    if not gens:
        return [shift], lambda x: x == shift
    bound = max(window, max(gens) ** 2)  # past the Frobenius number
    table = naive_members(gens, bound)
    content = gcd(*gens)

    def contains(x: F) -> bool:
        m = (x - shift) / unit
        if m.denominator != 1 or m < 0:
            return False
        return m in table if m <= bound else m % content == 0

    return [shift + unit * m for m in sorted(table) if m < window], contains


_units = st.sampled_from([F(1), F(2), F(3), F(1, 2), F(1, 3), F(2, 3), F(3, 2)])
_sides = st.tuples(
    st.lists(st.integers(1, 9), max_size=3),  # generators; [] is {0}
    st.integers(-8, 8),  # offset, in steps of 1/2
    _units,
    st.booleans(),  # negative direction
)


@settings(max_examples=300, deadline=None, database=None)
@given(_sides, _sides, st.sampled_from(["free", "lattice", "nested"]))
@example(([1], 1, F(1), False), ([2, 3], 0, F(1), False), "nested")  # offset on a gap
@example(([2, 3], 6, F(1), False), ([3, 4], 0, F(1), False), "nested")  # b1 // gcd(r*a1, b1) = 3
def test_subset_of_matches_brute_force(mine, theirs, placement):
    gens_o, offset_o, unit_o, negative_o = theirs
    shift_o, unit_o = F(offset_o, 2), -unit_o if negative_o else unit_o
    other = describe_members(semigroup_from_generators([F(g) for g in gens_o]), shift_o, unit_o)
    gens_d, offset_d, unit_d, negative_d = mine
    shift_d = F(offset_d, 2)
    if placement != "free" and other.modulus != 0:
        shift_d = other.offset + offset_d * other.modulus  # on other's lattice
        if placement == "nested" and gens_d:
            # d's step is a whole multiple of other's step
            unit_d = other.modulus * unit_d.numerator / gcd(*gens_d)
    unit_d = -unit_d if negative_d else unit_d
    d = describe_members(semigroup_from_generators([F(g) for g in gens_d]), shift_d, unit_d)
    # A point of d that other misses has index k below both conductors
    # (each < 9**2) plus other's index of d's offset plus the denominator
    # of the step ratio; indices count d's steps of content * unit.
    offset_steps = abs(shift_d - shift_o) / abs(unit_o)
    window = max(gens_d, default=1) * (200 + int(offset_steps))
    points, _ = brute_set(gens_d, shift_d, unit_d, window)
    _, other_contains = brute_set(gens_o, shift_o, unit_o, window)
    assert d.subset_of(other) == all(other_contains(x) for x in points)


def test_witness_far_past_the_conductor_is_fast():
    shift = F(-7, 2)
    for gens in ([F(1999, 2000), F(1)],  # conductor ~ 4e6
                 [F(1, 10**9), F(1)]):  # 10**9 steps of the smallest generator
        s = semigroup_from_generators(gens)
        value = shift + 10**12 + F(1, 2000)
        start = time.perf_counter()
        witness = witness_decomposition(s, shift, value)
        assert time.perf_counter() - start < 1.0
        assert shift + sum(g * n for g, n in witness) == value


def test_witness_takes_each_generator_by_bisection(monkeypatch):
    s = semigroup_from_generators([F(5000), F(5001)])
    shift, m = F(1, 2), 4999 * 5001  # the Apery element of residue 4999 mod 5000
    member, calls = knx.semigroup._member, 0

    def counted(apery, k):
        nonlocal calls
        calls += 1
        return member(apery, k)

    monkeypatch.setattr(knx.semigroup, "_member", counted)
    assert witness_decomposition(s, shift, shift + m) == ((F(5001), 4999),)
    assert calls <= 4 * len(s.generators) * m.bit_length()


def fraction_rendered_gaps(d: SetDescription) -> str:
    """The gap points as render wrote them with Fraction arithmetic per gap."""
    return ", ".join(rat_str(d.offset + d.modulus * k) for k in d.gaps)


_rationals = st.fractions(max_denominator=12) | st.fractions(-(10**20), 10**20)


# generators >= 2 with gcd 1: a1 >= 2, so 1 is always a gap
_gappy_generators = st.lists(st.integers(2, 60), min_size=2, max_size=3).filter(
    lambda gens: gcd(*gens) == 1
)


@settings(max_examples=300, deadline=None, database=None)
@given(_rationals, _rationals.filter(bool), _gappy_generators)
@example(F(-7, 4), F(-1, 6), [3, 5])  # negative modulus, mixed denominators
@example(F(1, 2), F(-1, 2), [2, 3])  # a gap point at 0
def test_render_matches_fraction_arithmetic(offset, modulus, gens):
    apery = semigroup_from_generators([F(g) for g in gens]).apery
    d = SetDescription(offset=offset, modulus=modulus, apery=apery)
    ray = SetDescription(offset=offset, modulus=modulus).render()
    assert d.render() == ray + " minus {%s}" % fraction_rendered_gaps(d)
