import random
from fractions import Fraction as F

import pytest

from knx.errors import InvalidParameter
from knx.semigroup import (
    SetDescription,
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
    assert [m for m in range(10) if s.member_int(m)] == [0, 2, 3, 4, 5, 6, 7, 8, 9]


def test_four_six():
    s = semigroup_from_generators([F(4), F(6)])
    assert s.content == 2
    assert s.gaps == (2,) and s.conductor == 4
    assert [m for m in range(12) if s.member_int(m)] == [0, 4, 6, 8, 10]


def test_rational_generators_scaled():
    s = semigroup_from_generators([F(1, 2), F(3, 4)])
    assert s.scale == F(1, 4)
    assert s.generators == (2, 3)
    assert s.member(F(5, 4)) and not s.member(F(1, 4))


def test_zero_semigroup():
    s = semigroup_from_generators([])
    assert s.is_zero
    assert s.member(F(0)) and not s.member(F(1))
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
            assert s.member_int(m) == (m in table), (gens, m)


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
    gappy = SetDescription(offset=F(0), modulus=F(1), gaps=(1,), conductor=2)
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
