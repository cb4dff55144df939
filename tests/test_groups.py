import random
import re
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knx.errors import InvalidParameter, ZeroVector
from knx.groups import (
    LieCharacter,
    TorusCharacter,
    gl,
    group_data,
    primitive_rescale,
    product,
    sl,
    torus,
    validate_lie_character,
    validate_torus_character,
    validate_weyl_stable,
    weyl_canonicalize,
)
from knx.linalg import clear_denominators
from knx.problemfile import load_problem
from knx.scalars import vec_scale, vector
from vectors import vec_sub

# B2: simple roots e1 - e2 (long) and e2 (short), the reflection in e2
# negates the second coordinate
B2 = group_data(2, [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["1", "1"], ["-1", "-1"],
                    ["1", "-1"], ["-1", "1"]], [["1", "-1"], ["0", "1"]])
# A1 as the root e1 under the form diag(2, 1): s(x, y) = (-x, y)
A1_DIAG = group_data(2, [["1", "0"], ["-1", "0"]], [["1", "0"]], [["2", "0"], ["0", "1"]])


def reference_canonicalize(v, group):
    """Reflect over Fractions in the first simple root pairing negatively
    with v until none does."""
    q = group.form
    while True:
        for s in group.simple_roots:
            if q.apply(v, s) < 0:
                v = vec_sub(v, vec_scale(2 * q.apply(v, s) / q.apply(s, s), s))
                break
        else:
            return v


def test_gl2_preset():
    g = gl(2)
    assert g.rank == 2
    assert set(g.roots) == {vector(["1", "-1"]), vector(["-1", "1"])}
    assert g.simple_roots == (vector(["1", "-1"]),)
    assert not g.is_torus


def test_torus_preset():
    g = torus(2)
    assert g.rank == 2 and g.roots == () and g.is_torus


def test_product_preset():
    g = product([gl(1), torus(1)])
    assert g.rank == 2 and g.roots == ()
    g2 = product([gl(2), torus(1)])
    assert g2.rank == 3
    assert vector(["1", "-1", "0"]) in g2.roots


def test_presets_and_products_are_built_once_per_value():
    assert torus(3) is torus(3)
    b2_again = group_data(2, [list(map(str, r)) for r in B2.roots],
                          [list(map(str, r)) for r in B2.simple_roots])
    assert b2_again is not B2 and b2_again.key == B2.key
    # equal factors, even groups built apart, give the one product
    assert product([gl(2), B2, torus(1)]) is product([gl(2), b2_again, torus(1)])
    # another order of the factors is another group
    assert product([torus(1), gl(2)]) is not product([gl(2), torus(1)])
    assert product([torus(1), gl(2)]).roots != product([gl(2), torus(1)]).roots
    # a factor that differs in its form alone is another factor
    assert product([A1_DIAG]) is not product([group_data(2, [["1", "0"], ["-1", "0"]], [["1", "0"]])])


def test_preset_rejects_bad_sizes():
    with pytest.raises(InvalidParameter):
        gl(0)
    with pytest.raises(InvalidParameter):
        torus(0)
    with pytest.raises(InvalidParameter):
        product([])


def test_weyl_canonicalize_examples():
    assert weyl_canonicalize(vector(["0", "1"]), gl(2)) == vector(["1", "0"])
    assert weyl_canonicalize(vector(["1", "1"]), gl(2)) == vector(["1", "1"])
    assert weyl_canonicalize(vector(["2", "-1"]), torus(2)) == vector(["2", "-1"])


def test_weyl_canonicalize_is_orbit_constant_and_idempotent():
    rng = random.Random(17)
    for n in (2, 3, 4):
        g = gl(n)
        for _ in range(25):
            v = vector([rng.randint(-5, 5) for _ in range(n)])
            dom = weyl_canonicalize(v, g)
            assert dom == tuple(sorted(v, reverse=True))
            assert weyl_canonicalize(dom, g) == dom
            # brute-force check over the whole orbit
            for perm in permutations(range(n)):
                image = tuple(v[i] for i in perm)
                assert weyl_canonicalize(image, g) == dom


_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _groups_and_vectors(draw):
    group = draw(st.sampled_from([gl(3), B2, A1_DIAG, product([gl(2), B2])]))
    return group, tuple(draw(st.lists(_fractions, min_size=group.rank, max_size=group.rank)))


@settings(max_examples=200, deadline=None, database=None)
@given(_groups_and_vectors())
def test_integer_canonicalization_matches_the_fraction_reflections(case):
    group, v = case
    dom = weyl_canonicalize(v, group)
    assert dom == reference_canonicalize(v, group)
    assert weyl_canonicalize(dom, group) == dom
    assert all(group.form.apply(dom, s) >= 0 for s in group.simple_roots)


def test_primitive_rescale_examples():
    assert primitive_rescale(vector(["-1/2", "1/2"])) == vector(["-1", "1"])
    assert primitive_rescale(vector(["2", "4"])) == vector(["1", "2"])
    assert primitive_rescale(vector(["0", "-3"])) == vector(["0", "-1"])
    with pytest.raises(ZeroVector):
        primitive_rescale(vector(["0", "0"]))


def test_lie_character_validation():
    with pytest.raises(InvalidParameter):
        validate_lie_character(LieCharacter(vector(["1", "0"])), gl(2))
    validate_lie_character(LieCharacter(vector(["1", "1"])), gl(2))
    validate_lie_character(LieCharacter(vector(["1", "1"]), vector(["2", "2"])), gl(2))
    with pytest.raises(InvalidParameter):
        validate_lie_character(LieCharacter(vector(["1", "1"]), vector(["1", "0"])), gl(2))
    # a torus has no roots, everything passes
    validate_lie_character(LieCharacter(vector(["7", "-3"])), torus(2))


def test_sl_preset_keeps_gl_lattice():
    g = sl(3)
    assert g.rank == 3
    assert g.label == "sl(3)"
    assert set(g.roots) == set(gl(3).roots)


def dense_int_roots(group):
    """The nonzero entries of every dense root, each entry tested, over the
    least common denominator."""
    den, ints = clear_denominators(group.roots)
    return den, tuple(tuple((i, x) for i, x in enumerate(r) if x) for r in ints)


def test_int_roots_equal_the_dense_scan(golden_dir):
    custom = load_problem(golden_dir / "b2xgl1.json").group
    groups = [gl(n) for n in range(1, 7)] + [sl(3), product([gl(2), B2, torus(1)]), custom]
    for g in groups:
        assert g.int_roots == dense_int_roots(g), g.label


HALF = group_data(1, [["1/2"], ["-1/2"]], [["1/2"]], label="half")
THIRD = group_data(2, [["1/3", "-1/3"], ["-1/3", "1/3"]], [["1/3", "-1/3"]], label="third")


def test_product_int_roots_are_the_factors_tables_shifted():
    # product builds its table from its factors' tables, at their offsets and
    # over the lcm of their scales; it must equal a scan of its dense roots,
    # which are the factors' dense roots padded with zeros
    groups = [product([gl(3), torus(1), sl(2)]), product([B2, HALF]),
              product([HALF, gl(2), THIRD]), product([product([THIRD, torus(2)]), HALF])]
    for g in groups:
        assert "int_roots" in vars(g), g.label
        assert g.int_roots == dense_int_roots(g), g.label
    assert groups[2].int_roots[0] == 6
    zero = vector(["0"])
    assert groups[2].roots == (
        tuple(r + zero * 4 for r in HALF.roots) + tuple(zero + r + zero * 2 for r in gl(2).roots)
        + tuple(zero * 3 + r for r in THIRD.roots)
    )


def test_root_text_of_an_invariance_error():
    # the root is rendered from the group's table, on its own scale
    with pytest.raises(InvalidParameter, match=re.escape("chi does not vanish on the root ('1/2',)")):
        validate_torus_character(TorusCharacter(vector(["1"])), HALF)
    with pytest.raises(InvalidParameter,
                       match=re.escape("chi does not vanish on the root ('0', '0', '1/2')")):
        validate_torus_character(TorusCharacter(vector(["1", "1", "1"])), product([gl(2), HALF]))
    with pytest.raises(InvalidParameter, match=re.escape(
            "character base does not vanish on the root ('0', '1/3', '-1/3')")):
        validate_lie_character(LieCharacter(vector(["0", "1", "0"])), product([HALF, THIRD]))


def test_custom_group_validation():
    # fine: the gl(2) data passed explicitly (B2 and A1_DIAG above are accepted too)
    group_data(2, [["1", "-1"], ["-1", "1"]], [["1", "-1"]])
    # roots not closed under negation
    with pytest.raises(InvalidParameter):
        group_data(2, [["1", "-1"]], [["1", "-1"]])
    # reflection does not preserve the root set
    with pytest.raises(InvalidParameter):
        group_data(2, [["1", "0"], ["-1", "0"], ["1", "-1"], ["-1", "1"]], [["1", "-1"]])
    # each root is listed once: a repeat counted twice in a shift
    with pytest.raises(InvalidParameter, match=re.escape("the root ('1', '-1') is listed more than once")):
        group_data(2, [["1", "-1"], ["-1", "1"]] * 2, [["1", "-1"]])
    # simple root must be a root
    with pytest.raises(InvalidParameter):
        group_data(2, [["1", "-1"], ["-1", "1"]], [["1", "0"]])
    # the simple roots must be a base
    a1 = [["1", "-1"], ["-1", "1"]]
    with pytest.raises(InvalidParameter, match="linearly dependent"):
        group_data(2, a1, a1)
    with pytest.raises(InvalidParameter, match="combination of the simple roots"):
        group_data(2, a1, [])
    # the simple roots e1 - e2 and e1 give e2 = e1 - (e1 - e2), of mixed signs
    with pytest.raises(InvalidParameter, match=r"root \('0', '1'\) is not"):
        group_data(2, B2.roots, [["1", "-1"], ["1", "0"]])
    # a base of a product is the union of the factors' bases
    g = product([gl(2), B2])
    group_data(4, g.roots, g.simple_roots, g.form.rows)


def is_weyl_stable(weights, group):
    try:
        validate_weyl_stable(clear_denominators([vector(w) for w in weights])[1], group)
    except InvalidParameter:
        return False
    return True


def test_weyl_stability_matches_permutation_invariance_on_gl3():
    # the Weyl group of gl(3) is S_3 permuting coordinates: the multiset is
    # stable exactly when every permutation maps it onto itself
    rng = random.Random(5)
    g = gl(3)
    for _ in range(300):
        ws = [tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:  # close it up to whole orbits, repeats kept
            ws = [tuple(w[i] for i in perm) for w in ws for perm in permutations(range(3))]
        counts = Counter(ws)
        stable = all(Counter(tuple(w[i] for i in perm) for w in ws) == counts
                     for perm in permutations(range(3)))
        assert is_weyl_stable(ws, g) == stable, ws


def test_weyl_stability_under_a_weighted_form_and_fractions():
    assert is_weyl_stable([["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]], B2)
    assert not is_weyl_stable([["1", "0"], ["0", "1"]], B2)
    g = A1_DIAG
    assert is_weyl_stable([["1/2", "1"], ["-1/2", "1"], ["0", "3"]], g)
    assert not is_weyl_stable([["1/2", "1"]], g)
    # multiplicities count
    assert not is_weyl_stable([["1", "0"], ["1", "0"], ["-1", "0"]], g)
    assert is_weyl_stable([["5", "-7"]], torus(2))
