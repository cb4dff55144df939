from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knx.errors import CapExceeded, InvalidParameter
from knx.groups import TorusCharacter, gl, group_data, torus, weyl_canonicalize
from knx.oracle import random_problem
from knx.scalars import vec_scale, vector
from knx.strata import WeightSystem, enumerate_kn, weight_system

UP = TorusCharacter(vector(["0", "1"]))
DOWN = TorusCharacter(vector(["0", "-1"]))
TORUS2_WS = weight_system([["1", "0"], ["1", "1"]], "raw")


def test_weight_system_modes():
    ws = weight_system([["1", "0"]], "cotangent")
    assert ws.stratify_weights == (vector(["1", "0"]), vector(["-1", "0"]))
    raw = weight_system([["1", "0"]], "raw")
    assert raw.stratify_weights == (vector(["1", "0"]),)
    with pytest.raises(InvalidParameter):
        weight_system([], "raw")
    with pytest.raises(InvalidParameter):
        weight_system([["1"]], "sideways")


def test_projective_space_single_stratum():
    for n in (1, 2, 3):
        ws = weight_system([["1"]] * (n + 1), "cotangent")
        r = enumerate_kn(ws, TorusCharacter(vector(["1"])), torus(1))
        assert len(r.strata) == 1
        s = r.strata[0]
        assert s.beta == vector(["-1"])
        # the attracting set is the dual copy: indices n+1 .. 2n+1
        assert s.y_indices == tuple(range(n + 1, 2 * (n + 1)))
        assert s.v_minus == tuple(range(n + 1))
        assert r.semistable_nonempty


def test_two_weight_torus_example_up():
    r = enumerate_kn(TORUS2_WS, UP, torus(2))
    dirs = {s.beta_neg for s in r.strata}
    assert dirs == {vector(["1", "-1"]), vector(["0", "-1"])}
    assert not r.semistable_nonempty
    # ordering: ascending q of the unrescaled direction, 1/2 before 1
    assert [s.q_norm for s in r.strata] == [F(1, 2), F(1)]
    assert r.strata[0].direction == vector(["-1/2", "1/2"])


def test_two_weight_torus_example_down():
    r = enumerate_kn(TORUS2_WS, DOWN, torus(2))
    assert len(r.strata) == 1
    assert r.strata[0].direction == vector(["0", "-1"])  # the character itself
    assert not r.semistable_nonempty


def test_gl2_cherednik_strata():
    ws = weight_system(
        [["0", "0"], ["1", "-1"], ["-1", "1"], ["0", "0"], ["1", "0"], ["0", "1"]],
        "cotangent",
    )
    g = gl(2)
    r = enumerate_kn(ws, TorusCharacter(vector(["1", "1"])), g, orientation="positive")
    dominants = {s.beta_dominant for s in r.strata}
    assert dominants == {vector(["1", "0"]), vector(["1", "1"])}
    assert r.semistable_nonempty


def test_orientation_flag():
    ws = weight_system([["1"], ["1"]], "cotangent")
    chi = TorusCharacter(vector(["1"]))
    neg = enumerate_kn(ws, chi, torus(1), orientation="negative")
    pos = enumerate_kn(ws, chi, torus(1), orientation="positive")
    assert neg.strata[0].beta == vector(["-1"])
    assert pos.strata[0].beta == vector(["1"])
    both = enumerate_kn(ws, chi, torus(1), orientation="both")
    assert both.strata[0].beta == vector(["-1"])
    assert both.strata[0].beta_pos == vector(["1"])
    with pytest.raises(InvalidParameter):
        enumerate_kn(ws, chi, torus(1), orientation="sideways")


_rational = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
_positive = st.builds(F, st.integers(1, 6), st.sampled_from([1, 2, 3, 5]))


@st.composite
def _rational_torus_problems(draw):
    # rational (mostly non-integer) weights and chi, a diagonal rational form
    rank = draw(st.integers(1, 3))
    vec = st.tuples(*[_rational] * rank)
    ws = WeightSystem(tuple(draw(st.lists(vec, min_size=1, max_size=4))),
                      draw(st.sampled_from(["cotangent", "raw"])))
    diagonal = draw(st.lists(_positive, min_size=rank, max_size=rank))
    form = [[d if i == j else 0 for j in range(rank)] for i, d in enumerate(diagonal)]
    return ws, TorusCharacter(draw(vec.filter(any))), group_data(rank, [], [], form)


def _strata_summary(ws, chi, group):
    r = enumerate_kn(ws, chi, group)
    return {s.beta_dominant for s in r.strata}, r.semistable_nonempty


def _with_random_problem_examples(test):
    # the fixed cases this test ran before it was a property test: ten
    # integer problems with chi doubled
    for seed in range(10):
        p = random_problem(2, 4, seed)
        test = example((p.weights, p.chi, p.group), F(2), F(1))(test)
    return test


@settings(max_examples=80, deadline=None, database=None)
@given(_rational_torus_problems(), _positive, _positive)
@_with_random_problem_examples
def test_rescaled_character_same_strata(problem, chi_scale, weight_scale):
    # the cone, hence every stratum, is unchanged by a positive rescaling
    # of chi or of all the weights together
    ws, chi, group = problem
    expected = _strata_summary(ws, chi, group)
    scaled_chi = TorusCharacter(vec_scale(chi_scale, chi.vec))
    scaled_ws = WeightSystem(tuple(vec_scale(weight_scale, w) for w in ws.w_weights), ws.mode)
    assert _strata_summary(ws, scaled_chi, group) == expected
    assert _strata_summary(scaled_ws, chi, group) == expected


_GL2_WS = weight_system(
    [["0", "0"], ["1", "-1"], ["-1", "1"], ["0", "0"], ["1", "0"], ["0", "1"]],
    "cotangent",
)


@st.composite
def _permuted_problems(draw):
    ws, chi, group = draw(_rational_torus_problems())
    return ws, chi, group, draw(st.permutations(range(len(ws.w_weights))))


@settings(max_examples=80, deadline=None, database=None)
@given(_permuted_problems())
@example((_GL2_WS, TorusCharacter(vector(["1", "1"])), gl(2), [4, 0, 5, 2, 1, 3]))
def test_weight_permutation_invariance(problem):
    ws, chi, group, order = problem
    shuffled = WeightSystem(tuple(ws.w_weights[i] for i in order), ws.mode)
    base, r = enumerate_kn(ws, chi, group), enumerate_kn(shuffled, chi, group)
    assert {s.beta_dominant for s in r.strata} == {s.beta_dominant for s in base.strata}
    assert [s.q_norm for s in r.strata] == [s.q_norm for s in base.strata]
    assert r.semistable_nonempty == base.semistable_nonempty


def test_weyl_swap_invariance():
    # the Weyl swap applied to every weight (chi is fixed by it)
    chi = TorusCharacter(vector(["1", "1"]))
    swapped = weight_system(
        [["0", "0"], ["-1", "1"], ["1", "-1"], ["0", "0"], ["0", "1"], ["1", "0"]],
        "cotangent",
    )
    r = enumerate_kn(swapped, chi, gl(2))
    base = enumerate_kn(_GL2_WS, chi, gl(2))
    assert {s.beta_dominant for s in r.strata} == {s.beta_dominant for s in base.strata}


def test_cotangent_split_symmetry():
    for seed in range(8):
        p = random_problem(2, 4, seed + 50)
        r = enumerate_kn(p.weights, p.chi, p.group)
        d = len(p.weights.w_weights)
        for s in r.strata:
            mirrored = {(i + d) % (2 * d) for i in s.v_minus}
            assert mirrored == set(s.v_plus)
            assert set(s.v_zero) == {(i + d) % (2 * d) for i in s.v_zero}


def test_span_dedup_matches_full_subset_enumeration():
    # the span shortcut must lose nothing: brute-force every set of distinct
    # weights (origin adjoined) with the concrete-eps oracle and compare
    # directions and semistability
    from itertools import combinations

    from knx.groups import primitive_rescale
    from knx.oracle import numeric_min_norm
    from knx.scalars import vec_neg, vec_scale, vec_zero
    from vectors import is_zero_vector

    eps0 = F(-1, 2**20)
    for seed in range(30):
        p = random_problem(1 + seed % 2, 2 + seed % 3, 8800 + seed)
        distinct = sorted(set(p.weights.stratify_weights))
        lam = p.chi.vec
        zero = vec_zero(p.weights.rank)
        brute_dirs = set()
        brute_semistable = False
        for size in range(len(distinct) + 1):
            for combo in combinations(distinct, size):
                ((nums, den),) = numeric_min_norm([zero, *combo], [vec_scale(eps0, lam)], p.group.form)
                v = tuple(F(a, den) / eps0 for a in nums)
                if is_zero_vector(v):
                    brute_semistable = True
                else:
                    brute_dirs.add(primitive_rescale(vec_neg(v)))
        kn = enumerate_kn(p.weights, p.chi, p.group)
        assert {s.beta_neg for s in kn.strata} == brute_dirs, seed
        assert kn.semistable_nonempty == brute_semistable, seed


def test_span_certificates_pair_equally_on_support():
    # every flat's defining support pairs with v exactly as the projection
    # p = chi - v does, namely to 0 (the fixed-locus condition), and every
    # weight of the flat pairs nonpositively with v (checked here over a
    # golden problem, in addition to the certificate inside the solver)
    from knx.convex import cone_support
    from vectors import vec_sub
    from knx.strata import span_candidates

    ws = weight_system(
        [["0", "0"], ["1", "-1"], ["-1", "1"], ["0", "0"], ["1", "0"], ["0", "1"]],
        "cotangent",
    )
    g = gl(2)
    chi = TorusCharacter(vector(["1", "1"]))
    seen = 0
    for table, proj in span_candidates(ws, chi, g):
        v = proj.direction
        p = vec_sub(chi.vec, v)
        assert g.form.apply(p, v) == 0
        for i in proj.members:
            assert g.form.apply(table.weights[i], v) <= 0
        for i in cone_support(proj, table):
            assert i in proj.members
            assert g.form.apply(table.weights[i], v) == 0
        seen += 1
    assert seen >= 4


def test_weight_cap():
    ws = weight_system([[str(k), "1"] for k in range(30)], "raw")
    with pytest.raises(CapExceeded):
        enumerate_kn(ws, UP, torus(2))
    # a generous explicit cap allows it
    r = enumerate_kn(ws, UP, torus(2), cap=64)
    assert r.strata or r.semistable_nonempty


@pytest.mark.parametrize("orientation", ["negative", "positive"])
def test_one_weyl_canonicalization_per_new_direction(monkeypatch, golden_dir, orientation):
    # either sign's orbit determines the other's, so each distinct nonzero
    # direction of the walk enumerate_kn takes costs one canonicalization,
    # whatever the orientation: the orbit walk on the gl(3) preset, the
    # full walk on B2 x gl(1)
    import knx.strata
    from knx.engine import cherednik_preset
    from knx.problemfile import load_problem
    from vectors import is_zero_vector
    from knx.strata import span_candidates

    for p, orbits in ((cherednik_preset(3), True), (load_problem(golden_dir / "b2xgl1.json"), False)):
        walk = span_candidates(p.weights, p.chi, p.group, p.cap, orbits=orbits)
        directions = {proj.direction for _, proj in walk}
        calls = []

        def counted(v, group):
            calls.append(v)
            return weyl_canonicalize(v, group)

        monkeypatch.setattr(knx.strata, "weyl_canonicalize", counted)
        # count from a cold record: kept strata skip the walk and its keys
        knx.strata._shapes.cache_clear()
        result = enumerate_kn(p.weights, p.chi, p.group, orientation, p.cap)
        monkeypatch.undo()
        assert len(calls) == len([v for v in directions if not is_zero_vector(v)])
        assert all(s.beta in calls for s in result.strata)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 10**6), st.sampled_from([[["1/2", "1/3"], ["1/3", "2"]], [["3", "0"], ["0", "5/7"]]]))
def test_the_q_norm_is_the_forms_norm_of_the_direction(seed, form):
    # the kept strata take the q-norm from the integer certificate, on the
    # form's clearing scale; a rank-2 torus with a form that is not integral
    p = random_problem(2, 4, seed)
    group = group_data(2, [], [], form)
    chi = TorusCharacter(vec_scale(F(2, 3), p.chi.vec))
    for s in enumerate_kn(p.weights, chi, group, "both").strata:
        assert s.q_norm == group.form.norm2(s.direction)
