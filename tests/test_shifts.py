import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knx.engine import cherednik_preset
from knx.errors import SliceSubtractionFailure, UnsupportedMode
from knx.groups import gl, group_data, product, torus
from knx.oracle import random_problem
from knx.scalars import vec_neg, vec_scale, vector
from knx.semigroup import membership, semigroup_from_generators
from knx.shifts import ShiftData, compute_shift, full_space_generators
from knx.strata import WeightSystem, enumerate_kn, weight_system

GL2_WS = weight_system(
    [["0", "0"], ["1", "-1"], ["-1", "1"], ["0", "0"], ["1", "0"], ["0", "1"]],
    "cotangent",
)
GL3_WS = cherednik_preset(3).weights


def test_gl2_shift_k1():
    sd = compute_shift(vector(["1", "0"]), GL2_WS, gl(2))
    assert sd.half_abs_sum == F(3, 2)
    assert sd.n_minus_sum == F(-1)
    assert sd.shift == F(1, 2)
    assert sd.semigroup_generators == (F(1),)


def test_gl2_shift_k2():
    sd = compute_shift(vector(["1", "1"]), GL2_WS, gl(2))
    assert sd.half_abs_sum == F(1)
    assert sd.n_minus_sum == F(0)
    assert sd.shift == F(1)
    assert sd.semigroup_generators == (F(1),)


def test_projective_shift():
    for n in (1, 2, 3):
        ws = weight_system([["1"]] * (n + 1), "cotangent")
        sd = compute_shift(vector(["-1"]), ws, torus(1))
        assert sd.shift == F(n + 1, 2)
        assert sd.n_minus_sum == 0
        assert sd.semigroup_generators == (F(1),)


def test_cherednik_slice_multisets():
    # beta = e_1 + ... + e_k pairs the matrices e_i - e_j to +-1 across the
    # split and the vector e_i to 1 for i <= k; the k(n-k) negative roots
    # each take one (-1, 1) pair off the phase space
    for n in (1, 2, 3, 4):
        p = cherednik_preset(n)
        kn = enumerate_kn(p.weights, p.chi, p.group, p.orientation)
        assert sorted(sum(s.beta_dominant) for s in kn.strata) == list(range(1, n + 1))
        for s in kn.strata:
            k = int(sum(s.beta_dominant))
            ones = k * (n - k) + k
            zeros = 2 * (n * n - 2 * k * (n - k) + n - k)
            want = (F(-1),) * ones + (F(0),) * zeros + (F(1),) * ones
            for beta in (s.beta, vec_neg(s.beta)):
                sd = compute_shift(beta, p.weights, p.group)
                assert sd.slice_weights == want
                assert sd.n_minus_sum == -k * (n - k)


def test_n_minus_sum_examples():
    assert compute_shift(vector(["1", "0"]), GL2_WS, gl(2)).n_minus_sum == F(-1)
    assert compute_shift(vector(["1", "1"]), GL2_WS, gl(2)).n_minus_sum == F(0)
    torus_ws = weight_system([["1", "0"], ["2", "-1"]], "cotangent")
    assert compute_shift(vector(["5", "-2"]), torus_ws, torus(2)).n_minus_sum == F(0)


def test_n_minus_sum_is_even():
    rng = random.Random(23)
    for _ in range(50):
        v = vector([rng.randint(-4, 4) for _ in range(3)])
        neg = vector([-x for x in v])
        assert (
            compute_shift(v, GL3_WS, gl(3)).n_minus_sum
            == compute_shift(neg, GL3_WS, gl(3)).n_minus_sum
        )


def test_weight_sum_identity_holds_everywhere():
    problems = [random_problem(1 + s % 3, 1 + (s * 5) % 6, 400 + s) for s in range(100)]
    for p in problems:
        kn = enumerate_kn(p.weights, p.chi, p.group)
        for stratum in kn.strata:
            sd = compute_shift(stratum.beta, p.weights, p.group)
            lhs = 2 * sum(
                abs(p.group.form.apply(w, stratum.beta)) for w in p.weights.w_weights
            )
            rhs = sum(abs(w) for w in sd.slice_weights) - 2 * sd.n_minus_sum
            assert lhs == rhs


def test_shift_parity_under_negation():
    rng = random.Random(99)
    cases = (
        (gl(2), GL2_WS),
        (torus(2), weight_system([["1", "0"], ["2", "-1"]], "cotangent")),
        (gl(3), GL3_WS),
    )
    for _ in range(30):
        for group, ws in cases:
            beta = vector([rng.randint(-3, 3) for _ in range(group.rank)])
            if all(x == 0 for x in beta):
                continue
            neg = vector([-x for x in beta])
            a = compute_shift(beta, ws, group)
            b = compute_shift(neg, ws, group)
            assert a.shift == b.shift
            assert a.semigroup_generators == b.semigroup_generators


def test_equivalent_form_membership_agrees():
    rng = random.Random(4242)
    problems = [random_problem(1 + s % 3, 1 + s % 5, 900 + s) for s in range(12)]
    for p in problems:
        kn = enumerate_kn(p.weights, p.chi, p.group)
        for stratum in kn.strata:
            sd = compute_shift(stratum.beta, p.weights, p.group)
            sg = semigroup_from_generators(sd.semigroup_generators)
            quarter_slice = sum(abs(w) for w in sd.slice_weights) / 4
            for _ in range(100):
                c = F(rng.randint(-60, 60), rng.randint(1, 4))
                primary = membership(sg, sd.shift, c)
                equivalent = membership(sg, quarter_slice, c - sd.n_minus_sum / 2)
                assert primary == equivalent


def test_raw_mode_torus_shift_uses_doubled_phase():
    ws = weight_system([["1", "0"], ["1", "1"]], "raw")
    sd = compute_shift(vector(["0", "-1"]), ws, torus(2))
    assert sd.half_abs_sum == F(1, 2)
    assert sd.shift == F(1, 2)
    assert sorted(sd.slice_weights) == [F(-1), F(0), F(0), F(1)]


def test_raw_mode_requires_torus():
    ws = weight_system([["1", "0"]], "raw")
    with pytest.raises(UnsupportedMode):
        compute_shift(vector(["1", "0"]), ws, gl(2))


def test_slice_subtraction_failure():
    # gl(2) acting with only zero weights: the phase space has no +-1
    # pairings to absorb the nilpotent directions
    ws = weight_system([["0", "0"]], "cotangent")
    with pytest.raises(SliceSubtractionFailure):
        compute_shift(vector(["1", "0"]), ws, gl(2))


def test_full_space_generators_superset():
    for s in range(10):
        p = random_problem(2, 4, 777 + s)
        kn = enumerate_kn(p.weights, p.chi, p.group)
        for stratum in kn.strata:
            sd = compute_shift(stratum.beta, p.weights, p.group)
            full = full_space_generators(stratum.beta, p.weights, p.group)
            assert set(sd.semigroup_generators) <= set(full)
            # torus: the two strictness variants coincide
            assert set(sd.semigroup_generators) == set(full)


# -- the integer shift against its Fraction reference ------------------------


def _ref_compute_shift(beta, ws, group):
    """compute_shift as it was before it moved to integers: every pairing a
    Fraction, the magnitudes counted and sorted as Fractions."""
    if ws.mode == "raw" and not group.is_torus:
        raise UnsupportedMode("raw mode shifts are only defined for torus actions")
    q = group.form
    base_pairings = [q.apply(w, beta) for w in ws.w_weights]
    half_abs = sum(abs(p) for p in base_pairings) / 2
    negative = [g for g in (q.apply(r, beta) for r in group.roots) if g < 0]
    n_minus = sum(negative, F(0))
    magnitudes = Counter(abs(p) for p in base_pairings)
    for g in negative:
        if magnitudes[-g] <= 0:
            raise SliceSubtractionFailure(f"phase-space weights lack the nilpotent pairing {g}")
        magnitudes[-g] -= 1
    slice_weights = tuple(sorted(w for m, k in magnitudes.items() for w in (-m, m) for _ in range(k)))
    assert 4 * half_abs == sum(abs(w) for w in slice_weights) - 2 * n_minus
    generators = tuple(sorted(m for m, k in magnitudes.items() if m and k))
    return ShiftData(beta, half_abs, n_minus, n_minus + half_abs, slice_weights, generators)


def _ref_full_space_generators(beta, ws, group):
    return tuple(sorted({abs(group.form.apply(w, beta)) for w in ws.w_weights} - {0}))


_B2_ROOTS = [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"],
             ["1", "1"], ["-1", "-1"], ["1", "-1"], ["-1", "1"]]
# B2 under the invariant form diag(2, 2)
_B2_DIAG = group_data(2, _B2_ROOTS, [["1", "-1"], ["0", "1"]], [["2", "0"], ["0", "2"]], "B2")
_GROUPS = (torus(2), gl(2), gl(3), _B2_DIAG, product([gl(2), torus(1)]), product([gl(2), _B2_DIAG]))
_fractions = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def _shift_cases(draw):
    # some of the group's roots, so that the nilpotent pairings are mostly
    # present, and random weights a/L; beta an integer vector rescaled by a
    # nonzero fraction, or negated
    group = draw(st.sampled_from(_GROUPS))
    n = group.rank
    roots = draw(st.lists(st.sampled_from(group.roots), max_size=len(group.roots))) if group.roots else []
    vectors = st.lists(_fractions, min_size=n, max_size=n).map(tuple)
    others = draw(st.lists(vectors, max_size=4))
    weights = tuple(roots) + tuple(others) or ((F(0),) * n,)
    beta = draw(vectors.filter(any))
    beta = vec_scale(draw(_fractions.filter(bool)), beta)
    mode = "raw" if not group.roots and draw(st.booleans()) else "cotangent"
    return beta, WeightSystem(weights, mode), group


@settings(max_examples=300, deadline=None, database=None)
@given(_shift_cases())
@example((vector(["1", "0"]), GL2_WS, gl(2)))
@example((vector(["3/2", "3/2", "0"]), GL3_WS, gl(3)))
@example((vector(["-1", "0"]), weight_system([["1/3", "0"], ["0", "1/3"]]), gl(2)))
def test_integer_shift_matches_the_fraction_reference(case):
    beta, ws, group = case
    try:
        expected = _ref_compute_shift(beta, ws, group)
    except SliceSubtractionFailure as exc:
        with pytest.raises(SliceSubtractionFailure) as got:
            compute_shift(beta, ws, group)
        assert str(got.value) == str(exc)
    else:
        got = compute_shift(beta, ws, group)
        assert got == expected
        assert all(type(x) is F for x in (got.half_abs_sum, got.n_minus_sum, got.shift,
                                          *got.slice_weights, *got.semigroup_generators))
    assert full_space_generators(beta, ws, group) == _ref_full_space_generators(beta, ws, group)
