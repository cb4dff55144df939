import random
from fractions import Fraction as F

import pytest

from knx.errors import SliceSubtractionFailure, UnsupportedMode
from knx.groups import gl, torus
from knx.oracle import random_problem
from knx.scalars import vector
from knx.semigroup import membership, semigroup_from_generators
from knx.shifts import compute_shift, full_space_generators
from knx.strata import enumerate_kn, weight_system

GL2_WS = weight_system(
    [["0", "0"], ["1", "-1"], ["-1", "1"], ["0", "0"], ["1", "0"], ["0", "1"]],
    "cotangent",
)


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
    for _ in range(30):
        beta = vector([rng.randint(-3, 3), rng.randint(-3, 3)])
        if all(x == 0 for x in beta):
            continue
        for group, ws in ((gl(2), GL2_WS), (torus(2), weight_system([["1", "0"], ["2", "-1"]], "cotangent"))):
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
