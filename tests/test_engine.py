import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from knx.engine import (
    CERTIFIED,
    PARAMETRIC,
    VIOLATED,
    ExactnessProblem,
    check,
    cherednik_preset,
    forbidden,
    stratum_semigroup,
    with_fixed_parameter,
)
from knx.errors import InvalidParameter, UnsupportedMode
from knx.groups import LieCharacter, TorusCharacter, gl, torus
from knx.scalars import vector
from knx.semigroup import SetDescription, membership
from knx.strata import weight_system


def proj_problem(n: int, ell: F) -> ExactnessProblem:
    return ExactnessProblem(
        group=torus(1),
        weights=weight_system([["1"]] * (n + 1), "cotangent"),
        chi=TorusCharacter(vector(["1"])),
        c=LieCharacter((ell + F(n + 1, 2),)),
    )


def test_line_bundle_threshold_n1():
    # weights (1),(1): Certified exactly for l not in Z_{<=-2}
    for ell in range(-10, 11):
        v = check(proj_problem(1, F(ell)))
        assert v.status == (VIOLATED if ell <= -2 else CERTIFIED)


def test_projective_threshold_all_n():
    for n in (1, 2, 3):
        for ell in range(-10, 11):
            v = check(proj_problem(n, F(ell)))
            want = VIOLATED if ell <= -(n + 1) else CERTIFIED
            assert v.status == want, (n, ell)


def test_cherednik_certified_and_violated():
    p = cherednik_preset(2)
    ok = check(with_fixed_parameter(p, F(3, 4)))
    assert ok.status == CERTIFIED
    bad = check(with_fixed_parameter(p, F(3, 2)))
    assert bad.status == VIOLATED
    witnesses = {tuple(c.signed_beta): c.witness for c in bad.checks if not c.passed}
    assert witnesses[(F(1), F(0))] == ((F(1), 1),)  # 3/2 = 1/2 + 1*1
    assert witnesses[(F(1), F(1))] == ((F(1), 2),)  # 3 = 1 + 2*1


def test_cherednik_forbidden_loci():
    # stratum k is sum_{i<=k} e_i and its locus is 1/2 + (1/k)Z>=0; gl(4)
    # has 21 and gl(5) 31 distinct weights, beyond the default cap
    elapsed = {}
    for n in (1, 2, 3, 4, 5, 10):
        start = time.perf_counter()
        v = forbidden(replace(cherednik_preset(n), cap=10**6))
        elapsed[n] = time.perf_counter() - start
        assert v.status == PARAMETRIC
        assert [l.stratum.beta_dominant for l in v.loci] == [
            tuple(F(int(i < k)) for i in range(n)) for k in range(1, n + 1)
        ]
        assert [l.locus for l in v.loci] == [
            SetDescription(offset=F(1, 2), modulus=F(1, k))
            for k in range(1, n + 1)
        ]
    assert elapsed[5] < 10  # gl(5), with a wide margin
    # gl(10) has B(11) = 678,570 flats, one per Weyl orbit of 139 of them
    assert elapsed[10] < 5


def test_cherednik_forbidden_negative_orientation_mirror():
    p = replace(cherednik_preset(2), orientation="negative")
    v = forbidden(p)
    loci = sorted((l.locus for l in v.loci), key=lambda d: d.modulus)
    assert loci == [
        SetDescription(offset=F(-1, 2), modulus=F(-1)),
        SetDescription(offset=F(-1, 2), modulus=F(-1, 2)),
    ]
    assert v.union_loci == (SetDescription(offset=F(-1, 2), modulus=F(-1, 2)),)


def test_rank_two_sylvester_union_lists_no_gaps():
    # generators {a, a+1} on both axes: the (1, 1) locus, of modulus 1/2,
    # contains both axis loci, and containment reads Apery sets, not gaps
    a, b = "300", "301"
    p = ExactnessProblem(
        group=torus(2),
        weights=weight_system([[a, "0"], [b, "0"], ["0", a], ["0", b]], "cotangent"),
        chi=TorusCharacter(vector(["1", "1"])),
        c=LieCharacter(vector(["0", "0"]), vector(["1", "1"])),
        orientation="positive",
    )
    v = forbidden(p)
    assert len(v.loci) == 3 and [d.modulus for d in v.union_loci] == [F(1, 2)]
    assert all("gaps" not in vars(d) for d in [l.locus for l in v.loci] + list(v.union_loci))


def test_projective_parametric_locus():
    for n in (1, 2, 3):
        p = ExactnessProblem(
            group=torus(1),
            weights=weight_system([["1"]] * (n + 1), "cotangent"),
            chi=TorusCharacter(vector(["1"])),
            c=LieCharacter((F(n + 1, 2),), (F(1),)),
        )
        v = forbidden(p)
        assert len(v.loci) == 1
        locus = v.loci[0].locus
        assert locus.offset == F(-(n + 1)) and locus.modulus == F(-1)
        for t in range(-15, 6):
            assert locus.contains(F(t)) == (t <= -(n + 1))


def test_check_agrees_with_forbidden_pointwise():
    rng = random.Random(55)
    for n in (1, 2):
        par = cherednik_preset(n)
        v = forbidden(par)
        for _ in range(100):
            t = F(rng.randint(-40, 40), rng.randint(1, 6))
            fixed = check(with_fixed_parameter(par, t))
            in_locus = any(l.locus.contains(t) for l in v.loci)
            assert (fixed.status == VIOLATED) == in_locus, (n, t)


def test_beta_rescale_leaves_verdict_unchanged():
    rng = random.Random(66)
    p = cherednik_preset(2)
    fixed = with_fixed_parameter(p, F(3, 2))
    from knx.strata import enumerate_kn

    kn = enumerate_kn(fixed.weights, fixed.chi, fixed.group, fixed.orientation)
    for stratum in kn.strata:
        beta = stratum.beta
        doubled = tuple(2 * x for x in beta)
        for _ in range(25):
            c_val = F(rng.randint(-20, 20), rng.randint(1, 4))
            results = []
            for b in (beta, doubled):
                sd, sg = stratum_semigroup(b, fixed)
                scale_factor = F(2) if b is doubled else F(1)
                results.append(membership(sg, sd.shift, c_val * scale_factor))
            assert results[0] == results[1]


def test_dropping_strata_is_monotone():
    p = cherednik_preset(2)
    bad = with_fixed_parameter(p, F(3, 2))
    assert check(bad).status == VIOLATED
    dropped_all = replace(
        bad, dropped_strata=(vector(["1", "0"]), vector(["1", "1"]))
    )
    assert check(dropped_all).status == CERTIFIED
    good = with_fixed_parameter(p, F(3, 4))
    dropped_one = replace(good, dropped_strata=(vector(["1", "0"]),))
    assert check(dropped_one).status == CERTIFIED  # never flips to Violated


def test_dropping_unknown_stratum_errors():
    p = with_fixed_parameter(cherednik_preset(2), F(1, 3))
    broken = replace(p, dropped_strata=(vector(["5", "3"]),))
    with pytest.raises(InvalidParameter, match=r"\(5, 3\)"):
        check(broken)


def test_both_orientation_checks_both_signs():
    p = replace(proj_problem(1, F(0)), orientation="both")
    v = check(p)
    betas = {c.signed_beta for c in v.checks}
    assert betas == {vector(["-1"]), vector(["1"])}
    # l = 0: negative side passes, positive side fails (c(beta)=1 in 1+Z>=0)
    assert v.status == VIOLATED


def test_mode_guards():
    raw_nonabelian = ExactnessProblem(
        group=gl(2),
        weights=weight_system([["1", "0"], ["0", "1"]], "raw"),
        chi=TorusCharacter(vector(["1", "1"])),
        c=LieCharacter(vector(["0", "0"])),
    )
    with pytest.raises(UnsupportedMode):
        check(raw_nonabelian)
    with pytest.raises(InvalidParameter):
        check(cherednik_preset(2))  # parametric c in fixed-mode check
    with pytest.raises(InvalidParameter):
        forbidden(with_fixed_parameter(cherednik_preset(2), F(1)))


def test_fixed_parameter_specialization():
    p = cherednik_preset(2)
    fixed = with_fixed_parameter(p, F(5, 7))
    assert fixed.c.base == (F(5, 7), F(5, 7))
    assert fixed.c.direction is None


def test_constant_parametric_condition_is_flagged():
    # direction pairing zero with the single stratum: the condition on t
    # is constant, flagged as full or empty depending on the base
    def prob(base):
        return ExactnessProblem(
            group=torus(1),
            weights=weight_system([["1"], ["1"]], "cotangent"),
            chi=TorusCharacter(vector(["1"])),
            c=LieCharacter(base, (F(0),)),
        )

    # single stratum beta=(-1) with shift 1 and I = Z>=0
    never = forbidden(prob((F(1),)))  # c(beta) = -1, not in 1 + Z>=0
    assert never.loci[0].locus.empty and not never.loci[0].locus.full
    always = forbidden(prob((F(-2),)))  # c(beta) = 2 = 1 + 1
    assert always.loci[0].locus.full and not always.loci[0].locus.empty
    assert always.loci[0].locus.contains(F(123, 7))
    assert not never.loci[0].locus.contains(F(0))
