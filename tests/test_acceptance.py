"""Acceptance suite: one test per criterion, each printing a PASS line on
success (failures surface as ordinary assertion errors)."""

import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from knx.engine import (
    CERTIFIED,
    VIOLATED,
    ExactnessProblem,
    check,
    cherednik_preset,
    forbidden,
    stratum_semigroup,
    with_fixed_parameter,
)
from knx.errors import SliceSubtractionFailure
from knx.groups import LieCharacter, TorusCharacter, torus, weyl_canonicalize
from knx.oracle import OracleConfig, cross_check_problem, random_problem
from knx.problemfile import load_problem
from knx.scalars import vector
from knx.semigroup import SetDescription, describe_members, membership, semigroup_from_generators
from knx.shifts import compute_shift
from knx.strata import enumerate_kn, weight_system

from conftest import GOLDEN_DIR, GOLDEN_FILES

# golden problems with a stratum that has no slice: Lambda^2 C^n + C^n,
# whose reports pin the exit 2 of forbidden
NO_SLICE = ("lambda2_n3", "lambda2_n4")


def _random_torus_problems(count: int, base_seed: int):
    for s in range(count):
        yield random_problem(1 + s % 3, 1 + (s * 5) % 6, base_seed + s)


def test_criterion_1_cherednik_reproduction():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        started = time.monotonic()
        p = cherednik_preset(n)
        kn = enumerate_kn(p.weights, p.chi, p.group, p.orientation)
        expected_dominants = {
            tuple(F(1) if i < k else F(0) for i in range(n)) for k in range(1, n + 1)
        }
        assert {s.beta_dominant for s in kn.strata} == expected_dominants
        for s in kn.strata:
            k = sum(1 for x in s.beta_dominant if x != 0)
            sd, sg = stratum_semigroup(s.beta, p)
            assert sd.shift == F(k, 2)
            # I(beta_k) is exactly Z>=0
            assert sg.generators == (1,)
            assert sg.scale == 1 and sg.content == 1
            assert sg.gaps == () and sg.conductor == 0
        v = forbidden(p)
        got = sorted((l.locus for l in v.loci), key=lambda d: d.modulus)
        want = sorted(
            (
                SetDescription(offset=F(1, 2), modulus=F(1, k))
                for k in range(1, n + 1)
            ),
            key=lambda d: d.modulus,
        )
        assert got == want
        if n == 3:
            assert time.monotonic() - started < 10.0
    print("\nACCEPTANCE 1 (type-A spherical reproduction n=1..3): PASS "
          f"({time.monotonic() - t0:.2f}s)")


def test_criterion_2_projective_threshold():
    for n in (1, 2, 3):
        started = time.monotonic()
        ws = weight_system([["1"]] * (n + 1), "cotangent")
        chi = TorusCharacter(vector(["1"]))
        kn = enumerate_kn(ws, chi, torus(1))
        assert len(kn.strata) == 1
        for ell in range(-10, 11):
            p = ExactnessProblem(
                group=torus(1),
                weights=ws,
                chi=chi,
                c=LieCharacter((F(ell) + F(n + 1, 2),)),
            )
            want = VIOLATED if ell <= -(n + 1) else CERTIFIED
            assert check(p).status == want, (n, ell)
        assert time.monotonic() - started < 1.0
    print("ACCEPTANCE 2 (twisted-module threshold on projective space): PASS")


def test_criterion_3_two_weight_torus_example():
    started = time.monotonic()
    ws = weight_system([["1", "0"], ["1", "1"]], "raw")
    up = enumerate_kn(ws, TorusCharacter(vector(["0", "1"])), torus(2))
    assert {s.beta_neg for s in up.strata} == {vector(["0", "-1"]), vector(["1", "-1"])}
    assert not up.semistable_nonempty
    down = enumerate_kn(ws, TorusCharacter(vector(["0", "-1"])), torus(2))
    assert len(down.strata) == 1
    assert down.strata[0].direction == vector(["0", "-1"])
    assert not down.semistable_nonempty
    assert time.monotonic() - started < 1.0
    print("ACCEPTANCE 3 (two-weight torus example, both characters): PASS")


def test_criterion_4_weight_sum_identity_and_equivalent_form():
    rng = random.Random(8080)
    problems = [load_problem(str(p)) for p in GOLDEN_FILES if p.stem not in NO_SLICE]
    # each NO_SLICE problem has a stratum whose slice the nilpotent pairings do not fit
    for stem in NO_SLICE:
        p = load_problem(str(GOLDEN_DIR / f"{stem}.json"))
        kn = enumerate_kn(p.weights, p.chi, p.group, p.orientation, p.cap)
        with pytest.raises(SliceSubtractionFailure):
            for stratum in kn.strata:
                compute_shift(stratum.beta, p.weights, p.group)
    problems += list(_random_torus_problems(100, 31_000))
    strata_seen = 0
    for p in problems:
        kn = enumerate_kn(p.weights, p.chi, p.group, p.orientation, p.cap)
        for stratum in kn.strata:
            sd = compute_shift(stratum.beta, p.weights, p.group)
            lhs = 2 * sum(
                abs(p.group.form.apply(w, stratum.beta)) for w in p.weights.w_weights
            )
            assert lhs == sum(abs(w) for w in sd.slice_weights) - 2 * sd.n_minus_sum
            sg = semigroup_from_generators(sd.semigroup_generators)
            quarter = sum(abs(w) for w in sd.slice_weights) / 4
            for _ in range(100):
                c = F(rng.randint(-80, 80), rng.randint(1, 4))
                assert membership(sg, sd.shift, c) == membership(
                    sg, quarter, c - sd.n_minus_sum / 2
                )
            strata_seen += 1
    assert strata_seen > 50
    print(f"ACCEPTANCE 4 (weight-sum identity + equivalent form, {strata_seen} strata): PASS")


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    for i, p in enumerate(_random_torus_problems(100, 52_000)):
        report = cross_check_problem(p, OracleConfig())
        assert report.agreed, (i, report.mismatches)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 (oracle equivalence on 100 random problems): PASS ({elapsed:.1f}s)")


def test_criterion_6_semigroup_soundness():
    rng = random.Random(606)
    for trial in range(50):
        gens = sorted({rng.randint(1, 14) for _ in range(rng.randint(1, 4))})
        s = semigroup_from_generators([F(g) for g in gens])
        reachable = {0}
        for m in range(1, 201):
            if any(m - g in reachable for g in gens if g <= m):
                reachable.add(m)
        for m in range(201):
            assert membership(s, F(0), F(m)) == (m in reachable), (gens, m)
        hi = s.conductor + 3 * max(s.content, 1)
        desc_window = {0}
        for m in range(1, hi + 1):
            if any(m - g in desc_window for g in gens if g <= m):
                desc_window.add(m)
        desc = describe_members(s, F(0))
        for m in range(hi + 1):
            assert desc.contains(F(m)) == (m in desc_window), (gens, m)
    print("ACCEPTANCE 6 (Apery-set semigroup vs naive enumeration, 50 seeded sets): PASS")


def test_criterion_7_invariance_suite():
    rng = random.Random(707)
    # chi -> 2*chi and Weyl-permuted input leave golden strata unchanged
    for path in GOLDEN_FILES:
        p = load_problem(str(path))
        kn = enumerate_kn(p.weights, p.chi, p.group, p.orientation)
        doubled = TorusCharacter(tuple(2 * x for x in p.chi.vec))
        kn2 = enumerate_kn(p.weights, doubled, p.group, p.orientation)
        assert {s.beta_dominant for s in kn.strata} == {s.beta_dominant for s in kn2.strata}
        assert kn.semistable_nonempty == kn2.semistable_nonempty
        perm = list(range(len(p.weights.w_weights)))
        rng.shuffle(perm)
        shuffled = replace(
            p.weights, w_weights=tuple(p.weights.w_weights[i] for i in perm)
        )
        kn3 = enumerate_kn(shuffled, p.chi, p.group, p.orientation)
        assert {s.beta_dominant for s in kn.strata} == {s.beta_dominant for s in kn3.strata}
        assert [s.q_norm for s in kn.strata] == [s.q_norm for s in kn3.strata]
    # coordinate-permutation (Weyl) invariance for the gl(2) problem
    p = with_fixed_parameter(cherednik_preset(2), F(3, 2))
    swapped_weights = weight_system(
        [tuple(w[::-1]) for w in p.weights.w_weights], "cotangent"
    )
    v1 = check(p)
    v2 = check(replace(p, weights=swapped_weights))
    assert v1.status == v2.status
    assert {weyl_canonicalize(c.signed_beta, p.group) for c in v1.checks} == {
        weyl_canonicalize(c.signed_beta, p.group) for c in v2.checks
    }
    assert {(c.shift_data.shift, c.passed) for c in v1.checks} == {
        (c.shift_data.shift, c.passed) for c in v2.checks
    }
    # beta -> 2*beta through the test hook leaves each verdict unchanged
    for n in (1, 2):
        par = cherednik_preset(n)
        kn = enumerate_kn(par.weights, par.chi, par.group, par.orientation)
        for stratum in kn.strata:
            doubled_beta = tuple(2 * x for x in stratum.beta)
            for _ in range(20):
                t = F(rng.randint(-20, 20), rng.randint(1, 4))
                fixed = with_fixed_parameter(par, t)
                sd1, sg1 = stratum_semigroup(stratum.beta, fixed)
                sd2, sg2 = stratum_semigroup(doubled_beta, fixed)
                q = par.group.form
                r1 = membership(sg1, sd1.shift, q.apply(fixed.c.base, stratum.beta))
                r2 = membership(sg2, sd2.shift, q.apply(fixed.c.base, doubled_beta))
                assert r1 == r2
    print("ACCEPTANCE 7 (invariance suite): PASS")
