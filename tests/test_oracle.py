from dataclasses import replace
from functools import reduce
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knx.oracle
import knx.strata
from knx.cli import main

from knx.errors import InternalInconsistency, InvalidParameter
from knx.groups import TorusCharacter, torus
from knx.oracle import (
    OracleConfig,
    cross_check_enumeration,
    cross_check_problem,
    numeric_min_norm,
    random_problem,
)
from knx.engine import cherednik_preset
from knx.groups import primitive_rescale, weyl_canonicalize
from knx.linalg import solve_exact
from knx.problemfile import load_problem
from knx.scalars import GramForm, vec_neg, vec_scale, vector
from knx.strata import enumerate_kn, span_candidates, weight_system
from test_linalg import ref_rank, ref_solve
from vectors import is_zero_vector, vec_add, vec_sub

Q1 = GramForm.identity(1)
Q2 = GramForm.identity(2)


def as_points(results):
    # numeric_min_norm's (nums, den) per translation, as Fraction points
    return [tuple(F(a, den) for a in nums) for nums, den in results]


def test_numeric_min_norm_examples():
    eps0 = F(-1, 1024)
    up = vector([0, eps0])
    # subset {alpha0, (1,1)} of the two-weight torus example at concrete
    # eps, given both as translated vertices and as a translation
    got = numeric_min_norm([vector([0, eps0]), vector([1, 1 + eps0])], [vector([0, 0])], Q2)
    assert got == [((1, -1), 2048)]
    assert as_points(got) == [(F(1, 2048), F(-1, 2048))]
    got = numeric_min_norm([vector([0, 0]), vector([1, 1])], [up, vector([0, 2 * eps0])], Q2)
    assert as_points(got) == [(-eps0 / 2, eps0 / 2), (-eps0, eps0)]

    assert as_points(numeric_min_norm([vector([0, 0])], [up], Q2)) == [(F(0), eps0)]

    sym = [vector([1, 0]), vector([-1, 0])]
    assert as_points(numeric_min_norm(sym, [up], Q2)) == [(F(0), eps0)]
    assert numeric_min_norm(sym, [], Q2) == []


def test_numeric_min_norm_cotangent_pair_is_semistable():
    # one coordinate and one dual coordinate nonzero: 0 lies in the hull
    # [-1+eps, 1+eps], so the point is semistable at every small eps
    eps0 = F(-1, 1024)
    verts = [vector(["0"]), vector(["1"]), vector(["-1"])]
    assert numeric_min_norm(verts, [vector([eps0]), vector([-eps0 / 3])], Q1) == [((0,), 1)] * 2


def reference_min_norm(vertices, q):
    # the same exhaustive search on Fractions, independent of the integer
    # kernel: each support is rank-checked and its minor, paired with
    # q.apply, solved by the Gauss-Jordan reference, and each candidate is
    # compared by its q-norm
    dim = len(vertices[0])
    best, best_norm = None, None
    for size in range(1, min(len(vertices), dim + 1) + 1):
        for support in combinations(range(len(vertices)), size):
            pts = [vertices[i] for i in support]
            diffs = [vec_sub(p, pts[0]) for p in pts[1:]]
            if diffs and ref_rank(diffs) != len(diffs):
                continue
            candidate = pts[0]
            if diffs:
                gram = [[q.apply(a, b) for b in diffs] for a in diffs]
                sol = ref_solve(gram, [-q.apply(pts[0], d) for d in diffs])
                if any(s < 0 for s in sol) or sum(sol) > 1:
                    continue
                for s, d in zip(sol, diffs):
                    candidate = vec_add(candidate, vec_scale(s, d))
            norm = q.norm2(candidate)
            if best_norm is None or norm < best_norm:
                best, best_norm = candidate, norm
    return best


FORMS = {
    "identity": lambda dim: GramForm.identity(dim),
    "double": lambda dim: GramForm.from_rows([[2 if i == j else 0 for j in range(dim)] for i in range(dim)]),
    "off-diagonal": lambda dim: GramForm.from_rows([[2, 1], [1, 2]]),
}
COORDS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _spans_the_space(points):
    return ref_rank([vec_sub(p, points[0]) for p in points[1:]]) == len(points[0])


@st.composite
def hull_problems(draw):
    name = draw(st.sampled_from(sorted(FORMS)))
    if name != "off-diagonal" and draw(st.booleans()):
        # four or five points spanning R^3, translated by minus their
        # centroid: the origin lies inside the hull, where a support of four
        # points wins
        coord = st.integers(-3, 3).map(F)
        points = draw(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=5).filter(
            _spans_the_space))
        centroid = vec_scale(F(-1, len(points)), reduce(vec_add, points))
        return points, [centroid], FORMS[name](3)
    dim = 2 if name == "off-diagonal" else draw(st.integers(1, 3))
    base = draw(st.lists(st.tuples(*[COORDS] * dim), min_size=1, max_size=4))
    # p_i + s (p_j - p_i) + t (p_k - p_i): a duplicate when s = t = 0,
    # collinear with p_i and p_j when t = 0, coplanar with all three else
    index = st.integers(0, len(base) - 1)
    extra = draw(st.lists(st.tuples(index, index, index, COORDS, st.sampled_from([0, 0, F(1, 2), 2])),
                          max_size=3))
    points = list(base)
    for i, j, k, s, t in extra:
        p, dj, dk = base[i], vec_sub(base[j], base[i]), vec_sub(base[k], base[i])
        points.append(vec_add(p, vec_add(vec_scale(s, dj), vec_scale(t, dk))))
    # translations anywhere, or minus the centroid of some points: that one
    # puts the origin inside the hull, where the widest supports win
    centroids = st.lists(st.sampled_from(points), min_size=1, max_size=4).map(
        lambda ps: vec_scale(F(-1, len(ps)), reduce(vec_add, ps)))
    shifts = draw(st.lists(st.one_of(st.tuples(*[COORDS] * dim), centroids), min_size=1, max_size=3))
    return draw(st.permutations(points)), shifts, FORMS[name](dim)


@settings(max_examples=200, deadline=None, database=None)
@given(hull_problems())
@example(([vector(["1/2", "-3"])], [vector(["0", "0"])], GramForm.from_rows([[2, 1], [1, 2]])))
@example(([vector(["1", "1"])] * 3 + [vector(["2", "2"]), vector(["3", "3"])],
          [vector(["-2", "-2"]), vector(["-1/2", "-3"])], GramForm.identity(2)))
@example(([vector(["1", "0", "1"]), vector(["0", "1", "1"]), vector(["1", "1", "1"]),
           vector(["2", "-1", "1"])], [vector(["0", "0", "0"])], GramForm.identity(3)))
# rank-deficient in dim 3, so the supports stop below dim + 1 points: four
# points on a line (affine rank 1) and five in the plane x + y + z = 1
# (affine rank 2), each with its closest point inside the hull
@example(([vector(["2", "0", "1"]), vector(["1", "1", "1"]), vector(["3", "-1", "1"]),
           vector(["0", "2", "1"])], [vector(["0", "0", "0"]), vector(["-1", "0", "-1"])],
          GramForm.identity(3)))
@example(([vector(["1", "0", "0"]), vector(["0", "1", "0"]), vector(["0", "0", "1"]),
           vector(["1", "1", "-1"]), vector(["2", "-1", "0"])], [vector(["0", "0", "0"])],
          GramForm.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])))
# a tetrahedron around the translated origin: its closest point is reached
# only on a support of four points, a chain of three elimination rows
@example(([vector(["1", "0", "0"]), vector(["0", "1", "0"]), vector(["0", "0", "1"]),
           vector(["-1", "-1", "-1"]), vector(["2", "2", "2"])],
          [vector(["0", "0", "0"]), vector(["1/4", "-1/4", "0"]), vector(["-3", "0", "0"])],
          GramForm.identity(3)))
def test_numeric_min_norm_matches_the_fraction_search(problem):
    vertices, shifts, q = problem
    got = numeric_min_norm(vertices, shifts, q)
    assert as_points(got) == [reference_min_norm([vec_add(v, t) for v in vertices], q) for t in shifts]
    # integers over one positive denominator, in lowest terms
    assert all(den > 0 and gcd(den, *nums) == 1 and all(type(a) is int for a in nums)
               for nums, den in got)


def test_one_search_per_flat_and_one_solve_per_non_vertex_point(monkeypatch):
    # every eps of a flat shares one support walk; solve_exact re-solves
    # only a winning support of two or more vertices
    searches, solves = [], []

    def counted_search(vertices, shifts, q, cap):
        points = numeric_min_norm(vertices, shifts, q, cap)
        searches.append(sum(p not in {vec_add(v, t) for v in vertices}
                            for p, t in zip(as_points(points), shifts)))
        return points

    def counted_solve(rows, rhs):
        solves.append(rows)
        return solve_exact(rows, rhs)

    monkeypatch.setattr(knx.oracle, "numeric_min_norm", counted_search)
    monkeypatch.setattr(knx.oracle, "solve_exact", counted_solve)
    p = cherednik_preset(2)
    config = OracleConfig(epsilon_values=(F(-1, 2**20), F(-1, 2**24)))
    report = cross_check_enumeration(p.weights, p.chi, p.group, config)
    assert report.agreed, report.mismatches
    assert len(searches) == report.subsets_checked == 5
    # both kinds occur: 2 flats end at a vertex and 3 inside a face
    assert len(solves) == sum(searches) == 6


def test_a_disagreeing_re_solve_is_an_internal_inconsistency(monkeypatch):
    # the winner of (0,0)-(1,1) shifted by (0,-1) lies inside the segment,
    # so its support is re-solved, here to a wrong point
    monkeypatch.setattr(knx.oracle, "solve_exact", lambda rows, rhs: (1, (0,) * len(rows)))
    with pytest.raises(InternalInconsistency):
        numeric_min_norm([vector(["0", "0"]), vector(["1", "1"])], [vector(["0", "-1"])], Q2)


def test_oracle_config_validation():
    with pytest.raises(InvalidParameter):
        OracleConfig(epsilon_values=(F(-1, 2),))
    with pytest.raises(InvalidParameter):
        OracleConfig(epsilon_values=(F(-1, 2), F(1, 4)))


def test_cross_check_cherednik_n2():
    p = cherednik_preset(2)
    report = cross_check_enumeration(p.weights, p.chi, p.group)
    assert report.agreed, report.mismatches
    assert report.subsets_checked >= 4


def test_cross_check_two_weight_example_down():
    ws = weight_system([["1", "0"], ["1", "1"]], "raw")
    chi = TorusCharacter(vector(["0", "-1"]))
    report = cross_check_enumeration(ws, chi, torus(2))
    assert report.agreed
    assert report.directions == (vector(["0", "1"]),)


def test_cross_check_projective_space():
    ws = weight_system([["1"]] * 4, "cotangent")
    report = cross_check_enumeration(ws, TorusCharacter(vector(["1"])), torus(1))
    assert report.agreed
    assert report.directions == (vector(["-1"]),)


@pytest.mark.parametrize("name", ["torus_example_down", "torus_example_up", "cherednik_n3"])
def test_directions_are_the_sorted_primitive_minus_v(name, golden_dir):
    # the Fraction computation the integer directions replaced: per flat with
    # v != 0, the primitive positive multiple of -v, sorted
    p = load_problem(golden_dir / f"{name}.json")
    expected = set()
    for _, proj in span_candidates(p.weights, p.chi, p.group, p.cap):
        if not is_zero_vector(proj.direction):
            expected.add(primitive_rescale(vec_neg(proj.direction)))
    report = cross_check_problem(p)
    assert report.agreed, report.mismatches
    assert report.directions == tuple(sorted(expected))
    assert all(type(x) is F for d in report.directions for x in d)


def test_random_problem_contracts():
    p = random_problem(2, 4, seed=7)
    q = random_problem(2, 4, seed=7)
    assert p.weights.w_weights == q.weights.w_weights
    assert p.chi.vec == q.chi.vec
    # frozen instance: the seed contract is part of the interface
    assert p.weights.w_weights == (
        vector(["-1", "-2"]),
        vector(["0", "2"]),
        vector(["-3", "-3"]),
        vector(["3", "1"]),
    )
    assert p.chi.vec == vector(["-3", "-1"])
    assert all(-3 <= x <= 3 for w in p.weights.w_weights for x in w)
    assert any(x != 0 for x in p.chi.vec)

    r = random_problem(1, 2, seed=1)
    assert all(-3 <= x <= 3 for w in r.weights.w_weights for x in w)
    with pytest.raises(InvalidParameter):
        random_problem(5, 2, seed=0)
    with pytest.raises(InvalidParameter):
        random_problem(2, 9, seed=0)


def test_oracle_determinism():
    from knx.report import oracle_report_text

    p = random_problem(2, 4, seed=7)
    r1 = cross_check_problem(p)
    r2 = cross_check_problem(p)
    assert r1 == r2
    assert oracle_report_text(r1, True) == oracle_report_text(r2, True)


def test_large_random_enumeration_is_fast():
    import time

    from knx.strata import enumerate_kn

    p = random_problem(3, 8, seed=42)
    t0 = time.monotonic()
    enumerate_kn(p.weights, p.chi, p.group)
    assert time.monotonic() - t0 < 5.0


def test_cross_check_with_weighted_form():
    # rootless rank-2 group with a non-identity invariant form: the
    # projections and the oracle must agree under the same pairing
    from knx.groups import group_data
    from knx.strata import enumerate_kn

    g = group_data(2, [], [], [["2", "0"], ["0", "1"]], label="weighted-torus")
    ws = weight_system([["1", "0"]], "raw")
    chi = TorusCharacter(vector(["1", "1"]))
    kn = enumerate_kn(ws, chi, g)
    assert {s.direction for s in kn.strata} == {vector(["1", "1"]), vector(["0", "1"])}
    assert not kn.semistable_nonempty
    report = cross_check_enumeration(ws, chi, g)
    assert report.agreed, report.mismatches


def test_cross_check_random_torus_problems():
    for s in range(20):
        p = random_problem(1 + s % 3, 1 + (s * 5) % 6, 2000 + s)
        report = cross_check_problem(p)
        assert report.agreed, (s, report.mismatches)


def test_oracle_detects_a_wrong_projection(monkeypatch, capsys, golden_dir):
    solve = knx.strata.min_norm_point

    def doubled(table, members):
        proj = solve(table, members)
        return replace(proj, int_direction=tuple(2 * x for x in proj.int_direction))

    monkeypatch.setattr(knx.strata, "min_norm_point", doubled)
    report = cross_check_problem(cherednik_preset(2))
    assert not report.agreed and report.mismatches
    code = main(["oracle", str(golden_dir / "proj_n1.json"), "--samples", "0"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


@settings(max_examples=60, deadline=None, database=None)
@given(st.builds(random_problem, st.integers(1, 3), st.integers(1, 6), st.integers(0, 10**6)))
@example(cherednik_preset(2))
def test_oracle_directions_are_the_enumerated_strata(problem):
    # the oracle's directions come from the same flats as the strata, so
    # up to the Weyl group they are exactly the enumerated strata
    report = cross_check_problem(problem)
    assert report.agreed, report.mismatches
    kn = enumerate_kn(problem.weights, problem.chi, problem.group, "negative", problem.cap)
    oracle_side = {weyl_canonicalize(d, problem.group) for d in report.directions}
    assert oracle_side == {s.beta_dominant for s in kn.strata}
