"""The orbit walk of ``span_candidates(..., orbits=True)`` against the full
walk: the same ``KNResult`` from one flat per Weyl orbit, the orbit count,
the fall back to the full walk when a problem is not graphic, the
refusal of weights W does not permute and of a chi that does not vanish
on the roots, the orbit plans and the strata per ray of chi kept on the
shape's record, and the preset groups kept per process."""

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction as F
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knx.strata
from conftest import GOLDEN_DIR, clear_caches
from knx.engine import cherednik_preset
from knx.errors import CapExceeded, InvalidParameter
from knx.groups import TorusCharacter, gl, group_data, sl, torus
from knx.linalg import clear_denominators
from knx.groups import product as group_product
from knx.oracle import OracleReport, cross_check_enumeration, random_problem
from knx.problemfile import load_problem
from knx.scalars import vec_scale
from knx.strata import WeightSystem, enumerate_kn, shape_of, span_candidates, weight_system

FULL_WALK = knx.strata.span_candidates
# the shape records, which keep the strata per (ray, positive)
SHAPES = knx.strata._shapes
UNCAPPED = 10**6


@contextmanager
def _full_walk(monkeypatch):
    # every flat, whatever enumerate_kn asks for; no strata kept before
    # are read inside, and none kept inside are read after
    def full(*args, orbits=False, **kwargs):
        return FULL_WALK(*args, **kwargs)

    SHAPES.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(knx.strata, "span_candidates", full)
            yield
    finally:
        SHAPES.cache_clear()


def _both_walks(monkeypatch, ws, chi, group, orientation):
    SHAPES.cache_clear()
    orbit = enumerate_kn(ws, chi, group, orientation, UNCAPPED)
    with _full_walk(monkeypatch):
        full = enumerate_kn(ws, chi, group, orientation, UNCAPPED)
    return orbit, full


def _unit(n, pairs):
    w = [F(0)] * n
    for i, x in pairs:
        w[i] += x
    return tuple(w)


def quiver(dims, arrows, framing):
    """The product of the gl(d_i) on the representations of a framed
    quiver, chi = det on each vertex: the weights e_h - e_t of each arrow
    t -> h and f_i copies of the e_j of vertex i."""
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    n = sum(dims)
    weights = [_unit(n, [(offsets[h] + i, 1), (offsets[t] + j, -1)])
               for t, h in arrows for i in range(dims[h]) for j in range(dims[t])]
    weights += [_unit(n, [(offsets[v] + i, 1)])
                for v, f in enumerate(framing) for _ in range(f) for i in range(dims[v])]
    return (WeightSystem(tuple(weights)), TorusCharacter((F(1),) * n),
            group_product([gl(d) for d in dims]))


GL3_GL3 = quiver([3, 3], [(0, 1)], [1, 0])
CYCLIC_3_2 = quiver([2, 2, 2], [(0, 1), (1, 2), (2, 0)], [1, 0, 0])


@pytest.mark.parametrize("orientation", ["negative", "positive", "both"])
def test_orbit_walk_reports_the_full_walk_on_the_presets_and_quivers(monkeypatch, orientation):
    problems = [cherednik_preset(n) for n in range(1, 7)]
    cases = [(p.weights, p.chi, p.group) for p in problems] + [GL3_GL3, CYCLIC_3_2]
    for ws, chi, group in cases:
        orbit, full = _both_walks(monkeypatch, ws, chi, group, orientation)
        assert orbit == full, group.label
    assert [len(enumerate_kn(*q, orientation, UNCAPPED).strata) for q in (GL3_GL3, CYCLIC_3_2)] == [12, 18]


@st.composite
def graphic_problems(draw):
    # a product of gl's, each pair of classes (and each class with the
    # ground) joined by all its edges or by none, in one or both signs and
    # with a multiple, chi constant on each class
    # at most 5 coordinates: B(6) = 203 flats for the full walk
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda s: max(s) > 1 and sum(s) <= 5))
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    n = sum(sizes)
    classes = [range(o, o + s) for o, s in zip(offsets, sizes)]
    signs = st.sampled_from([(1,), (-1,), (1, -1), (2,), (1, 2)])
    weights = []
    for k, l in [(k, l) for k in range(len(sizes)) for l in range(k, len(sizes))]:
        if draw(st.booleans()):
            for s in draw(signs) if k != l else (draw(st.integers(1, 2)),):
                weights += [_unit(n, [(a, s), (b, -s)]) for a in classes[k] for b in classes[l] if a != b]
    for k in range(len(sizes)):
        if draw(st.booleans()):
            weights += [_unit(n, [(a, s)]) for s in draw(signs) for a in classes[k]]
    weights = weights or [_unit(n, [(a, 1)]) for a in classes[0]]
    chi = [F(c) for c, s in zip(draw(st.lists(st.integers(-2, 2), min_size=len(sizes),
                                              max_size=len(sizes))), sizes) for _ in range(s)]
    mode = draw(st.sampled_from(["cotangent", "raw"]))
    return (WeightSystem(tuple(weights), mode), TorusCharacter(tuple(chi)),
            group_product([gl(s) for s in sizes]))


@settings(max_examples=100, deadline=None, database=None)
@given(graphic_problems(), st.sampled_from(["negative", "positive", "both"]))
def test_orbit_walk_reports_the_full_walk_on_graphic_problems(problem, orientation):
    ws, chi, group = problem
    with pytest.MonkeyPatch.context() as monkeypatch:
        orbit, full = _both_walks(monkeypatch, ws, chi, group, orientation)
    assert orbit == full


def test_classes_without_edges_stay_blocks_of_one(monkeypatch):
    # gl(2) x gl(1)^30 with the weights +-(e1 - e2): 31 classes, whose types
    # would number 3 * 2^30 if the 30 coordinates without an edge spanned any
    n = 32
    ws = WeightSystem((_unit(n, [(0, 1), (1, -1)]), _unit(n, [(0, -1), (1, 1)])))
    chi = TorusCharacter((F(1),) * n)
    group = group_product([gl(2)] + [gl(1)] * 30)
    start = time.perf_counter()
    orbit, full = _both_walks(monkeypatch, ws, chi, group, "negative")
    assert time.perf_counter() - start < 2
    assert orbit == full and _orbit_count(ws, chi, group) == 2


def _partition_counts(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p


def _orbit_count(ws, chi, group):
    return sum(1 for _ in span_candidates(ws, chi, group, UNCAPPED, orbits=True))


def test_gl_n_has_one_flat_per_block_around_0_and_partition_of_the_rest():
    p = _partition_counts(12)
    for n in range(2, 13):
        problem = cherednik_preset(n)
        assert _orbit_count(problem.weights, problem.chi, problem.group) == sum(p[:n + 1]), n


def _weyl_group(group):
    # every permutation within the classes of a product of gl's
    blocks, offset = [], 0
    for label in group.label.split("x"):
        size = int(label[3:-1])
        blocks.append(range(offset, offset + size))
        offset += size
    for choice in product(*(permutations(b) for b in blocks)):
        yield [x for perm in choice for x in perm]


def _burnside_count(ws, chi, group):
    # the mean number of flats each Weyl element fixes
    flats = {frozenset(table.int_weights[i] for i in proj.members)
             for table, proj in span_candidates(ws, chi, group, UNCAPPED)}
    elements = list(_weyl_group(group))
    fixed = sum(frozenset(tuple(w[x] for x in sigma) for w in flat) == flat
                for sigma in elements for flat in flats)
    assert fixed % len(elements) == 0
    return fixed // len(elements)


def test_orbit_count_is_the_burnside_count():
    mixed = quiver([2, 3], [(0, 1), (1, 0)], [0, 1])
    problems = [cherednik_preset(n) for n in (2, 3, 4, 5)]
    cases = [(p.weights, p.chi, p.group) for p in problems] + [GL3_GL3, CYCLIC_3_2, mixed]
    for ws, chi, group in cases:
        assert _orbit_count(ws, chi, group) == _burnside_count(ws, chi, group), group.label


def _walks(ws, chi, group):
    orbit = list(span_candidates(ws, chi, group, UNCAPPED, orbits=True))
    return orbit, list(span_candidates(ws, chi, group, UNCAPPED))


GL2_WEIGHTS = [["0", "0"], ["1", "-1"], ["-1", "1"], ["0", "0"], ["1", "0"], ["0", "1"]]
ONES = TorusCharacter((F(1), F(1)))


def test_the_gl2_preset_takes_the_orbit_walk():
    orbit, full = _walks(weight_system(GL2_WEIGHTS), ONES, gl(2))
    assert (len(orbit), len(full)) == (4, 5)


REFUSALS = {
    "unstable": r"^the reflection in the simple root \('1', '-1'\) does not permute the weights$",
    "chi": r"^chi does not vanish on the root \('1', '-1'\)$",
}


@pytest.mark.parametrize("case", ["torus", "form", "root", "weights", "unstable", "chi"])
def test_a_problem_that_is_not_graphic_takes_the_full_walk(monkeypatch, golden_dir, case):
    ws, chi, group = weight_system(GL2_WEIGHTS), ONES, gl(2)
    roots = [["1", "-1"], ["-1", "1"]]
    if case == "torus":  # (a): W is trivial
        group = torus(2)
    elif case == "form":  # (a): q is not the identity
        group = group_data(2, roots, [roots[0]], [["2", "0"], ["0", "2"]])
    elif case == "root":  # (b): the short simple root e2 of B2
        p = load_problem(golden_dir / "b2xgl1.json")
        ws, chi, group = p.weights, p.chi, p.group
    elif case == "weights":  # (c): e1 + e2 is no edge
        ws = weight_system(GL2_WEIGHTS + [["1", "1"]])
    elif case == "unstable":  # not (d): the swap does not map e1 to a weight
        ws = weight_system([["1", "-1"], ["1", "0"]], "raw")
    else:  # not (d): chi does not vanish on e1 - e2
        chi = TorusCharacter((F(1), F(0)))
    if case in REFUSALS:
        # (d) is the walk's precondition, refused as problem files refuse it
        for orientation in ("negative", "positive", "both"):
            with pytest.raises(InvalidParameter, match=REFUSALS[case]):
                enumerate_kn(ws, chi, group, orientation)
        return
    orbit, full = _walks(ws, chi, group)
    assert orbit == full
    for orientation in ("negative", "positive", "both"):
        orbit, full = _both_walks(monkeypatch, ws, chi, group, orientation)
        assert orbit == full


# W must permute the weights and fix chi: on other inputs a Weyl key would
# merge or drop strata.  Raw gl(2) weights {2e1, e2} with chi = (1, 1) have
# the strata beta = (-1, 0) and beta = (0, -1), one Weyl key; the W-stable
# {e1, e2, +-(e1 - e2)} with chi = (2, 1) have beta = (-1, 0) with q = 4 and
# beta = (0, -1) with q = 1
UNSTABLE = (weight_system([["2", "0"], ["0", "1"]], "raw"), ONES, gl(2))
TILTED = (weight_system([["1", "0"], ["0", "1"], ["1", "-1"], ["-1", "1"]], "raw"),
          TorusCharacter((F(2), F(1))), gl(2))


def test_weights_the_weyl_group_does_not_permute_are_refused():
    for walk in (enumerate_kn, lambda *p: list(span_candidates(*p)), cross_check_enumeration):
        with pytest.raises(InvalidParameter, match=REFUSALS["unstable"]):
            walk(*UNSTABLE)


def test_a_chi_that_does_not_vanish_on_the_roots_is_refused_by_enumerate_kn_alone():
    for orientation in ("negative", "positive", "both"):
        with pytest.raises(InvalidParameter, match=REFUSALS["chi"]):
            enumerate_kn(*TILTED, orientation)
    # the oracle's full walk compares flat by flat and merges nothing by W
    report = cross_check_enumeration(*TILTED)
    assert isinstance(report, OracleReport) and report.agreed
    assert len(report.directions) == 4


def test_an_orbit_walk_refuses_a_chi_that_does_not_vanish_on_the_roots():
    # span_candidates is the one way into a walk, so it checks chi itself;
    # the full walk, which merges nothing by W, still takes it
    p, chi = cherednik_preset(2), TorusCharacter((F(1), F(0)))
    with pytest.raises(InvalidParameter, match=REFUSALS["chi"]):
        next(span_candidates(p.weights, chi, p.group, orbits=True))
    assert len(list(span_candidates(p.weights, chi, p.group))) == 5


def test_a_kept_ray_is_not_checked_again(walk_counts, monkeypatch):
    checks = []
    check = knx.strata.validate_torus_character
    monkeypatch.setattr(knx.strata, "validate_torus_character",
                        lambda *args: checks.append(args) or check(*args))
    SHAPES.cache_clear()
    ws, chi, group = weight_system(GL2_WEIGHTS), ONES, gl(2)
    first = enumerate_kn(ws, chi, group)
    # the same ray at another scale reads the kept strata
    assert enumerate_kn(ws, TorusCharacter((F(3), F(3))), group).strata != first.strata
    assert enumerate_kn(ws, chi, group) == first
    assert (walk_counts["walks"], walk_counts["reads"], len(checks)) == (1, 3, 1)


# the orbit plan is kept on the shape's record: it depends on the class of
# each coordinate and the edge of each table weight, not chi, c or the
# order of the weights
FRAMED_GL2_GL1 = quiver([2, 1], [(0, 0), (0, 1), (1, 0)], [1, 1])


def _shuffled(weights, seed):
    weights = list(weights)
    random.Random(seed).shuffle(weights)
    return weights


GL2_PROBLEMS = [(weight_system(GL2_WEIGHTS), ONES, gl(2)),
                (weight_system(_shuffled(GL2_WEIGHTS, 3)), TorusCharacter((F(5, 2), F(5, 2))), gl(2))]


def _counts(counts, *shapes):
    # (misses, hits, size) of the plans and of the kept strata: the plans
    # built, the orbit walks on a kept plan and the records with a plan;
    # the walks, the reads that found the strata kept and the rays kept
    walks = counts["walks"]
    return ((counts["plans"], walks - counts["plans"], sum("plan" in vars(s) for s in shapes)),
            (walks, counts["reads"] - walks, sum(len(s.kept) for s in shapes)))


def test_gl2_problems_of_one_shape_build_one_plan(walk_counts):
    SHAPES.cache_clear()
    for ws, chi, group in GL2_PROBLEMS:
        enumerate_kn(ws, chi, group)
    shape = shape_of(GL2_PROBLEMS[0][0], gl(2))
    # chi on one ray: the second problem reads the kept strata, not the plan
    assert _counts(walk_counts, shape) == ((1, 0, 1), (1, 1, 1))
    enumerate_kn(*GL2_PROBLEMS[0])
    assert _counts(walk_counts, shape) == ((1, 0, 1), (1, 2, 1))
    # another ray of the same shape walks again, on the kept plan
    enumerate_kn(GL2_PROBLEMS[1][0], TorusCharacter((F(-1), F(-1))), gl(2))
    assert _counts(walk_counts, shape) == ((1, 1, 1), (2, 2, 2))


def test_a_cached_plan_reports_what_a_cold_plan_and_the_full_walk_report(monkeypatch):
    gl3 = cherednik_preset(3)
    problems = GL2_PROBLEMS + [(gl3.weights, gl3.chi, gl3.group), FRAMED_GL2_GL1, GL3_GL3]
    for orientation in ("negative", "both"):
        warm = [enumerate_kn(*p, orientation, UNCAPPED) for p in problems]
        for problem, result in zip(problems, warm):
            SHAPES.cache_clear()
            cold = enumerate_kn(*problem, orientation, UNCAPPED)
            with _full_walk(monkeypatch):
                full = enumerate_kn(*problem, orientation, UNCAPPED)
            assert result == cold == full


def _shape(ws, chi, group):
    table, _ = next(span_candidates(ws, chi, group, UNCAPPED))
    return knx.strata._graphic(table, group)


def test_gl3_and_a_framed_gl2_x_gl1_keep_separate_plans(walk_counts):
    # the same 3 coordinates and the same edges: every pair and every e_i
    gl3 = cherednik_preset(3)
    problems = [(gl3.weights, gl3.chi, gl3.group), FRAMED_GL2_GL1]
    (kinds3, edges3), (kinds21, edges21) = [_shape(*p) for p in problems]
    assert edges3 == edges21 and kinds3 != kinds21
    SHAPES.cache_clear()
    walk_counts.clear()
    for problem in problems + problems:
        enumerate_kn(*problem)
    shapes = [shape_of(ws, group) for ws, _, group in problems]
    # the second round reads the kept strata of each
    assert _counts(walk_counts, *shapes) == ((2, 0, 2), (2, 2, 2))
    # B(4) = 15 flats each: S_3 leaves 7 orbits of them, S_2 leaves 11
    assert walk_counts["solves"] == 7 + 11
    assert [_orbit_count(*p) for p in problems] == [7, 11]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_presets_are_one_group_per_n(n):
    assert gl(n) is gl(n)
    assert sl(n) is sl(n) and sl(n).label == f"sl({n})"
    assert sl(n).int_roots == gl(n).int_roots


# the strata are kept per (primitive ray of chi, positive) on the shape's record: chi =
# lam * ray reports the ray's strata with each direction times lam and each
# q-norm times lam^2
B2XGL1 = load_problem(GOLDEN_DIR / "b2xgl1.json")
RAY_CASES = [(p.weights, p.chi, p.group)
             for p in [cherednik_preset(n) for n in (2, 3, 4)] + [B2XGL1]] + [FRAMED_GL2_GL1]


@st.composite
def scaled_problems(draw):
    # a gl(n) preset, the framed gl(2) x gl(1), B2 x gl(1) (not graphic)
    # or a random torus, its weights shuffled, and lam > 0
    if draw(st.booleans()):
        ws, chi, group = draw(st.sampled_from(RAY_CASES))
    else:
        p = random_problem(draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(0, 10**6)))
        ws, chi, group = p.weights, p.chi, p.group
    ws = WeightSystem(tuple(_shuffled(ws.w_weights, draw(st.integers(0, 99)))), ws.mode)
    lam = draw(st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12))
    return ws, chi, group, lam


def _times(result, lam):
    return replace(result, strata=tuple(replace(s, direction=vec_scale(lam, s.direction),
                                                q_norm=lam * lam * s.q_norm)
                                        for s in result.strata))


@settings(max_examples=60, deadline=None, database=None)
@given(scaled_problems(), st.sampled_from(["negative", "positive", "both"]))
def test_a_scaled_chi_reports_the_strata_of_its_ray_scaled(problem, orientation):
    ws, chi, group, lam = problem
    # the walk itself, not kept, at the primitive ray and at lam times it:
    # the same strata, directions times lam and q-norms times lam^2
    d, (ints,) = clear_denominators([chi.vec])
    ray = tuple(a // (gcd(*ints) or d) for a in ints)
    shape = shape_of(ws, group)
    positive = orientation == "positive"
    strata, semistable = knx.strata._ray_strata(shape, ray, positive)
    at_lam = knx.strata._ray_strata(shape, tuple(lam * a for a in ray), positive)
    assert at_lam == (tuple(s._replace(direction=vec_scale(lam, s.direction),
                                       q_norm=lam * lam * s.q_norm) for s in strata),
                      semistable)
    # enumerate_kn scales the kept strata and reads them in file order
    scaled = TorusCharacter(vec_scale(lam, chi.vec))
    clear_caches()
    unscaled = enumerate_kn(ws, chi, group, orientation, UNCAPPED)
    clear_caches()
    cold = enumerate_kn(ws, scaled, group, orientation, UNCAPPED)
    assert cold == _times(unscaled, lam)
    # chi now reads the strata that lam * chi kept: one read, no walk
    calls = []
    read = knx.strata.Shape.strata
    with pytest.MonkeyPatch.context() as m:
        m.setattr(knx.strata.Shape, "strata", lambda *args: calls.append("read") or read(*args))
        m.setattr(knx.strata, "_ray_strata", lambda *args: calls.append("walk"))
        assert enumerate_kn(ws, chi, group, orientation, UNCAPPED) == unscaled
    assert calls == ["read"]


def test_a_kept_entry_never_skips_the_cap():
    ws, chi, group = GL2_PROBLEMS[0]
    SHAPES.cache_clear()
    enumerate_kn(ws, chi, group)
    assert len(shape_of(ws, group).kept) == 1
    with pytest.raises(CapExceeded, match="^7 distinct weights exceed the cap of 5$"):
        enumerate_kn(ws, chi, group, "negative", 5)
    with pytest.raises(InvalidParameter, match="unknown orientation 'up'"):
        enumerate_kn(ws, chi, group, "up")
    with pytest.raises(InvalidParameter, match="weights, character and group rank disagree"):
        enumerate_kn(ws, TorusCharacter((F(1),) * 3), group)
