"""The orbit walk of ``span_candidates(..., orbits=True)`` against the full
walk: the same ``KNResult`` from one flat per Weyl orbit, the orbit count,
the fall back to the full walk when a problem is not graphic, and the
per-process caches of orbit plans, strata per ray of chi and preset
groups."""

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
from knx.oracle import random_problem
from knx.problemfile import load_problem
from knx.scalars import vec_scale
from knx.strata import WeightSystem, enumerate_kn, span_candidates, weight_system

FULL_WALK = knx.strata.span_candidates
# the strata kept per (shape, ray, orientation)
KEPT = knx.strata._ray_strata
UNCAPPED = 10**6


@contextmanager
def _full_walk(monkeypatch):
    # every flat, whatever enumerate_kn asks for; no strata kept before
    # are read inside, and none kept inside are read after
    def full(ws, chi, group, cap, orbits=False):
        return FULL_WALK(ws, chi, group, cap)

    KEPT.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(knx.strata, "span_candidates", full)
            yield
    finally:
        KEPT.cache_clear()


def _both_walks(monkeypatch, ws, chi, group, orientation):
    KEPT.cache_clear()
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
    weights = weights or [_unit(n, [(0, 1)])]
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
    # gl(2) x gl(1)^30 with the one weight e1 - e2: 31 classes, whose types
    # would number 3 * 2^30 if the 30 coordinates without an edge spanned any
    n = 32
    ws = WeightSystem((_unit(n, [(0, 1), (1, -1)]),))
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
    elif case == "unstable":  # (d): the swap does not map e1 to a weight
        ws = weight_system([["1", "-1"], ["1", "0"]], "raw")
    else:  # (d): chi is not constant on the class
        chi = TorusCharacter((F(1), F(0)))
    orbit, full = _walks(ws, chi, group)
    assert orbit == full
    for orientation in ("negative", "positive", "both"):
        orbit, full = _both_walks(monkeypatch, ws, chi, group, orientation)
        assert orbit == full


# the orbit plan is cached per shape: the class of each coordinate and the
# edge of each table weight, not chi, c or the order of the weights
PLAN = knx.strata._orbit_plan
FRAMED_GL2_GL1 = quiver([2, 1], [(0, 0), (0, 1), (1, 0)], [1, 1])


def _shuffled(weights, seed):
    weights = list(weights)
    random.Random(seed).shuffle(weights)
    return weights


GL2_PROBLEMS = [(weight_system(GL2_WEIGHTS), ONES, gl(2)),
                (weight_system(_shuffled(GL2_WEIGHTS, 3)), TorusCharacter((F(5, 2), F(5, 2))), gl(2))]


def _counts(cache):
    info = cache.cache_info()
    return info.misses, info.hits, info.currsize


def test_gl2_problems_of_one_shape_build_one_plan():
    PLAN.cache_clear()
    KEPT.cache_clear()
    for ws, chi, group in GL2_PROBLEMS:
        enumerate_kn(ws, chi, group)
    # chi on one ray: the second problem reads the kept strata, not the plan
    assert _counts(PLAN) == (1, 0, 1) and _counts(KEPT) == (1, 1, 1)
    enumerate_kn(*GL2_PROBLEMS[0])
    assert _counts(PLAN) == (1, 0, 1) and _counts(KEPT) == (1, 2, 1)
    # another ray of the same shape walks again, on the kept plan
    enumerate_kn(GL2_PROBLEMS[1][0], TorusCharacter((F(-1), F(-1))), gl(2))
    assert _counts(PLAN) == (1, 1, 1) and _counts(KEPT) == (2, 2, 2)


def test_a_cached_plan_reports_what_a_cold_plan_and_the_full_walk_report(monkeypatch):
    gl3 = cherednik_preset(3)
    problems = GL2_PROBLEMS + [(gl3.weights, gl3.chi, gl3.group), FRAMED_GL2_GL1, GL3_GL3]
    for orientation in ("negative", "both"):
        warm = [enumerate_kn(*p, orientation, UNCAPPED) for p in problems]
        for problem, result in zip(problems, warm):
            PLAN.cache_clear()
            KEPT.cache_clear()
            cold = enumerate_kn(*problem, orientation, UNCAPPED)
            with _full_walk(monkeypatch):
                full = enumerate_kn(*problem, orientation, UNCAPPED)
            assert result == cold == full


def _shape(ws, chi, group):
    table, _ = next(span_candidates(ws, chi, group, UNCAPPED))
    return knx.strata._graphic(table, group)


def test_gl3_and_a_framed_gl2_x_gl1_keep_separate_plans():
    # the same 3 coordinates and the same edges: every pair and every e_i
    gl3 = cherednik_preset(3)
    problems = [(gl3.weights, gl3.chi, gl3.group), FRAMED_GL2_GL1]
    (kinds3, edges3), (kinds21, edges21) = [_shape(*p) for p in problems]
    assert edges3 == edges21 and kinds3 != kinds21
    PLAN.cache_clear()
    KEPT.cache_clear()
    for problem in problems + problems:
        enumerate_kn(*problem)
    # the second round reads the kept strata of each
    assert _counts(PLAN) == (2, 0, 2) and _counts(KEPT) == (2, 2, 2)
    # B(4) = 15 flats each: S_3 leaves 7 orbits of them, S_2 leaves 11
    assert [_orbit_count(*p) for p in problems] == [7, 11]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_presets_are_one_group_per_n(n):
    assert gl(n) is gl(n)
    assert sl(n) is sl(n) and sl(n).label == f"sl({n})"
    assert sl(n).int_roots == gl(n).int_roots


# the strata are kept per (shape, primitive ray of chi, orientation): chi =
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
    # the walk itself, uncached, at the primitive ray and at lam times it:
    # the same strata, directions times lam and q-norms times lam^2
    d, (ints,) = clear_denominators([chi.vec])
    ray = tuple(a // (gcd(*ints) or d) for a in ints)
    key = knx.strata._shape_key(ws, group)
    strata, semistable, table = KEPT.__wrapped__(key, ray, orientation)
    at_lam = KEPT.__wrapped__(key, tuple(lam * a for a in ray), orientation)
    assert at_lam == (tuple(s._replace(direction=vec_scale(lam, s.direction),
                                       q_norm=lam * lam * s.q_norm) for s in strata),
                      semistable, table)
    # enumerate_kn scales the kept strata and reads them in file order
    scaled = TorusCharacter(vec_scale(lam, chi.vec))
    clear_caches()
    unscaled = enumerate_kn(ws, chi, group, orientation, UNCAPPED)
    clear_caches()
    cold = enumerate_kn(ws, scaled, group, orientation, UNCAPPED)
    assert cold == _times(unscaled, lam)
    # chi now reads the strata that lam * chi kept
    assert enumerate_kn(ws, chi, group, orientation, UNCAPPED) == unscaled
    assert KEPT.cache_info().hits == 1


def test_a_kept_entry_never_skips_the_cap():
    ws, chi, group = GL2_PROBLEMS[0]
    KEPT.cache_clear()
    enumerate_kn(ws, chi, group)
    assert KEPT.cache_info().currsize == 1
    with pytest.raises(CapExceeded, match="^7 distinct weights exceed the cap of 5$"):
        enumerate_kn(ws, chi, group, "negative", 5)
    with pytest.raises(InvalidParameter, match="unknown orientation 'up'"):
        enumerate_kn(ws, chi, group, "up")
    with pytest.raises(InvalidParameter, match="weights, character and group rank disagree"):
        enumerate_kn(ws, TorusCharacter((F(1),) * 3), group)
