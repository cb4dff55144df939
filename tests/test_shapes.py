"""The per-shape record of ``strata.shape_of``: what a problem's strata and
shifts use besides chi and c is built once per group and weight multiset,
whatever the order of the weights, the scale of chi or the value of c."""

import gc
import json
import random
import weakref
from dataclasses import replace
from fractions import Fraction as F
from types import FrameType

import pytest

import knx.engine
import knx.strata
from knx.cli import main
from knx.engine import ExactnessProblem, check, cherednik_preset
from knx.groups import TorusCharacter, gl, group_data, torus
from knx.problemfile import load_problem
from knx.scalars import vec_neg, vector
from knx.strata import enumerate_kn, shape_of, weight_system

from conftest import clear_caches

SHAPES = knx.strata._shapes
GL2_WEIGHTS = [["1", "-1"], ["-1", "1"], ["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]]


def _gl2_file(path, seed, chi, t):
    weights = list(GL2_WEIGHTS)
    random.Random(seed).shuffle(weights)
    path.write_text(json.dumps({
        "knx_version": 1, "group": {"type": "gl", "n": 2}, "weights": weights,
        "chi": [chi, chi], "c": {"base": [t, t]}, "orientation": "positive",
    }))
    return path


@pytest.fixture
def gl2_files(tmp_path):
    # one shape: the same weights in two orders, chi at two scales, two c
    return [_gl2_file(tmp_path / "a.json", 1, "1", "3/2"),
            _gl2_file(tmp_path / "b.json", 2, "5/4", "4/3")]


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gl2_files_of_one_shape_share_one_record(gl2_files, capsys):
    SHAPES.cache_clear()
    for path in gl2_files:
        assert _run(capsys, "check", path)[0] in (0, 1)
    info = SHAPES.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 0
    first, second = (load_problem(str(p)) for p in gl2_files)
    assert first.weights.w_weights != second.weights.w_weights
    assert first.shape is second.shape
    assert SHAPES.cache_info().misses == 1


def test_a_shared_record_reports_what_cold_calls_and_the_full_walk_report(
        gl2_files, capsys, monkeypatch):
    calls = [(command, path, *flags) for path in gl2_files
             for command in ("strata", "check") for flags in ((), ("--json",))]
    warm = [_run(capsys, *call) for call in calls]
    cold = []
    for call in calls:
        clear_caches()
        cold.append(_run(capsys, *call))
    walk = knx.strata.span_candidates
    SHAPES.cache_clear()  # the full walk reads no strata the orbit walk kept
    with monkeypatch.context() as m:
        m.setattr(knx.strata, "span_candidates",
                  lambda *args, orbits=False, **kwargs: walk(*args, **kwargs))
        full = [_run(capsys, *call) for call in calls]
    SHAPES.cache_clear()  # nor does a later walk read the full walk's
    assert warm == cold == full
    assert warm[0][1] != warm[4][1]  # the reports tell the two files apart


def _problem(group):
    return ExactnessProblem(group, weight_system(GL2_WEIGHTS), TorusCharacter(vector(["1", "1"])))


def test_groups_with_other_roots_simple_roots_or_form_get_other_records():
    roots = [["1", "-1"], ["-1", "1"]]
    groups = [
        group_data(2, roots, [roots[0]]),
        group_data(2, [["2", "-2"], ["-2", "2"]], [["2", "-2"]]),  # other roots
        group_data(2, roots, [roots[1]]),  # the other base: other dominant keys
        group_data(2, roots, [roots[0]], [["2", "0"], ["0", "2"]]),  # other form
        gl(2),  # the roots and form of the first, another label
    ]
    records = [_problem(g).shape for g in groups]
    assert len({id(r) for r in records}) == len(groups)
    # a group built again from the same data finds its record
    assert _problem(group_data(2, roots, [roots[0]])).shape is records[0]


def test_weights_the_weyl_group_does_not_permute_leave_no_record(tmp_path, capsys):
    bad = tmp_path / "e1.json"
    bad.write_text(json.dumps({"knx_version": 1, "group": {"type": "gl", "n": 3},
                               "weights": [["1", "0", "0"]], "chi": ["1", "1", "1"]}))
    SHAPES.cache_clear()
    for _ in range(2):
        code, out, err = _run(capsys, "strata", bad)
        assert code == 2 and out == ""
        assert "the reflection in the simple root ('1', '-1', '0') does not permute the weights" in err
    info = SHAPES.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 0)


def test_the_cache_keeps_at_most_8_shapes():
    SHAPES.cache_clear()
    group = gl(1)
    for k in range(1, 12):
        shape_of(weight_system([[str(k)]]), group)
        assert SHAPES.cache_info().currsize == min(k, 8)
    assert SHAPES.cache_info().maxsize == 8


def test_shift_data_outlives_its_record(gl2_files):
    # the per-direction cache is keyed by the shape's value: once 8 other
    # shapes have pushed the record out, no cache keeps it alive, and its
    # directions are still found
    clear_caches()
    shifts = knx.engine._shift
    problem = load_problem(str(gl2_files[0]))
    check(problem)
    built = shifts.cache_info().misses
    record = weakref.ref(problem.shape)
    del problem
    for k in range(1, 9):
        shape_of(weight_system([[str(k)]]), gl(1))
    gc.collect()
    assert record() is None
    check(load_problem(str(gl2_files[1])))
    assert shifts.cache_info().misses == built


def _misses_and_hits(counts):
    return counts["walks"], counts["reads"] - counts["walks"]


def test_kept_strata_never_skip_the_cap_or_the_drop_check(gl2_files, tmp_path, capsys, walk_counts):
    # both files are on one ray: after the first call every walk is kept
    SHAPES.cache_clear()
    for path in gl2_files:
        assert _run(capsys, "strata", path)[0] == 0
    assert _misses_and_hits(walk_counts) == (1, 1)
    code, out, err = _run(capsys, "strata", gl2_files[1], "--max-weights", "5")
    assert (code, out) == (3, "")
    assert err == "error: 7 distinct weights exceed the cap of 5 (raise it with --max-weights)\n"
    data = json.loads(gl2_files[0].read_text())
    dropped = tmp_path / "dropped.json"
    dropped.write_text(json.dumps({**data, "drop_strata": [["7", "7"]]}))
    code, out, err = _run(capsys, "check", dropped)
    assert (code, out) == (2, "")
    assert "dropped strata do not match any enumerated stratum: (7, 7)" in err
    # the cap error came before the lookup; the drop check read the entry
    assert _misses_and_hits(walk_counts) == (1, 2)


# what a record keeps lives and dies with it: the orbit plan, built once
# per record, and the strata of the last 8 (ray, positive) walked on it
UNCAPPED = 10**6


def test_the_plan_and_the_kept_strata_outlive_no_record():
    # the record alone holds them, and once 8 other shapes have pushed it
    # out, no cache keeps it alive; a tuple takes no weak reference, so the
    # referrers of each are checked and the record's weak reference
    clear_caches()
    p = cherednik_preset(3)
    ws, chi, group = p.weights, p.chi, p.group
    del p
    enumerate_kn(ws, chi, group)
    shape = shape_of(ws, group)
    assert len(shape.plan) == 7 and len(shape.kept) == 1
    for name in ("plan", "kept"):
        referrers = [r for r in gc.get_referrers(getattr(shape, name)) if not isinstance(r, FrameType)]
        assert len(referrers) == 1 and referrers[0] is vars(shape)
    record = weakref.ref(shape)
    del shape, referrers
    for k in range(1, 9):
        shape_of(weight_system([[str(k)]]), gl(1))
    gc.collect()
    assert record() is None


def test_negative_and_both_read_one_kept_entry(walk_counts):
    # only "positive" changes the betas a walk reports, so "negative" and
    # "both" share the entry of their ray
    p = cherednik_preset(2)
    ws, chi, group = p.weights, p.chi, p.group
    results = [enumerate_kn(ws, chi, group, orientation) for orientation in ("negative", "both", "negative")]
    assert (walk_counts["walks"], walk_counts["reads"]) == (1, 3)
    assert len(shape_of(ws, group).kept) == 1
    assert results[0] == results[2] == replace(results[1], orientation="negative")


def _rays(k):
    # k primitive rays of a rank-2 torus
    return [TorusCharacter((F(1), F(i))) for i in range(k)]


def test_a_ninth_ray_on_one_record_walks_the_first_again(walk_counts):
    clear_caches()
    ws, group = weight_system([["1", "0"], ["1", "1"], ["-1", "2"]]), torus(2)
    for chi in _rays(9):
        enumerate_kn(ws, chi, group)
    assert walk_counts["walks"] == 9 and len(shape_of(ws, group).kept) == 8
    for chi in _rays(9)[1:]:
        enumerate_kn(ws, chi, group)
    assert walk_counts["walks"] == 9
    enumerate_kn(ws, _rays(1)[0], group)
    assert walk_counts["walks"] == 10


def test_two_records_keep_8_rays_each(walk_counts):
    clear_caches()
    shapes = [weight_system([["1", "0"], ["1", "1"], ["-1", "2"]]), weight_system([["2", "1"], ["0", "1"]])]
    for chi in _rays(8):
        for ws in shapes:
            enumerate_kn(ws, chi, torus(2))
    assert walk_counts["walks"] == 16
    for ws in shapes:
        for chi in _rays(8):
            enumerate_kn(ws, chi, torus(2))
    assert walk_counts["walks"] == 16 and walk_counts["reads"] == 32
    assert [len(shape_of(ws, torus(2)).kept) for ws in shapes] == [8, 8]


# sum_{m <= n} p(m), p(0) = 1: the block of 0 takes n - m coordinates, and
# the other blocks partition the m left, one orbit per partition
ORBITS = {1: 2, 2: 4, 3: 7, 4: 12, 5: 19, 6: 30, 7: 45, 8: 67}


@pytest.mark.parametrize("n", sorted(ORBITS))
def test_a_gl_preset_walk_solves_each_orbit_once_per_ray(n, walk_counts):
    # gl(1) has no reflection: it takes the full walk of its B(2) = 2
    # flats, and builds no plan
    clear_caches()
    p = cherednik_preset(n)
    ws, chi, group = p.weights, p.chi, p.group
    plans = int(n > 1)
    enumerate_kn(ws, chi, group, "negative", UNCAPPED)
    assert (walk_counts["plans"], walk_counts["solves"]) == (plans, ORBITS[n])
    enumerate_kn(ws, chi, group, "negative", UNCAPPED)
    assert (walk_counts["plans"], walk_counts["solves"]) == (plans, ORBITS[n])
    # another ray of the record walks again, on its plan
    enumerate_kn(ws, TorusCharacter(vec_neg(chi.vec)), group, "negative", UNCAPPED)
    assert (walk_counts["plans"], walk_counts["solves"]) == (plans, 2 * ORBITS[n])
