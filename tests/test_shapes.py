"""The per-shape record of ``strata.shape_of``: what a problem's strata and
shifts use besides chi and c is built once per group and weight multiset,
whatever the order of the weights, the scale of chi or the value of c."""

import gc
import json
import random
import weakref

import pytest

import knx.engine
import knx.strata
from knx.cli import main
from knx.engine import ExactnessProblem, check
from knx.groups import TorusCharacter, gl, group_data
from knx.problemfile import load_problem
from knx.scalars import vector
from knx.strata import shape_of, weight_system

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
    kept = knx.strata._ray_strata
    kept.cache_clear()  # the full walk reads no strata the orbit walk kept
    with monkeypatch.context() as m:
        m.setattr(knx.strata, "span_candidates",
                  lambda ws, chi, group, cap, orbits=False: walk(ws, chi, group, cap))
        full = [_run(capsys, *call) for call in calls]
    kept.cache_clear()  # nor does a later walk read the full walk's
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


def test_kept_strata_never_skip_the_cap_or_the_drop_check(gl2_files, tmp_path, capsys):
    # both files are on one ray: after the first call every walk is kept
    kept = knx.strata._ray_strata
    kept.cache_clear()
    for path in gl2_files:
        assert _run(capsys, "strata", path)[0] == 0
    assert (kept.cache_info().misses, kept.cache_info().hits) == (1, 1)
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
    assert (kept.cache_info().misses, kept.cache_info().hits) == (1, 2)
