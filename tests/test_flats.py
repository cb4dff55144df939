"""The flats a shape's record keeps: ``Shape.flats`` lists the members of
every flat of the table's weights in the full walk's order, once per shape,
and every later full walk of the shape reads them."""

import gc
import json
import weakref
from fractions import Fraction as F
from types import FrameType

import pytest
from hypothesis import given, settings, strategies as st

import knx.strata
from knx.cli import main
from knx.engine import cherednik_preset
from knx.groups import TorusCharacter, gl, torus
from knx.linalg import pivots, rref_sorted, span_extend, span_residual
from knx.strata import enumerate_kn, shape_of, weight_system

from conftest import clear_caches

# the Bell numbers B(k), the number of partitions of a k-set
BELL = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


def _reference_flats(weights):
    """The full walk's flats as the basis-keyed breadth-first search finds
    them: each flat reduces every line by its basis, and extends it once
    per distinct residual."""
    lines = {}
    for i, w in enumerate(weights):
        lines.setdefault(span_residual((), w, ()), []).append(i)
    flats = []
    seen = {()}
    level = [()]
    while level:
        found = []
        for basis in level:
            cols = pivots(basis)
            members = []
            ups = set()
            for line, on_line in lines.items():
                up = span_residual(basis, line, cols)
                if up is None:
                    members += on_line
                else:
                    ups.add(up)
            for up in ups:
                bigger = span_extend(basis, up, cols)
                if bigger not in seen:
                    seen.add(bigger)
                    found.append(bigger)
            flats.append(tuple(sorted(members)))
        level = rref_sorted(found)
    return tuple(flats)


def _lambda2(n):
    """gl(n) on Lambda^2 C^n + C^n: the weights e_i + e_j (i < j), then e_i."""
    weights = [[int(k in (i, j)) for k in range(n)] for i in range(n) for j in range(i + 1, n)]
    weights += [[int(k == i) for k in range(n)] for i in range(n)]
    return weight_system([[str(a) for a in w] for w in weights])


def _check_against_reference(shape):
    assert shape.flats == _reference_flats(shape.table.int_weights)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 4).flatmap(lambda rank: st.lists(
    st.lists(st.integers(-3, 3), min_size=rank, max_size=rank), min_size=1, max_size=7)),
    st.sampled_from(["cotangent", "raw"]))
def test_the_kept_flats_are_the_full_walks_on_random_tori(weights, mode):
    ws = weight_system([[str(a) for a in w] for w in weights], mode)
    _check_against_reference(shape_of(ws, torus(ws.rank)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_kept_flats_are_the_full_walks_on_gl_presets(n):
    p = cherednik_preset(n)
    shape = shape_of(p.weights, p.group)
    _check_against_reference(shape)
    assert len(shape.flats) == BELL[n + 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_kept_flats_are_the_full_walks_on_lambda2(n):
    _check_against_reference(shape_of(_lambda2(n), gl(n)))


def test_one_basis_extension_per_flat(monkeypatch):
    # a cover met again through another flat, or through another residual
    # group, is known by its lines before any basis is extended
    calls = []

    def counted(*args):
        calls.append(args)
        return span_extend(*args)

    monkeypatch.setattr(knx.strata, "span_extend", counted)
    for ws, group in ((_lambda2(5), gl(5)), (cherednik_preset(4).weights, gl(4))):
        calls.clear()
        flats = knx.strata._flats(shape_of(ws, group).table.int_weights)
        assert len(calls) == len(flats) - 1  # every flat but {0} extends one basis


def test_flat_counts_of_gl6_and_lambda2_c6():
    # the gl(n) preset's weights are the edges of the complete graph on
    # n + 1 vertices: its flats are the partitions of the vertices
    p = cherednik_preset(6)
    assert len(shape_of(p.weights, p.group).flats) == BELL[7]
    assert len(shape_of(_lambda2(6), gl(6)).flats) == 2165


class _Counted:
    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(knx.strata, "rref_sorted", self)

    def __call__(self, bases):
        self.calls += 1
        return rref_sorted(bases)


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_an_oracle_after_a_check_reads_the_flats_the_check_enumerated(tmp_path, capsys, monkeypatch):
    problem = tmp_path / "torus.json"
    problem.write_text(json.dumps({
        "knx_version": 1, "group": {"type": "torus", "rank": 2},
        "weights": [["1", "0"], ["1", "1"], ["-1", "2"], ["2", "1"]],
        "chi": ["1", "-1"], "c": {"base": ["1/2", "0"]},
    }))
    oracle = ("oracle", problem, "--samples", "0", "--json")
    clear_caches()
    cold = _run(capsys, *oracle)
    clear_caches()
    counted = _Counted(monkeypatch)
    assert _run(capsys, "check", problem)[0] in (0, 1)
    assert counted.calls > 0  # the check's walk enumerated the flats
    counted.calls = 0
    assert _run(capsys, *oracle) == cold
    assert counted.calls == 0


def test_a_second_chi_ray_reads_the_kept_flats(monkeypatch):
    # Lambda^2 C^5 + C^5 is not graphic: every walk of it is a full walk;
    # its 30 distinct weights are over the default cap
    ws, group = _lambda2(5), gl(5)
    cap = 30 + 1
    up, down = (TorusCharacter(tuple(F(s) for _ in range(5))) for s in (1, -1))
    clear_caches()
    cold = enumerate_kn(ws, down, group, "positive", cap)
    clear_caches()
    counted = _Counted(monkeypatch)
    enumerate_kn(ws, up, group, "positive", cap)
    assert counted.calls > 0
    counted.calls = 0
    assert enumerate_kn(ws, down, group, "positive", cap) == cold
    assert counted.calls == 0


def test_the_flats_outlive_no_record():
    # the record alone holds its flats, and once 8 other shapes have pushed
    # it out, no cache keeps it alive; a tuple takes no weak reference, so
    # the flats' referrers are checked and the record's weak reference
    clear_caches()
    ws, group = _lambda2(3), gl(3)
    enumerate_kn(ws, TorusCharacter((F(1),) * 3), group)
    shape = shape_of(ws, group)
    referrers = [r for r in gc.get_referrers(shape.flats) if not isinstance(r, FrameType)]
    assert len(referrers) == 1 and referrers[0] is vars(shape)
    record = weakref.ref(shape)
    del shape, referrers
    for k in range(1, 9):
        shape_of(weight_system([[str(k)]]), gl(1))
    gc.collect()
    assert record() is None
