import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from knx import report
from knx.engine import forbidden
from knx.problemfile import parse_problem


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def assert_same_text(text: str, expected: str) -> None:
    """Exact equality that reports only the first differing offset and a
    short excerpt of each side: pytest's diff of two texts of tens of
    thousands of gaps would run for minutes."""
    if text == expected:
        return
    at = next((i for i, (x, y) in enumerate(zip(text, expected)) if x != y),
              min(len(text), len(expected)))
    window = slice(max(at - 40, 0), at + 40)
    raise AssertionError(f"texts differ at offset {at} (lengths {len(text)} and "
                         f"{len(expected)}): {text[window]!r} != {expected[window]!r}")


_texts = st.text(st.characters(), max_size=8) | st.sampled_from(
    ["", "gaps", 'quote " and \\ backslash', "tab\tnew\nline", "\x00\x1f\x7f", "é", "β≥0", "😀"]
)
_ints = st.integers() | st.integers(-(10**40), 10**40)
_scalars = st.none() | st.booleans() | _ints | st.floats() | _texts
_int_tuples = st.lists(_ints, max_size=12).map(tuple)
_values = st.recursive(
    _scalars | _int_tuples,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_texts, inner, max_size=5),
    max_leaves=40,
)


@st.composite
def _shared_tuple_reports(draw):
    """An int tuple that appears both at depth 2 and inside a deeper list,
    as a forbidden report's loci and union share their gap tuples, and an
    equal but distinct copy at a third depth, as strata with equal
    generators have equal gap tuples."""
    gaps = draw(_int_tuples)
    locus = {"gaps": gaps, "conductor": draw(_ints), "empty": draw(st.booleans())}
    return {
        "loci": [{"locus": locus, "beta": draw(st.lists(_texts, max_size=3))}],
        "union": [{"gaps": gaps}],
        "gaps": gaps,
        "copy": [[{"gaps": tuple(list(gaps))}]],
        "rest": draw(_values),
    }


@settings(max_examples=400, deadline=None, database=None)
@given(_values | _shared_tuple_reports())
@example({})
@example([])
@example(())
@example({"a": (), "b": [], "c": {}, "d": [(), [], {}]})
@example({"gaps": (1, -2, 10**30), "none": None, "t": True, "f": False})
def test_dumps_matches_json_dumps(value):
    assert report._dumps(value) == reference(value)


def test_medium_forbidden_report_matches_json_dumps(monkeypatch):
    # generators {301, 302}/4: the one stratum's locus has 45,150 gaps, and
    # the union repeats its gap tuple one level higher
    problem = parse_problem({
        "knx_version": 1,
        "group": {"type": "torus", "rank": 1},
        "weights": [["301/4"], ["151/2"]],
        "chi": ["1"],
        "c": {"base": ["-7/4"], "direction": ["1"]},
        "orientation": "positive",
    })
    verdict = forbidden(problem)
    dumped, dumps = [], report._dumps

    def spy(obj):
        dumped.append(obj)
        return dumps(obj)

    monkeypatch.setattr(report, "_dumps", spy)
    text = report.forbidden_report(problem, verdict, as_json=True)
    (obj,) = dumped
    assert obj["union"][0]["gaps"] is obj["loci"][0]["locus"]["gaps"]
    assert len(obj["union"][0]["gaps"]) == 45150
    assert_same_text(text, reference(obj))


def test_rank_two_forbidden_report_with_equal_gap_lists_matches_json_dumps(monkeypatch):
    # generators {13, 14}/2 on both axes of a rank-2 torus: the loci of e1
    # and e2 list equal but distinct gap tuples, and the union repeats the
    # gap tuple of the (1, 1) locus, which contains both, one level higher
    problem = parse_problem({
        "knx_version": 1,
        "group": {"type": "torus", "rank": 2},
        "weights": [["13/2", "0"], ["7", "0"], ["0", "13/2"], ["0", "7"]],
        "mode": "cotangent",
        "chi": ["1", "1"],
        "c": {"base": ["-3/2", "-3/2"], "direction": ["1", "1"]},
        "orientation": "positive",
    })
    dumped, dumps = [], report._dumps

    def spy(obj):
        dumped.append(obj)
        return dumps(obj)

    monkeypatch.setattr(report, "_dumps", spy)
    text = report.forbidden_report(problem, forbidden(problem), as_json=True)
    (obj,) = dumped
    gaps = {tuple(entry["beta"]): entry["locus"]["gaps"] for entry in obj["loci"]}
    first, second = gaps["1", "0"], gaps["0", "1"]
    assert first == second and first is not second and len(first) == 78
    assert [d["gaps"] for d in obj["union"]] == [gaps["1", "1"]]
    assert_same_text(text, reference(obj))
