import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knx.cli import main
from knx.errors import SchemaError
from knx.problemfile import parse_problem

# JSON-like values: anything json.load can return
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
@st.composite
def _mostly(draw, valid, other=_json, odds=8):
    """valid, except once in odds draws other"""
    return draw(other) if draw(st.integers(1, odds)) == odds else draw(valid)


_rationals = _mostly(
    st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "+5", " 7 ", "0/3"]),
    st.sampled_from(["1/0", "1/-2", "1.5", "1e3", "", "x", "--1", "½", "١/٢", "1/2/3", "9" * 5000])
    | _json,
    odds=32,
)


def _vectors(rank):
    """Vectors of the claimed rank, constant ones among them (a gl(n)
    character is constant); now and then a ragged one or a non-vector."""
    return _mostly(
        st.lists(_rationals, min_size=rank, max_size=rank) | _rationals.map(lambda x: [x] * rank),
        st.lists(_rationals, max_size=rank + 1) | _json,
    )


def _a_roots(rank):
    """e_i - e_j: the roots of gl(rank), with its simple roots."""
    def root(i, j):
        return ["1" if k == i else "-1" if k == j else "0" for k in range(rank)]
    roots = [root(i, j) for i in range(rank) for j in range(rank) if i != j]
    return roots, [root(i, i + 1) for i in range(rank - 1)]


@st.composite
def _groups(draw, depth=0):
    """A group claim and the rank it claims (1 where it claims none)."""
    kinds = ["gl", "sl", "torus", "custom", "bogus"] + ["product"] * (depth < 2)
    kind = draw(st.sampled_from(kinds))
    size = draw(_mostly(st.integers(1, 4), st.integers(-1, 0) | _json))
    rank = size if size in range(1, 5) and not isinstance(size, bool) else 1
    if kind in ("gl", "sl"):
        group = {"type": kind, "n": size}
    elif kind == "torus":
        group = {"type": kind, "rank": size}
    elif kind == "product":
        factors = draw(st.lists(_groups(depth + 1), min_size=1, max_size=3))
        group = {"type": kind, "factors": draw(_mostly(st.just([f for f, _ in factors])))}
        rank = sum(r for _, r in factors) or 1
    elif kind == "custom":
        group = {"type": kind, "rank": size}
        roots, simple = _a_roots(rank)
        if draw(st.booleans()):
            group["roots"] = draw(_mostly(st.just(roots) | st.lists(_vectors(rank), max_size=4)))
        if draw(st.booleans()):
            group["simple_roots"] = draw(_mostly(st.just(simple) | st.lists(_vectors(rank), max_size=3)))
        if draw(st.booleans()):
            identity = [["1" if i == j else "0" for j in range(rank)] for i in range(rank)]
            group["form"] = draw(_mostly(st.just(identity) | st.lists(_vectors(rank), max_size=rank + 1)))
        if draw(st.booleans()):
            group["label"] = draw(_json)
    else:
        group = {"type": draw(_json)}
    if draw(st.integers(1, 10)) == 10:
        group[draw(st.text(max_size=4))] = draw(_json)
    return group, rank


@st.composite
def _problems(draw):
    if draw(st.integers(1, 10)) == 10:
        return draw(_json)
    group, rank = draw(_groups())
    problem = {
        "knx_version": 1,
        "group": group,
        "weights": draw(_mostly(st.lists(_vectors(rank), min_size=1, max_size=4))),
        "chi": draw(_vectors(rank)),
    }
    optional = {
        "mode": _mostly(st.sampled_from(["cotangent", "raw"])),
        "c": _mostly(st.fixed_dictionaries(
            {"base": _vectors(rank)}, optional={"direction": _vectors(rank) | st.none()}
        )),
        "orientation": _mostly(st.sampled_from(["negative", "positive", "both"])),
        "strictness": _mostly(st.sampled_from(["slice", "full_V"])),
        "drop_strata": _mostly(st.lists(_vectors(rank), max_size=2)),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            problem[key] = draw(values)
    # remove or replace at most one top-level key, or add an unknown one
    for key in draw(st.sets(st.sampled_from(sorted(problem) + ["extra"]), max_size=1)):
        if draw(st.booleans()):
            problem.pop(key, None)
        else:
            problem[key] = draw(_json)
    return problem


@settings(max_examples=600, deadline=None, database=None)
@given(_problems())
@example({"knx_version": 1, "group": {"type": "torus", "rank": 1},
          "weights": [["1"]], "chi": ["1" * 5000]})  # more digits than int() converts
def test_parse_problem_raises_only_schema_errors(data):
    try:
        parse_problem(data)
    except SchemaError:
        pass


def test_knx_version_must_be_the_integer_one(tmp_path, capsys):
    problem = {"knx_version": 1, "group": {"type": "torus", "rank": 1},
               "weights": [["1"]], "chi": ["1"]}
    path = tmp_path / "version.json"
    for version in (True, 1.0):
        problem["knx_version"] = version
        with pytest.raises(SchemaError, match='unsupported "knx_version"'):
            parse_problem(problem)
        path.write_text(json.dumps(problem))
        assert main(["strata", str(path)]) == 2
        assert 'unsupported "knx_version" (must be 1)' in capsys.readouterr().err


def test_products_nested_deeper_than_the_stack_are_schema_errors():
    group = {"type": "torus", "rank": 1}
    for _ in range(5000):
        group = {"type": "product", "factors": [group]}
    with pytest.raises(SchemaError, match="nesting"):
        parse_problem({"knx_version": 1, "group": group, "weights": [["1"]], "chi": ["0"]})


def test_drop_strata_entries_are_length_checked():
    problem = {"knx_version": 1, "group": {"type": "gl", "n": 2},
               "weights": [["1", "0"], ["0", "1"]], "chi": ["1", "1"],
               "drop_strata": [["1", "0"], ["1"]]}
    with pytest.raises(SchemaError, match="drop_strata entry length does not match rank"):
        parse_problem(problem)


def test_a_custom_label_must_be_a_string(tmp_path, capsys):
    # the label reaches the report's provenance verbatim, so a float inside
    # it would be the only float in a report
    group = {"type": "custom", "rank": 1, "label": {"a": [1, 2.5]}}
    problem = {"knx_version": 1, "group": group, "weights": [["1"]], "chi": ["1"]}
    with pytest.raises(SchemaError, match="label must be a string"):
        parse_problem(problem)
    path = tmp_path / "label.json"
    path.write_text(json.dumps(problem))
    assert main(["strata", str(path)]) == 2
    assert "label must be a string" in capsys.readouterr().err
    group["label"] = "T1"
    assert parse_problem(problem).group.label == "T1"
