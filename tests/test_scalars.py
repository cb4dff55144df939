from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knx.errors import InvalidParameter
from knx.scalars import GramForm, rat, rat_str, vector


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat("-7") == F(-7)
    assert rat(5) == F(5)
    with pytest.raises(InvalidParameter):
        rat("1.5")
    with pytest.raises(InvalidParameter):
        rat(1.5)
    with pytest.raises(InvalidParameter):
        rat("1/0")
    for bad in ("1/02", "1 /2", "/2", "1/", "1/-2", "1_000", "1e3", ""):
        with pytest.raises(InvalidParameter, match="not a rational string"):
            rat(bad)


def test_rat_takes_ascii_digits_only():
    # int() and Fraction() read the digits of every script: "\u0662" is 2
    # and "1/1\u0661" is 1/11 to them
    for bad in ("\u0662", "1/1\u0661", "\u0661/2", "-\uff13", "\u09e7\u09e6"):
        with pytest.raises(InvalidParameter, match="not a rational string"):
            rat(bad)
    assert rat(" -12/34 ") == F(-6, 17)


@settings(max_examples=300, deadline=None, database=None)
@given(st.from_regex(r"\s*[+-]?[0-9]+(/[1-9][0-9]*)?\s*", fullmatch=True))
def test_rat_agrees_with_the_fraction_parser(text):
    # the match's groups are converted by int(): the same value as
    # Fraction's own parser, for every string the grammar accepts
    assert rat(text) == F(text.strip())


def test_rat_str_roundtrip():
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(-2)) == "-2"
    assert rat(rat_str(F(22, 7))) == F(22, 7)


def test_pair_examples():
    q = GramForm.identity(2)
    assert q.apply(vector(["1", "0"]), vector(["0", "1"])) == 0
    assert q.norm2(vector(["0", "1"])) == 1
    assert q.apply(vector(["1", "1"]), vector(["1", "0"])) == 1

    w = GramForm.from_rows([["2", "1"], ["1", "3"]])
    u, v = vector(["1", "-1"]), vector(["1/2", "2"])
    assert w.apply(u, v) == w.apply(v, u) == F(-7, 2)
    assert w.norm2(u) == 3


def test_gram_form_validation():
    GramForm.from_rows([["1", "0"], ["0", "1"]])
    with pytest.raises(InvalidParameter):
        GramForm.from_rows([["0", "0"], ["0", "0"]])
    with pytest.raises(InvalidParameter):
        GramForm.from_rows([["1", "2"], ["1", "1"]])  # not symmetric
    with pytest.raises(InvalidParameter):
        GramForm.from_rows([["1", "2"], ["2", "1"]])  # indefinite
    with pytest.raises(InvalidParameter):
        GramForm.from_rows([["1", "1"], ["1", "1"]])  # semidefinite: second pivot 0
    # leading minors 1, 1, -3: only the last pivot is negative
    with pytest.raises(InvalidParameter):
        GramForm.from_rows([["1", "0", "2"], ["0", "1", "0"], ["2", "0", "1"]])
    # the A3 Cartan matrix, leading minors 2, 3, 4
    GramForm.from_rows([["2", "-1", "0"], ["-1", "2", "-1"], ["0", "-1", "2"]])


_entries = st.sampled_from([F(0)] * 4 + [F(1), F(-1), F(2), F(1, 3), F(-5, 2)])


@st.composite
def _forms_and_vectors(draw):
    n = draw(st.integers(1, 6))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(_entries)
    vectors = st.lists(_entries, min_size=n, max_size=n).map(tuple)
    return GramForm(tuple(map(tuple, rows))), draw(vectors), draw(vectors)


@settings(max_examples=300, deadline=None, database=None)
@given(_forms_and_vectors())
def test_apply_equals_the_dense_double_sum(case):
    q, u, v = case
    n = q.rank
    dense = sum(u[i] * q.rows[i][j] * v[j] for i in range(n) for j in range(n))
    assert q.apply(u, v) == dense and q.apply(v, u) == dense
    assert sum(a * b for a, b in zip(u, q.covector(v))) == dense
