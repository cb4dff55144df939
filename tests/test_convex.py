import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knx.strata
from knx.convex import ConeProjection, cone_support, gram_table, min_norm_point
from knx.errors import CapExceeded, InternalInconsistency
from knx.groups import TorusCharacter, torus
from knx.oracle import numeric_min_norm
from knx.scalars import GramForm, vec_scale, vec_zero, vector
from knx.strata import span_candidates, weight_system
from vectors import vec_add, vec_sub

Q2 = GramForm.identity(2)
EPS0 = F(-1, 2**20)


def _project(weights, chi, q=Q2):
    weights = [vector(w) for w in weights]
    return min_norm_point(gram_table(weights, vector(chi), q), range(len(weights)))


def _oracle_direction(weights, chi, q):
    # closest point of conv{0, w_i} + eps0*chi by exhaustive search, over eps0
    vertices = [vec_zero(len(chi))] + list(weights)
    ((nums, den),) = numeric_min_norm(vertices, [vec_scale(EPS0, chi)], q)
    return tuple(F(a, den) / EPS0 for a in nums)


def _assert_kkt(weights, chi, proj, q):
    p = vec_zero(len(chi))
    for c, w in zip(proj.coefficients, weights):
        assert c >= 0
        p = vec_add(p, vec_scale(c, w))
    v = vec_sub(chi, p)
    assert proj.direction == v and proj.projection == p
    assert all(q.apply(w, v) <= 0 for w in weights)
    assert q.apply(p, v) == 0


def test_min_norm_singleton():
    # the origin alone: the closest point of {eps*chi} is eps*chi
    proj = _project([], ["0", "1"])
    assert proj.direction == vector(["0", "1"])
    assert proj.coefficients == ()


def test_min_norm_perturbed_segment():
    # segment {eps*(0,1), (1,1)+eps*(0,1)}: the 1-d calculus oracle gives
    # the foot at parameter t* = -eps/2, i.e. the point eps*(-1/2, 1/2)
    proj = _project([["1", "1"]], ["0", "1"])
    assert proj.direction == vector(["-1/2", "1/2"])
    assert proj.coefficients == (F(1, 2),)


def test_min_norm_symmetric_pair():
    proj = _project([["1", "0"], ["-1", "0"]], ["0", "1"])
    assert proj.direction == vector(["0", "1"])
    assert proj.coefficients == (0, 0)


def test_min_norm_coefficients_reconstruct_point():
    weights = [vector(w) for w in (["1", "0"], ["1", "1"], ["-1", "2"])]
    chi = vector(["1", "3"])
    proj = _project(weights, chi)
    _assert_kkt(weights, chi, proj, Q2)
    assert proj.direction == vector(["0", "0"])  # chi lies inside the cone


def test_min_norm_point_lies_in_hull_and_is_optimal():
    # p lies in the cone and no other cone point on a grid is closer to chi
    rng = random.Random(5)
    grid = [F(k, 2) for k in range(5)]
    for _ in range(60):
        weights = [vector([rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(rng.randint(1, 3))]
        chi = vector([rng.randint(-3, 3), rng.randint(-3, 3)])
        proj = _project(weights, chi)
        _assert_kkt(weights, chi, proj, Q2)
        best = Q2.norm2(proj.direction)
        for a in grid:
            for b in grid:
                y = vec_add(vec_scale(a, weights[0]), vec_scale(b, weights[-1]))
                assert Q2.norm2(vec_sub(chi, y)) >= best


def test_min_norm_agrees_with_bruteforce_oracle():
    rng = random.Random(2024)
    forms = {1: [GramForm.identity(1)], 2: [Q2, GramForm.from_rows([["2", "1"], ["1", "3"]])],
             3: [GramForm.identity(3)]}
    for trial in range(200):
        rank = rng.randint(1, 3)
        q = rng.choice(forms[rank])
        n = rng.randint(1, 7)
        weights = [
            vector([F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(rank)])
            for _ in range(n)
        ]
        weights = [w for w in dict.fromkeys(weights) if any(w)]
        chi = vector([rng.randint(-3, 3) for _ in range(rank)])
        proj = _project(weights, chi, q)
        assert proj.direction == _oracle_direction(weights, chi, q), trial


_entries = st.integers(-3, 3)


@st.composite
def _cone_problems(draw):
    rank = draw(st.integers(1, 3))
    vec = st.tuples(*[_entries] * rank).map(vector)
    weights = draw(st.lists(vec.filter(any), max_size=5, unique=True))
    return weights, draw(vec)


@settings(max_examples=150, deadline=None, database=None)
@given(_cone_problems())
def test_cone_projection_certificate_and_oracle(problem):
    weights, chi = problem
    q = GramForm.identity(len(chi))
    proj = _project(weights, chi, q)
    _assert_kkt(weights, chi, proj, q)
    assert proj.direction == _oracle_direction(weights, chi, q)


def test_cone_support_rejects_a_dependent_passive_set():
    # a forged projection whose positive members w and 2w are dependent
    w = vector(["1", "1"])
    table = gram_table([w, vec_scale(F(2), w)], vector(["3", "3"]), Q2)
    forged = ConeProjection(
        members=(0, 1),
        int_direction=(0, 0),
        int_projection=(3, 3),
        int_coefficients=(1, 1),
        int_pairings=(0, 0),
        scale=1,
        weight_scale=table.weight_scale,
        form_scale=table.form_scale,
    )
    assert forged.projection == vector(["3", "3"]) and forged.coefficients == (F(1), F(1))
    with pytest.raises(InternalInconsistency):
        cone_support(forged, table)


def test_vertex_cap(monkeypatch):
    # the cap fails before any pairing is computed
    def no_pairing(*args):
        raise AssertionError("pairing computed before the cap check")

    monkeypatch.setattr(GramForm, "apply", no_pairing)
    monkeypatch.setattr(knx.strata, "weight_table", no_pairing)
    monkeypatch.setattr(knx.strata, "with_chi", no_pairing)
    ws = weight_system([[str(i), "0"] for i in range(5)], "raw")
    chi = TorusCharacter(vector(["0", "1"]))
    with pytest.raises(CapExceeded):
        next(span_candidates(ws, chi, torus(2), cap=4))
