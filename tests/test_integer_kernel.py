"""The integer strata kernel against a reference copy of the Fraction one.

The reference below is the span walk and cone projection as they were
before the kernel moved to integers: RREF bases over Fraction, a Fraction
Gram table, and the Lawson-Hanson solve and certificate over Fraction,
with its passive solves by the Gauss-Jordan reference of ``test_linalg``.
Both must yield the same flats in the same order, with the same members,
direction, projection, coefficients and pairings; the integer kernel
builds the Fraction fields of its projections from their integer
certificates.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from knx.convex import cone_support, gram_table
from knx.engine import cherednik_preset
from knx.errors import InternalInconsistency
from knx.groups import TorusCharacter, group_data, torus
from knx.oracle import random_problem
from knx.scalars import vec_scale, vec_zero, vector
from knx.strata import WeightSystem, span_candidates, weight_system

from test_linalg import ref_rank, ref_solve
from vectors import is_zero_vector, vec_add, vec_sub

# -- reference: the Fraction kernel -----------------------------------------


def _pivot(row):
    return next((j for j, x in enumerate(row) if x != 0), None)


def _ref_reduce(basis, v):
    vec = list(v)
    for row in basis:
        p = _pivot(row)
        if p is not None and vec[p] != 0:
            f = vec[p]
            vec = [a - f * b for a, b in zip(vec, row)]
    return vec


def _ref_span_extend(basis, v):
    vec = _ref_reduce(basis, v)
    p = _pivot(vec)
    if p is None:
        return basis
    inv = 1 / vec[p]
    vec = [x * inv for x in vec]
    new = basis + [vec]
    for row in new[:-1]:
        if row[p] != 0:
            f = row[p]
            row[:] = [a - f * b for a, b in zip(row, vec)]
    new.sort(key=_pivot)
    return new


def _ref_span_contains(basis, v):
    return all(x == 0 for x in _ref_reduce(basis, v))


def _ref_span_key(basis):
    return tuple(tuple(row) for row in basis)


def _ref_min_norm_point(weights, chi, q, members):
    gram = [[q.apply(weights[i], weights[j]) for j in members] for i in members]
    rhs = [q.apply(weights[i], chi) for i in members]
    coeffs = [F(0)] * len(members)
    passive = []
    dual = list(rhs)
    while True:
        entering = [k for k in range(len(members)) if k not in passive and dual[k] > 0]
        if not entering:
            break
        passive.append(max(entering, key=lambda k: dual[k]))
        while True:
            z = ref_solve([[gram[i][j] for j in passive] for i in passive],
                          [rhs[i] for i in passive])
            if all(x > 0 for x in z):
                for k, x in zip(passive, z):
                    coeffs[k] = x
                break
            step = min(coeffs[k] / (coeffs[k] - x) for k, x in zip(passive, z) if x <= 0)
            for k, x in zip(passive, z):
                coeffs[k] += step * (x - coeffs[k])
            passive = [k for k in passive if coeffs[k] > 0]
        dual = [rhs[i] - sum(gram[i][k] * coeffs[k] for k in passive)
                for i in range(len(members))]
    p = vec_zero(len(chi))
    for i, c in zip(members, coeffs):
        p = vec_add(p, vec_scale(c, weights[i]))
    v = vec_sub(chi, p)
    pairings = tuple(q.apply(weights[i], v) for i in members)
    if any(c < 0 for c in coeffs) or any(s > 0 for s in pairings) or q.apply(p, v) != 0:
        raise InternalInconsistency("reference certificate failed")
    return v, p, tuple(members), tuple(coeffs), pairings


def _fraction_fields(proj):
    return proj.direction, proj.projection, proj.members, proj.coefficients, proj.pairings


def _ref_span_candidates(ws, chi, group):
    distinct = sorted(set(ws.stratify_weights))
    nonzero = [w for w in distinct if not is_zero_vector(w)]
    spans = {_ref_span_key([]): []}
    level = [_ref_span_key([])]
    while level:
        nxt = []
        for key in level:
            basis = spans[key]
            members = []
            for i, w in enumerate(nonzero):
                if _ref_span_contains(basis, w):
                    members.append(i)
                    continue
                bigger = _ref_span_extend([list(r) for r in basis], w)
                bigger_key = _ref_span_key(bigger)
                if bigger_key not in spans:
                    spans[bigger_key] = bigger
                    nxt.append(bigger_key)
            yield nonzero, _ref_min_norm_point(nonzero, chi.vec, group.form, members)
        level = sorted(nxt)


# -- the comparison ----------------------------------------------------------

_positive = st.builds(F, st.integers(1, 6), st.sampled_from([1, 2, 3, 4, 5]))


@st.composite
def _rational_random_problems(draw):
    # a random torus problem, each weight and chi rescaled by its own
    # positive rational and the identity form replaced by a diagonal one;
    # raw mode too, since in cotangent mode every flat holds -w with w and
    # so every pairing q(w, v) is 0
    p = draw(st.builds(random_problem, st.integers(1, 4), st.integers(1, 8),
                       st.integers(0, 10**6)))
    rank = p.weights.rank
    weights = tuple(vec_scale(draw(_positive), w) for w in p.weights.w_weights)
    diagonal = draw(st.lists(_positive, min_size=rank, max_size=rank))
    form = [[d if i == j else 0 for j in range(rank)] for i, d in enumerate(diagonal)]
    return (WeightSystem(weights, draw(st.sampled_from(["cotangent", "raw"]))),
            TorusCharacter(vec_scale(draw(_positive), p.chi.vec)),
            group_data(rank, [], [], form))


def _cherednik(n):
    p = cherednik_preset(n)
    return p.weights, p.chi, p.group


def _raw(rank, count, seed):
    # raw random problems whose cone solves step back three times from a
    # coefficient that turned nonpositive
    p = random_problem(rank, count, seed)
    return WeightSystem(p.weights.w_weights, "raw"), p.chi, p.group


@settings(max_examples=40, deadline=None, database=None)
@given(_rational_random_problems())
@example(_cherednik(2))
@example(_cherednik(3))
@example(_cherednik(4))
@example(_raw(3, 6, 55))
@example(_raw(3, 6, 159))
# parallel raw weights: the walk tests one direction per line, the
# reference every weight
@example((weight_system([["1", "0"], ["2", "0"], ["-1", "0"], ["0", "3"], ["1", "1"]], "raw"),
          TorusCharacter(vector(["1", "-2"])), torus(2)))
@example((weight_system([["1", "0"], ["2", "0"], ["-1", "0"], ["0", "3"], ["1", "1"]], "cotangent"),
          TorusCharacter(vector(["-1", "1"])), torus(2)))
def test_integer_kernel_matches_the_fraction_reference(problem):
    ws, chi, group = problem
    got = list(span_candidates(ws, chi, group))
    expected = list(_ref_span_candidates(ws, chi, group))
    assert [_fraction_fields(proj) for _, proj in got] == [proj for _, proj in expected]
    for (table, _), (weights, _) in zip(got, expected):
        assert table.weights == tuple(weights)


@settings(max_examples=40, deadline=None, database=None)
@given(_rational_random_problems())
@example(_cherednik(2))
@example(_cherednik(3))
@example(_cherednik(4))
def test_defining_support_is_an_independent_face_set_carrying_the_projection(problem):
    # the members with coefficient c_i > 0 are independent, lie in the face
    # {w : q(w, v) = 0} and sum to p as sum c_i w_i
    ws, chi, group = problem
    for table, proj in span_candidates(ws, chi, group):
        support = cone_support(proj, table)
        coefficient = dict(zip(proj.members, proj.coefficients))
        assert ref_rank([table.weights[i] for i in support]) == len(support)
        p = vec_zero(ws.rank)
        for i in support:
            assert coefficient[i] > 0
            assert group.form.apply(table.weights[i], proj.direction) == 0
            p = vec_add(p, vec_scale(coefficient[i], table.weights[i]))
        assert p == proj.projection


@settings(max_examples=40, deadline=None, database=None)
@given(_rational_random_problems())
@example(_cherednik(3))
def test_the_shared_table_is_the_table_of_its_fraction_weights(problem):
    # the shared table of span_candidates is the table gram_table builds
    # from its distinct nonzero Fraction weights: the same scale, the same
    # integers and the same pairings
    ws, chi, group = problem
    table, _ = next(span_candidates(ws, chi, group))
    assert table == gram_table(table.weights, chi.vec, group.form)
