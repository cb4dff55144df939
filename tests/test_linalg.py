"""``matrix_rank``, ``solve_exact`` and ``rref_sorted`` against Fraction references.

``matrix_rank`` takes any rows of Fractions or ints.  ``solve_exact`` takes
square integer systems only and answers in integers: x = nums/den with
den > 0 and gcd(den, *nums) = 1, or None exactly when the matrix is
singular.  The comparison converts that answer to Fractions.

The reference below is plain Gauss-Jordan elimination over Fraction, kept
here so that it stays independent of the integer kernel under test; the
reference cone projection in ``test_integer_kernel`` solves with it too.
``rref_sorted`` must order canonical bases as their Fraction RREFs do
(``rref_key``, the key the span walk sorted by before it moved to integers).
"""

from fractions import Fraction as F
from math import gcd, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from knx.linalg import matrix_rank, rref_sorted, solve_exact, span_extend

# -- reference: Gauss-Jordan over Fraction -----------------------------------


def ref_rref(rows):
    """Reduced row echelon form of the rows over Fraction, and its pivot columns."""
    mat = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c] != 0:
                f = mat[k][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
    return mat, pivots


def ref_rank(rows):
    return len(ref_rref(rows)[1])


def ref_solve(rows, rhs):
    """x with A x = b and every free variable 0; None if there is none."""
    n = len(rows[0]) if rows else 0
    red, pivots = ref_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return x


# -- the comparison ----------------------------------------------------------

_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _systems(draw, square=False):
    # up to 5x6 (5x5 when square), each row free, a rational combination
    # of the rows above it, or zero; the right-hand side is either A x0 for
    # a random x0 (consistent, with free variables when the rank is short)
    # or random (mostly inconsistent when the rows are dependent)
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(1, 6))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["free", "combination", "zero"]))
        if kind == "combination" and rows:
            cs = draw(st.lists(_rationals, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * row[j] for c, row in zip(cs, rows)), F(0)) for j in range(n)])
        elif kind == "zero":
            rows.append([F(0)] * n)
        else:
            rows.append(draw(st.lists(_rationals, min_size=n, max_size=n)))
    if draw(st.booleans()):
        x0 = draw(st.lists(_rationals, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(row, x0)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(_rationals, min_size=m, max_size=m))
    return rows, rhs


@settings(max_examples=300, deadline=None, database=None)
@given(_systems())
@example(([], []))
@example(([[F(0), F(0)]], [F(0)]))
@example(([[F(1, 2), F(1)], [F(1), F(2)]], [F(1), F(3)]))
def test_rank_matches_the_fraction_reference(system):
    rows, _ = system
    assert matrix_rank(rows) == ref_rank(rows)


def _cleared(system):
    # one common factor of every row and the right-hand side clears them
    # to integers and leaves the solution unchanged
    rows, rhs = system
    d = lcm(1, *(x.denominator for x in [*rhs, *(a for row in rows for a in row)]))
    return [[int(a * d) for a in row] for row in rows], [int(b * d) for b in rhs]


def _check_solve(rows, rhs):
    got = solve_exact(rows, rhs)
    if ref_rank(rows) < len(rows):
        assert got is None
        return
    den, nums = got
    assert type(den) is int and den > 0
    assert all(type(n) is int for n in nums)
    assert gcd(den, *nums) == 1
    x = [F(n, den) for n in nums]
    assert x == ref_solve(rows, rhs)
    assert [sum(a * xj for a, xj in zip(row, x)) for row in rows] == rhs


@settings(max_examples=300, deadline=None, database=None)
@given(_systems(square=True).map(_cleared))
@example(([], []))
@example(([[0, 0], [0, 0]], [0, 0]))
@example(([[1, 2], [2, 4]], [1, 2]))
@example(([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [1, 2, 3]))
def test_square_solve_matches_the_fraction_reference(system):
    _check_solve(*system)


def test_solutions_are_integers_over_one_positive_denominator():
    assert solve_exact([[2, 1], [1, 1]], [3, 2]) == (1, (1, 1))
    # x = (1/2, 1/3), in lowest terms over one denominator
    assert solve_exact([[2, 0], [0, 3]], [1, 1]) == (6, (3, 2))
    assert solve_exact([[4, 0], [0, 2]], [2, 1]) == (2, (1, 1))
    # a zero leading entry needs a row swap
    assert solve_exact([[0, 1], [1, 0]], [5, 7]) == (1, (7, 5))
    # det = -2: den stays positive, x = (-2, 3/2)
    assert solve_exact([[1, 2], [3, 4]], [1, 0]) == (2, (-4, 3))
    # singular, consistent or not
    assert solve_exact([[1, 1], [2, 2]], [1, 2]) is None
    assert solve_exact([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_exact([[0]], [0]) is None
    assert solve_exact([], []) == (1, ())
    assert matrix_rank([[1, 2, 3], [2, 4, 6], [0, 0, 0]]) == 1
    assert matrix_rank([[0, 1], [1, 0]]) == 2


def test_entries_near_two_to_the_thousand():
    big = 2**1000
    _check_solve([[big, 1], [1, big + 1]], [big - 1, 3])
    _check_solve([[0, big, 3], [big + 7, -1, 0], [2, 5, -big]], [1, -big, big**2])
    assert solve_exact([[big, big + 1], [2 * big, 2 * big + 2]], [1, 2]) is None
    den, nums = solve_exact([[big]], [1])
    assert (den, nums) == (big, (1,))


def rref_key(basis):
    """The reduced row echelon form of a canonical integer basis over Fraction."""
    return tuple(tuple(F(a, next(x for x in row if x)) for a in row) for row in basis)


@st.composite
def _levels(draw):
    # canonical bases of one rank, built by extending by random integer
    # vectors that mostly share one small pool, so that pivots and entries
    # repeat across bases
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(1, n))
    vectors = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    pool = draw(st.lists(vectors, min_size=rank, max_size=rank + 3))
    bases = set()
    for _ in range(draw(st.integers(1, 8))):
        basis = ()
        for v in draw(st.permutations(pool)) + draw(st.lists(vectors, max_size=2)):
            if len(basis) < rank:
                basis = span_extend(basis, v)
        if len(basis) == rank:
            bases.add(basis)
    return list(bases)


@settings(max_examples=300, deadline=None, database=None)
@given(_levels())
@example([((1, 0), (0, 1))])
@example([((2, 1),), ((1, 1),), ((1, 0),), ((0, 1),), ((3, -1),)])
@example([((1, 0, 1), (0, 2, 1)), ((1, 0, 0), (0, 3, 1)), ((1, 0, 2), (0, 3, 1))])
def test_level_order_is_the_fraction_rref_order(bases):
    assert rref_sorted(bases) == sorted(bases, key=rref_key)
    assert rref_sorted(list(reversed(bases))) == rref_sorted(bases)
