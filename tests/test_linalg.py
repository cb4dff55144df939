"""``matrix_rank`` and ``solve_exact`` against a Fraction Gauss-Jordan reference.

``solve_exact`` answers in integers, x = nums/den with den > 0, and the
comparison converts that answer to Fractions.

The reference below is plain Gauss-Jordan elimination over Fraction, kept
here so that it stays independent of the integer kernel under test; the
reference cone projection in ``test_integer_kernel`` solves with it too.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from knx.linalg import matrix_rank, solve_exact

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
def _systems(draw):
    # up to 5x6, each row free, a rational combination of the rows above
    # it, or zero; the right-hand side is either A x0 for a random x0
    # (consistent, with free variables when the rank is short) or random
    # (mostly inconsistent when the rows are dependent)
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
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
@example(([[F(0), F(0)]], [F(1)]))
@example(([[F(1, 2), F(1)], [F(1), F(2)]], [F(1), F(3)]))
@example(([[F(1, 2), F(1)], [F(1), F(2)]], [F(1), F(2)]))
def test_rank_and_solve_match_the_fraction_reference(system):
    rows, rhs = system
    assert matrix_rank(rows) == ref_rank(rows)
    got, ref = solve_exact(rows, rhs), ref_solve(rows, rhs)
    if ref is None:
        assert got is None
        return
    den, nums = got
    assert type(den) is int and den > 0
    assert all(type(n) is int for n in nums)
    x = [F(n, den) for n in nums]
    assert x == ref
    assert [sum(a * xj for a, xj in zip(row, x)) for row in rows] == rhs


def test_solutions_are_integers_over_one_positive_denominator():
    assert solve_exact([[2, 1], [1, 1]], [3, 2]) == (1, (1, 1))
    # x = (1/2, 1/3): den is the lcm of the pivots 2 and 3
    assert solve_exact([[2, 0], [0, 3]], [1, 1]) == (6, (3, 2))
    assert solve_exact([[F(-1, 2), 0], [0, F(1, 3)]], [1, 1]) == (1, (-2, 3))
    assert solve_exact([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_exact([[0, 0]], [1]) is None
    # x2 is free and set to 0, also on a singular square system
    assert solve_exact([[1, 1], [2, 2]], [1, 2]) == (1, (1, 0))
    assert solve_exact([[0, 2, 4], [0, 1, 2]], [2, 1]) == (1, (0, 1, 0))
    assert solve_exact([], []) == (1, ())
    assert matrix_rank([[1, 2, 3], [2, 4, 6], [0, 0, 0]]) == 1
    assert matrix_rank([[0, 1], [1, 0]]) == 2
