"""Independent concrete-epsilon oracle for the symbolic enumeration.

The oracle substitutes concrete small negative rationals eps0 for epsilon
and re-solves every flat's perturbed hull conv{0, w_i} + eps0*chi with
exhaustive support enumeration and a global minimum: exact arithmetic
throughout, no early exit, and no use of the cone projection it checks.
One search per flat serves every eps0: eps0*chi translates the hull, and
the supports' Gram minors depend on vertex differences only, so each
minor is eliminated once, a row per vertex along depth-first chains of
supports, and the translations enter the right-hand sides alone (see
``numeric_min_norm``).  With the certificate path the oracle shares the
flats, ``matrix_rank`` and ``solve_exact`` only.
The closest point must equal eps0*v for the certified direction v.  The
search returns it as integers over one denominator, and the comparison
with the integer direction V = scale*v is made crosswise; Fractions are
built only for a mismatch message and the reported directions.  This
per-flat equality is the whole comparison: the strata are the Weyl classes
of the directions of these same flats, so a set-level re-check could only
fail after some flat had already disagreed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .convex import DEFAULT_VERTEX_CAP
from .engine import ExactnessProblem
from .errors import CapExceeded, InternalInconsistency, InvalidParameter
from .groups import GroupData, LieCharacter, TorusCharacter, torus
from .linalg import IntVector, clear_denominators, dot, matrix_rank, solve_exact
from .scalars import GramForm, Vector, vec_scale, vec_zero
from .strata import WeightSystem, span_candidates

DEFAULT_EPSILONS = (Fraction(-1, 2**20), Fraction(-1, 2**24))


@dataclass(frozen=True)
class OracleConfig:
    epsilon_values: tuple[Fraction, ...] = DEFAULT_EPSILONS
    sample_count: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if len(self.epsilon_values) < 2:
            raise InvalidParameter("need at least two epsilon values for stability")
        if any(e >= 0 for e in self.epsilon_values):
            raise InvalidParameter("epsilon values must be negative")


def numeric_min_norm(
    vertices: Sequence[Vector],
    shifts: Sequence[Vector],
    q: GramForm,
    cap: int = DEFAULT_VERTEX_CAP,
) -> list[tuple[IntVector, int]]:
    """Exact closest point to the origin of conv(vertices) + t, for each
    translation t in ``shifts``, by full support enumeration.  Each point
    is (nums, den), the point nums/den with den > 0 in lowest terms.

    Every affinely independent support of at most r + 1 vertices is tested
    at every t, r the affine rank of the vertices; feasible candidates are
    compared and the global q-norm minimum returned.  Deliberately no early
    exit: this is the independent check of the certificate path.

    The vertices V, the translations t and the form are cleared to
    integers on separate scales, and the Gram table Q(V_a, V_b) is built
    once.  A support with base i, its smallest index, is solved by the
    normal equations M x = r with M_ab = Q(V_a - V_i, V_b - V_i), which
    holds no t, and r_a = -Q(V_a - V_i, V_i + t): t enters the right-hand
    sides only.  The supports of one base are walked depth-first as
    chains of increasing indices, by a fraction-free elimination of their
    minors (Bareiss 1968).  A chain hands each later vertex down with its
    row and right-hand sides eliminated by every chain row, so appending
    the vertex costs the one step of the chain's last row, and its last
    entry is the pivot of the longer chain.  No row exchange is needed,
    since the leading minors of a Gram matrix under a positive definite q
    are positive for an affinely independent chain and 0 for a dependent
    one.  A zero pivot therefore drops the vertex from the chain and from
    every longer one.  A candidate is feasible when x >= 0 and
    sum(x) <= 1; the back substitution rejects it at its first negative
    coordinate.  At the affine optimum its squared norm minus |t|^2 is
    |V_i + t|^2 - |t|^2 - r.x, compared in integers; the first two terms
    are one constant per base and t.  The winner of each t is solved again
    by ``solve_exact`` on its minor, and the two solutions must agree.
    """
    if len(vertices) > cap:
        raise CapExceeded(f"{len(vertices)} vertices exceed the cap of {cap}")
    sv, pts = clear_denominators(vertices)
    st, ts = clear_denominators(shifts)
    # every preset's form is the identity, whose covectors are the points
    covectors = pts if q.is_identity else [tuple(dot(r, p) for r in q.cleared[1]) for p in pts]
    g = [[dot(c, p) for p in pts] for c in covectors]
    # h[a][s] = Q(V_a, t_s) on the scale of g times st/sv
    h = [[dot(c, t) for t in ts] for c in covectors]
    n, m = len(pts), len(ts)
    # an affinely independent support has at most (affine rank) + 1 points
    affine_rank = matrix_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]])
    # lead[i][s] = |V_i + t_s|^2 - |t_s|^2 times (q, vertex and translation
    # scales): the value of the single vertex i, and the constant term of
    # every support with base i
    lead = [[st * (st * g[i][i] + 2 * sv * x) for x in h[i]] for i in range(n)]
    # per translation: (value num, value den, base, chain, nums); the
    # single vertices first, so that a vertex wins every tie
    best = [min((lead[i][s], 1, i, (), ()) for i in range(n)) for s in range(m)]

    def walk(i, chain, rows, rhs, orig, candidates):
        # rows[j]: the values of chain row j at columns 0..j after j
        # elimination steps, ending with its pivot; by symmetry, row j's
        # column l > j is rows[l][j].  rhs[j]: its right-hand sides after j
        # steps; orig[j]: before any.  candidates: (b, row, r, o) per vertex
        # b after the chain and affinely independent of it, with its row
        # and right-hand sides r after k steps, so that row[k] is the pivot
        # of chain + (b,), and o before any
        k = len(chain)
        gi, gii, li = g[i], g[i][i], lead[i]
        # the pivot before step j is piv[j], 1 before the first
        piv = [1] + [row[j] for j, row in enumerate(rows)]
        for c, (b, row, r, o) in enumerate(candidates):
            pivot = row[k]
            ext_chain, ext_rows = chain + (b,), rows + (row,)
            ext_rhs, ext_orig = rhs + (r,), orig + (o,)
            den = pivot * st
            for s in range(m):
                # pivot * x by back substitution, up to a negative entry
                x = r[s]
                nums = [0] * k + [x]
                a = k
                while x >= 0 and a:
                    a -= 1
                    acc = pivot * ext_rhs[a][s]
                    for l in range(a + 1, k + 1):
                        acc -= ext_rows[l][a] * nums[l]
                    nums[a] = x = acc // ext_rows[a][a]
                if x < 0 or sum(nums) > den:
                    continue
                value = pivot * li[s]
                for r0, y in zip(ext_orig, nums):
                    value -= r0[s] * y
                held = best[s]
                if value * held[1] < held[0] * pivot:
                    best[s] = (value, pivot, i, ext_chain, tuple(nums))
            if k + 1 == affine_rank:
                continue
            # the later candidates one step further, by the row of b; a zero
            # pivot drops a vertex affinely dependent on chain + (b,), and
            # with it every superset
            prev = piv[k]
            kids = []
            for b2, row2, r2, o2 in candidates[c + 1:]:
                gb2 = g[b2]
                val = gb2[b] - gb2[i] - gi[b] + gii
                for j in range(k):
                    val = (piv[j + 1] * val - row2[j] * row[j]) // piv[j]
                diag = (pivot * row2[k] - val * val) // prev
                if diag:
                    kids.append((b2, row2[:k] + [val, diag],
                                 [(pivot * x - val * y) // prev for x, y in zip(r2, r)], o2))
            walk(i, ext_chain, ext_rows, ext_rhs, ext_orig, kids)

    for i in range(n - 1):
        gi, gii, hi = g[i], g[i][i], h[i]
        # Q(V_b - V_i, V_b - V_i) and -Q(V_b - V_i, V_i + t) per vertex b;
        # a zero pivot is a duplicate of V_i
        candidates = []
        for b in range(i + 1, n):
            gb = g[b]
            pivot = gb[b] - 2 * gb[i] + gii
            if pivot:
                r = [st * (gii - gb[i]) + sv * (x - y) for x, y in zip(hi, h[b])]
                candidates.append((b, [pivot], r, r))
        walk(i, (), (), (), (), candidates)
    points = []
    for s, (_, det, i, chain, nums) in enumerate(best):
        # V_i + t, on the scale sv * st
        point = [st * a + sv * b for a, b in zip(pts[i], ts[s])]
        den = sv * st
        if chain:
            gi, gii = g[i], g[i][i]
            minor = [[g[a][b] - g[a][i] - gi[b] + gii for b in chain] for a in chain]
            rhs = [st * (gii - g[a][i]) + sv * (h[i][s] - h[a][s]) for a in chain]
            sol = solve_exact(minor, rhs)
            if sol is None or any(x * det != y * sol[0] for x, y in zip(sol[1], nums)):
                raise InternalInconsistency("the chained elimination disagrees with solve_exact")
            # V_i + t + sum x_a (V_a - V_i), x = sol_nums / (sol_den * st)
            d, xs = sol
            point = [d * a for a in point]
            for a, x in zip(chain, xs):
                point = [c + x * (u - v) for c, u, v in zip(point, pts[a], pts[i])]
            den *= d
        common = gcd(den, *point)
        points.append((tuple(c // common for c in point), den // common))
    return points


@dataclass(frozen=True)
class OracleReport:
    agreed: bool
    subsets_checked: int
    mismatches: tuple[str, ...]
    directions: tuple[Vector, ...]


def cross_check_enumeration(
    ws: WeightSystem,
    chi: TorusCharacter,
    group: GroupData,
    config: OracleConfig = OracleConfig(),
    cap: int = DEFAULT_VERTEX_CAP,
) -> OracleReport:
    """Re-solve every flat at each concrete epsilon and compare."""
    mismatches: list[str] = []
    count = 0
    # the primitive integer multiples of -v, for the reported directions
    directions: set[IntVector] = set()
    epsilons = config.epsilon_values
    shifts = [vec_scale(eps0, chi.vec) for eps0 in epsilons]
    zero = vec_zero(len(chi.vec))
    for table, proj in span_candidates(ws, chi, group, cap):
        count += 1
        v = proj.int_direction
        if any(v):
            g = gcd(*v)
            directions.add(tuple(-a // g for a in v))
        vertices = [zero] + [table.weights[i] for i in proj.members]
        numerics = numeric_min_norm(vertices, shifts, group.form, cap)
        for eps0, (nums, den) in zip(epsilons, numerics):
            # nums/den = eps0 * V/scale, compared crosswise
            left, right = eps0.denominator * proj.scale, eps0.numerator * den
            if any(a * left != b * right for a, b in zip(nums, v)):
                numeric = tuple(Fraction(a, den) for a in nums)
                mismatches.append(
                    f"subset of size {len(vertices)} disagrees at eps={eps0}: "
                    f"{numeric} != {vec_scale(eps0, proj.direction)}"
                )
    return OracleReport(
        agreed=not mismatches,
        subsets_checked=count,
        mismatches=tuple(mismatches),
        directions=tuple(tuple(map(Fraction, d)) for d in sorted(directions)),
    )


def random_problem(rank: int, weight_count: int, seed: int) -> ExactnessProblem:
    """Reproducible random torus problem (cotangent mode)."""
    if rank > 4 or weight_count > 8:
        raise InvalidParameter("random problems are capped at rank 4 and 8 weights")
    rng = random.Random(seed)
    weights = tuple(
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(rank))
        for _ in range(weight_count)
    )
    chi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rank))
    while all(x == 0 for x in chi):
        chi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rank))
    return ExactnessProblem(
        group=torus(rank),
        weights=WeightSystem(weights, "cotangent"),
        chi=TorusCharacter(chi),
        c=LieCharacter(vec_zero(rank)),
    )


def cross_check_problem(problem: ExactnessProblem, config: OracleConfig = OracleConfig()) -> OracleReport:
    return cross_check_enumeration(
        problem.weights, problem.chi, problem.group, config, problem.cap
    )
