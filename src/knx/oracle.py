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
The closest point must equal eps0*v for the certified direction v.  This
per-flat equality is the whole comparison: the strata are the Weyl classes
of the directions of these same flats, so a set-level re-check could only
fail after some flat had already disagreed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .convex import DEFAULT_VERTEX_CAP
from .engine import ExactnessProblem
from .errors import CapExceeded, InternalInconsistency, InvalidParameter
from .groups import GroupData, LieCharacter, TorusCharacter, primitive_rescale, torus
from .linalg import clear_denominators, dot, matrix_rank, solve_exact
from .scalars import GramForm, Vector, is_zero_vector, vec_neg, vec_scale, vec_zero
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
) -> list[Vector]:
    """Exact closest point to the origin of conv(vertices) + t, for each
    translation t in ``shifts``, by full support enumeration.

    Every affinely independent support of at most r + 1 vertices is solved
    at every t, r the affine rank of the vertices; feasible candidates are
    compared and the global q-norm minimum returned.  Deliberately no early
    exit: this is the independent check of the certificate path.

    The vertices V, the translations t and the form are cleared to
    integers on separate scales, and the Gram table Q(V_a, V_b) is built
    once.  A support with base i, its smallest index, is solved by the
    normal equations M x = r with M_ab = Q(V_a - V_i, V_b - V_i), which
    holds no t, and r_a = -Q(V_a - V_i, V_i + t): t enters the right-hand
    sides only.  The supports of one base are walked depth-first as
    chains of increasing indices.  Each index appended to a chain adds one
    row to the chain's fraction-free elimination (Bareiss 1968); no row
    exchange is needed, since the leading minors of a Gram matrix under a
    positive definite q are positive for an affinely independent chain and
    0 for a dependent one.  A zero pivot therefore skips the chain and
    every superset.  A candidate is feasible when x >= 0 and sum(x) <= 1,
    and at the affine optimum its squared norm minus |t|^2 is
    |V_i + t|^2 - r.x, compared in integers.  The winner of each t is
    solved again by ``solve_exact`` on its minor, and the two solutions
    must agree.
    """
    if len(vertices) > cap:
        raise CapExceeded(f"{len(vertices)} vertices exceed the cap of {cap}")
    sv, pts = clear_denominators(vertices)
    st, ts = clear_denominators(shifts)
    form = q.cleared[1]
    covectors = [tuple(dot(row, p) for row in form) for p in pts]
    g = [[dot(c, p) for p in pts] for c in covectors]
    # h[s][a] = Q(V_a, t_s) on the scale of g times st/sv
    h = [[dot(c, t) for c in covectors] for t in ts]
    n = len(pts)
    # an affinely independent support has at most (affine rank) + 1 points
    affine_rank = matrix_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]])
    # per translation: (value num, value den, base, chain, nums), the
    # value being (|p|^2 - |t|^2) * (q, vertex and translation scales);
    # the single vertices first, so that a vertex wins every tie
    best = [min((st * st * g[i][i] + 2 * sv * st * hs[i], 1, i, (), ()) for i in range(n))
            for hs in h]

    def walk(i, chain, rows, rhs, orig):
        # rows[j]: the values of chain row j at columns 0..j after j
        # elimination steps, ending with its pivot; by symmetry, row j's
        # column l > j is rows[l][j].  rhs[j]: its right-hand sides after j
        # steps; orig[j]: before any
        gi, gii, k = g[i], g[i][i], len(chain)
        for b in range((chain[-1] if chain else i) + 1, n):
            gb = g[b]
            row = [gb[a] - gb[i] - gi[a] + gii for a in chain]
            row.append(gb[b] - 2 * gb[i] + gii)
            r0 = tuple(-(st * (gb[i] - gii) + sv * (hs[b] - hs[i])) for hs in h)
            r, prev = list(r0), 1
            for j in range(k):
                f, p = row[j], rows[j][j]
                for l in range(j + 1, k):
                    row[l] = (p * row[l] - f * rows[l][j]) // prev
                row[k] = (p * row[k] - f * f) // prev
                r = [(p * x - f * y) // prev for x, y in zip(r, rhs[j])]
                prev = p
            pivot = row[k]
            if not pivot:  # b is affinely dependent on the chain
                continue
            ext_chain, ext_rows = chain + (b,), rows + (row,)
            ext_rhs, ext_orig = rhs + (r,), orig + (r0,)
            den = pivot * st
            for s, hs in enumerate(h):
                nums = [0] * (k + 1)
                for a in reversed(range(k + 1)):
                    acc = pivot * ext_rhs[a][s] - sum(ext_rows[c][a] * nums[c] for c in range(a + 1, k + 1))
                    nums[a] = acc // ext_rows[a][a]
                if any(x < 0 for x in nums) or sum(nums) > den:
                    continue
                value = pivot * (st * st * gii + 2 * sv * st * hs[i]) - sum(
                    o[s] * x for o, x in zip(ext_orig, nums))
                held = best[s]
                if value * held[1] < held[0] * pivot:
                    best[s] = (value, pivot, i, ext_chain, tuple(nums))
            if k + 1 < affine_rank:
                walk(i, ext_chain, ext_rows, ext_rhs, ext_orig)

    for i in range(n - 1):
        walk(i, (), (), (), ())
    points = []
    for s, (_, det, i, chain, nums) in enumerate(best):
        base = [st * a + sv * b for a, b in zip(pts[i], ts[s])]
        if not chain:
            points.append(tuple(Fraction(a, sv * st) for a in base))
            continue
        gi, gii, hs = g[i], g[i][i], h[s]
        minor = [[g[a][b] - g[a][i] - gi[b] + gii for b in chain] for a in chain]
        rhs = [-(st * (g[a][i] - gii) + sv * (hs[a] - hs[i])) for a in chain]
        sol = solve_exact(minor, rhs)
        if sol is None or any(x * det != y * sol[0] for x, y in zip(sol[1], nums)):
            raise InternalInconsistency("the chained elimination disagrees with solve_exact")
        den, nums = sol
        # V_i + t + sum x_a (V_a - V_i), x = nums / (den * st)
        cols = zip(*(tuple(x * (u - v) for u, v in zip(pts[a], pts[i])) for a, x in zip(chain, nums)))
        points.append(tuple(Fraction(den * a + sum(c), den * sv * st) for a, c in zip(base, cols)))
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
    symbolic_directions: set[Vector] = set()
    shifts = [vec_scale(eps0, chi.vec) for eps0 in config.epsilon_values]
    zero = vec_zero(len(chi.vec))
    for table, proj in span_candidates(ws, chi, group, cap):
        count += 1
        v = proj.direction
        if not is_zero_vector(v):
            symbolic_directions.add(primitive_rescale(vec_neg(v)))
        vertices = [zero] + [table.weights[i] for i in proj.members]
        numerics = numeric_min_norm(vertices, shifts, group.form, cap)
        for eps0, numeric in zip(config.epsilon_values, numerics):
            symbolic_at_eps = vec_scale(eps0, v)
            if numeric != symbolic_at_eps:
                mismatches.append(
                    f"subset of size {len(vertices)} disagrees at eps={eps0}: "
                    f"{numeric} != {symbolic_at_eps}"
                )
    return OracleReport(
        agreed=not mismatches,
        subsets_checked=count,
        mismatches=tuple(mismatches),
        directions=tuple(sorted(symbolic_directions)),
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
