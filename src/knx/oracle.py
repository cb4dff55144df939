"""Independent concrete-epsilon oracle for the symbolic enumeration.

The oracle substitutes a concrete small negative rational eps0 for epsilon
and re-solves every flat's perturbed hull conv{0, w_i} + eps0*chi with
exhaustive support enumeration and a global minimum: exact arithmetic
throughout, no early exit, and no use of the cone projection it checks.
Each solve builds one integer Gram table of its vertices and reads every
support's system off it: one ``matrix_rank`` call bounds the supports by
the affine rank of the vertices, and each support is one square
``solve_exact`` on its Gram minor.  A singular minor is an affinely
dependent support, and it is skipped.  With the certificate path it
shares the flats and the elimination kernel only.
The closest point must equal eps0*v for the certified direction v.  This
per-flat equality is the whole comparison: the strata are the Weyl classes
of the directions of these same flats, so a set-level re-check could only
fail after some flat had already disagreed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .convex import DEFAULT_VERTEX_CAP
from .engine import ExactnessProblem
from .errors import CapExceeded, InvalidParameter
from .groups import GroupData, LieCharacter, TorusCharacter, primitive_rescale, torus
from .linalg import clear_denominators, dot, matrix_rank, solve_exact
from .scalars import (
    GramForm,
    Vector,
    is_zero_vector,
    vec_add,
    vec_neg,
    vec_scale,
    vec_zero,
)
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
    vertices: Sequence[Vector], q: GramForm, cap: int = DEFAULT_VERTEX_CAP
) -> Vector:
    """Exact minimum-norm point of conv(vertices) by full support enumeration.

    Every support of at most r + 1 vertices is solved, r the affine rank of
    the vertices; feasible candidates are compared and the global q-norm
    minimum returned.  Deliberately no early exit: this is the independent
    check of the certificate path.  The vertices and the form are cleared
    to integers once, which scales every norm by one positive constant,
    and their Gram table G[i][j] = Q(V_i, V_j) is built once: each
    support's normal equations are read off G and solved alone, and its
    point, with barycentric weights lam/den, is compared by
    lam^T G lam / den^2 in integers.  With q positive definite a minor is
    singular exactly when its support is affinely dependent; such a support
    is skipped, since the closest point of conv(vertices) is unique and is
    the closest point of the affine hull of some independent support.
    """
    if len(vertices) > cap:
        raise CapExceeded(f"{len(vertices)} vertices exceed the cap of {cap}")
    dim = len(vertices[0])
    scale, pts = clear_denominators(vertices)
    form = q.cleared[1]
    covectors = [tuple(dot(row, p) for row in form) for p in pts]
    g = [[dot(c, p) for p in pts] for c in covectors]
    # an affinely independent support has at most (affine rank) + 1 points
    affine_rank = matrix_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]])
    best, best_norm, best_den = None, 0, 1
    for size in range(1, affine_rank + 2):
        for support in combinations(range(len(pts)), size):
            i, *rest = support
            den, lam = 1, [1]
            if rest:
                # Q(V_a - V_i, V_b - V_i) x_b = -Q(V_i, V_a - V_i), each read off G
                gi = g[i]
                minor = [[g[a][b] - g[a][i] - gi[b] + gi[i] for b in rest] for a in rest]
                sol = solve_exact(minor, [gi[i] - gi[a] for a in rest])
                if sol is None:
                    continue
                den, nums = sol
                if any(n < 0 for n in nums) or sum(nums) > den:
                    continue
                lam = [den - sum(nums), *nums]
            norm = sum(la * lb * g[a][b] for a, la in zip(support, lam) for b, lb in zip(support, lam))
            if best is None or norm * best_den**2 < best_norm * den**2:
                best, best_norm, best_den = (support, lam), norm, den
    assert best is not None
    support, lam = best
    return tuple(Fraction(sum(la * pts[a][k] for a, la in zip(support, lam)), best_den * scale)
                 for k in range(dim))


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
    # per eps0: the shifted origin eps0*chi and each table weight plus
    # eps0*chi, built at the first flat, since the table is shared by all
    shifted = None
    for table, proj in span_candidates(ws, chi, group, cap):
        count += 1
        v = proj.direction
        if not is_zero_vector(v):
            symbolic_directions.add(primitive_rescale(vec_neg(v)))
        if shifted is None:
            shifted = []
            for eps0 in config.epsilon_values:
                origin = vec_scale(eps0, chi.vec)
                shifted.append((eps0, origin, [vec_add(w, origin) for w in table.weights]))
        for eps0, origin, weights in shifted:
            concrete = [origin] + [weights[i] for i in proj.members]
            numeric = numeric_min_norm(concrete, group.form, cap)
            symbolic_at_eps = vec_scale(eps0, v)
            if numeric != symbolic_at_eps:
                mismatches.append(
                    f"subset of size {len(concrete)} disagrees at eps={eps0}: "
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
