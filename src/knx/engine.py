"""Orchestration: enumerate strata, compute shifts and semigroups, decide
whether a quantization parameter avoids the forbidden locus, or emit the
locus in closed form for a parametric family.

What depends on neither chi nor c is kept on the shape's record
(``strata.Shape``), looked up when a problem is built (a miss checks
W-stability); it keeps the strata of the last 8 chi rays walked, so a
sweep over c solves the flats once.  Each signed direction's
``ShiftData`` and generators are kept here, for the last 1024 (shape,
beta, strictness) by the shape's value, so they outlive the record.  The
semigroups, c(beta) and everything after are computed on every call."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InvalidParameter, UnsupportedMode
from .groups import (
    GroupData,
    Keyed,
    LieCharacter,
    TorusCharacter,
    gl,
    validate_lie_character,
    validate_torus_character,
    weyl_canonicalize,
)
from .scalars import Vector, rat_str, vec_zero, vector
from .semigroup import (
    NumericalSemigroup,
    SetDescription,
    describe_members,
    membership,
    reduce_union,
    semigroup_from_generators,
    witness_decomposition,
)
from .shifts import ShiftData, compute_shift, full_space_generators
from .strata import KNResult, KNStratum, Shape, WeightSystem, enumerate_kn, shape_of
from .convex import DEFAULT_VERTEX_CAP

STRICTNESS = ("slice", "full_V")

CERTIFIED, VIOLATED, PARAMETRIC = "Certified", "Violated", "Parametric"


@dataclass(frozen=True)
class ExactnessProblem:
    group: GroupData
    weights: WeightSystem
    chi: TorusCharacter
    c: LieCharacter | None = None
    orientation: str = "negative"
    dropped_strata: tuple[Vector, ...] = ()
    strictness: str = "slice"
    cap: int = DEFAULT_VERTEX_CAP
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.strictness not in STRICTNESS:
            raise InvalidParameter(f"unknown strictness {self.strictness!r}")
        validate_torus_character(self.chi, self.group)
        if self.c is not None:
            validate_lie_character(self.c, self.group)
        if self.weights.rank != self.group.rank:
            raise InvalidParameter("weights, character and group rank disagree")
        self.shape  # a new shape is checked for W-stability here

    @cached_property
    def shape(self) -> Shape:
        return shape_of(self.weights, self.group)


@dataclass(frozen=True)
class StratumCheck:
    stratum: KNStratum
    signed_beta: Vector
    c_of_beta: Fraction
    shift_data: ShiftData
    semigroup: NumericalSemigroup
    passed: bool
    witness: tuple[tuple[Fraction, int], ...] | None


@dataclass(frozen=True)
class StratumLocus:
    stratum: KNStratum
    signed_beta: Vector
    shift_data: ShiftData
    semigroup: NumericalSemigroup
    locus: SetDescription


@dataclass(frozen=True)
class ExactnessVerdict:
    status: str  # Certified / Violated / Parametric
    kn: KNResult
    checks: tuple[StratumCheck, ...] = ()
    loci: tuple[StratumLocus, ...] = ()
    union_loci: tuple[SetDescription, ...] = ()


def _kept_strata(problem: ExactnessProblem) -> tuple[KNResult, tuple[KNStratum, ...]]:
    if problem.weights.mode == "raw" and not problem.group.is_torus:
        raise UnsupportedMode("raw mode verdicts need a torus action")
    result = enumerate_kn(
        problem.weights, problem.chi, problem.group, problem.orientation, problem.cap
    )
    dropped = matched_drops(problem, result)
    return result, tuple(s for s in result.strata if s.beta_dominant not in dropped)


def matched_drops(problem: ExactnessProblem, result: KNResult) -> set[Vector]:
    """The Weyl-canonical dropped strata; each must match a stratum of result."""
    dropped = {weyl_canonicalize(vector(v), problem.group) for v in problem.dropped_strata}
    unknown = dropped - {s.beta_dominant for s in result.strata}
    if unknown:
        shown = ", ".join("(" + ", ".join(map(rat_str, v)) + ")" for v in sorted(unknown))
        raise InvalidParameter(f"dropped strata do not match any enumerated stratum: {shown}")
    return dropped


def _signed_betas(stratum: KNStratum, orientation: str) -> tuple[Vector, ...]:
    if orientation == "negative":
        return (stratum.beta_neg,)
    if orientation == "positive":
        return (stratum.beta_pos,)
    return (stratum.beta_neg, stratum.beta_pos)


def stratum_semigroup(
    beta: Vector, problem: ExactnessProblem
) -> tuple[ShiftData, NumericalSemigroup]:
    """Shift data and exclusion semigroup for one signed direction.

    Exposed separately so invariance tests can feed rescaled directions.
    """
    sd, gens = _shift(problem.shape.key, beta, problem.strictness)
    return sd, semigroup_from_generators(gens)


# keyed by the shape's value, not its record: a sweep that outlives the
# record finds its directions here still
@lru_cache(maxsize=1024)
def _shift(shape: Keyed, beta: Vector, strictness: str) -> tuple[ShiftData, tuple[Fraction, ...]]:
    group, ws = shape.data
    sd = compute_shift(beta, ws, group)
    if strictness == "slice":
        return sd, sd.semigroup_generators
    return sd, full_space_generators(beta, ws, group)


def check(problem: ExactnessProblem) -> ExactnessVerdict:
    """Fixed-parameter verdict: Certified iff every kept stratum avoids its
    forbidden set; violations carry an exact witness decomposition."""
    if problem.c is None or problem.c.direction is not None:
        raise InvalidParameter("check needs a fixed character (no direction)")
    result, kept = _kept_strata(problem)
    q = problem.group.form
    checks = []
    for stratum in kept:
        for beta in _signed_betas(stratum, problem.orientation):
            sd, sg = stratum_semigroup(beta, problem)
            c_of_beta = q.apply(problem.c.base, beta)
            hit = membership(sg, sd.shift, c_of_beta)
            witness = witness_decomposition(sg, sd.shift, c_of_beta) if hit else None
            checks.append(
                StratumCheck(stratum, beta, c_of_beta, sd, sg, not hit, witness)
            )
    status = CERTIFIED if all(c.passed for c in checks) else VIOLATED
    return ExactnessVerdict(status=status, kn=result, checks=tuple(checks))


def forbidden(problem: ExactnessProblem) -> ExactnessVerdict:
    """Parametric verdict: per-stratum forbidden t-locus for c0 + t*eta."""
    if problem.c is None or problem.c.direction is None:
        raise InvalidParameter("forbidden needs a parametric character direction")
    result, kept = _kept_strata(problem)
    q = problem.group.form
    loci = []
    for stratum in kept:
        for beta in _signed_betas(stratum, problem.orientation):
            sd, sg = stratum_semigroup(beta, problem)
            a = q.apply(problem.c.base, beta)
            h = q.apply(problem.c.direction, beta)
            if h == 0:
                # constant condition in t: all of the line or none of it
                desc = (
                    SetDescription(full=True)
                    if membership(sg, sd.shift, a)
                    else SetDescription(empty=True)
                )
            else:
                desc = describe_members(sg, (sd.shift - a) / h, Fraction(1) / h)
            loci.append(StratumLocus(stratum, beta, sd, sg, desc))
    union = reduce_union([l.locus for l in loci])
    return ExactnessVerdict(status=PARAMETRIC, kn=result, loci=tuple(loci), union_loci=union)


def cherednik_preset(n: int) -> ExactnessProblem:
    """gl(n) acting on matrices plus a vector, determinant linearization,
    parametric character along (1,...,1)."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    weights = []
    for i in range(n):
        for j in range(n):
            w = [Fraction(0)] * n
            w[i] += 1
            w[j] -= 1
            weights.append(tuple(w))
    for i in range(n):
        w = [Fraction(0)] * n
        w[i] = Fraction(1)
        weights.append(tuple(w))
    ones = tuple(Fraction(1) for _ in range(n))
    notes = (
        "parameter t is the rho-shifted coupling: the unshifted coupling is t - 1/2",
        "sign convention: spherical Cherednik parameters are often quoted with the opposite sign; negate t to compare",
    )
    return ExactnessProblem(
        group=gl(n),
        weights=WeightSystem(tuple(weights), "cotangent"),
        chi=TorusCharacter(ones),
        c=LieCharacter(vec_zero(n), ones),
        orientation="positive",
        notes=notes,
    )


def with_fixed_parameter(problem: ExactnessProblem, t: Fraction) -> ExactnessProblem:
    """Specialize a parametric problem at t: c = base + t*direction."""
    if problem.c is None or problem.c.direction is None:
        raise InvalidParameter("problem has no parametric direction")
    base = tuple(b + t * d for b, d in zip(problem.c.base, problem.c.direction))
    return replace(problem, c=LieCharacter(base, None))
