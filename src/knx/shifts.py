"""Per-stratum numerical shifts and slice weight data.

For a destabilizing direction beta the shift is
    wt_n-(beta) + (1/2) * sum_i |alpha_i . beta|
summed over the base weights, and the slice weights are the phase-space
pairings with the cotangent directions of the negative nilpotent part
removed.  The phase space is T*W in cotangent mode; in raw mode (torus
only) the raw space is treated as the base, so the doubling identity
    2 * sum_i |alpha_i . beta|  =  sum_slice |w|  -  2 * wt_n-(beta)
holds exactly for every ShiftData this module produces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistency, InvalidParameter, SliceSubtractionFailure, UnsupportedMode
from .groups import GroupData, root_pairings
from .scalars import Vector
from .strata import WeightSystem


@dataclass(frozen=True)
class ShiftData:
    beta: Vector
    half_abs_sum: Fraction  # (1/2) sum over base weights of |alpha_i . beta|
    n_minus_sum: Fraction  # sum of negative root pairings, <= 0
    shift: Fraction  # n_minus_sum + half_abs_sum
    slice_weights: tuple[Fraction, ...]  # sorted multiset of slice pairings
    semigroup_generators: tuple[Fraction, ...]  # distinct positive |w|


def compute_shift(beta: Vector, ws: WeightSystem, group: GroupData) -> ShiftData:
    """Shift and slice data for a signed destabilizing direction."""
    if ws.mode == "raw" and not group.is_torus:
        raise UnsupportedMode("raw mode shifts are only defined for torus actions")
    base_pairings = _base_pairings(beta, ws, group)
    half_abs = sum(abs(p) for p in base_pairings) / 2
    negative = [g for g in root_pairings(beta, group) if g < 0]
    n_minus = sum(negative, Fraction(0))

    # the phase space pairs to +-p for each base pairing p: take one |p| off for
    # each nilpotent pair (g, -g) in root order; each m left gives -m and m
    magnitudes = Counter(abs(p) for p in base_pairings)
    for g in negative:
        if magnitudes[-g] <= 0:
            raise SliceSubtractionFailure(f"phase-space weights lack the nilpotent pairing {g}")
        magnitudes[-g] -= 1
    slice_weights = tuple(sorted(w for m, k in magnitudes.items() for w in (-m, m) for _ in range(k)))

    if 4 * half_abs != sum(abs(w) for w in slice_weights) - 2 * n_minus:
        raise InternalInconsistency("weight-sum identity failed")

    generators = tuple(sorted(m for m, k in magnitudes.items() if m and k))
    return ShiftData(
        beta=beta,
        half_abs_sum=half_abs,
        n_minus_sum=n_minus,
        shift=n_minus + half_abs,
        slice_weights=slice_weights,
        semigroup_generators=generators,
    )


def full_space_generators(beta: Vector, ws: WeightSystem, group: GroupData) -> tuple[Fraction, ...]:
    """Generators from all nonzero pairings of the stratified space, without the nilpotent
    subtraction (the conservative superset); the cotangent negatives add no magnitude."""
    return tuple(sorted({abs(p) for p in _base_pairings(beta, ws, group) if p}))


def _base_pairings(beta: Vector, ws: WeightSystem, group: GroupData) -> list[Fraction]:
    """q(w, beta) for each base weight w, as its dot product with q*beta."""
    if ws.rank != group.rank:
        raise InvalidParameter("vector length does not match form rank")
    qb = group.form.covector(beta)
    return [sum((x * y for x, y in zip(w, qb) if x), Fraction(0)) for w in ws.w_weights]
