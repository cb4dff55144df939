"""Per-stratum numerical shifts and slice weight data.

For a destabilizing direction beta the shift is
    wt_n-(beta) + (1/2) * sum_i |alpha_i . beta|
summed over the base weights, and the slice weights are the phase-space
pairings with the cotangent directions of the negative nilpotent part
removed.  The phase space is T*W in cotangent mode; in raw mode (torus
only) the raw space is treated as the base, so the doubling identity
    2 * sum_i |alpha_i . beta|  =  sum_slice |w|  -  2 * wt_n-(beta)
holds exactly for every ShiftData this module produces.

The pairings are integers: q*beta is formed once, cleared, and paired
with the cached integer weights and roots on one common scale, and the
counting, sorting and the identity check above run on those integers.
A Fraction is built once per distinct magnitude, and for the sums.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InternalInconsistency, InvalidParameter, SliceSubtractionFailure, UnsupportedMode
from .groups import GroupData
from .linalg import clear_denominators, dot
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
    den, base_pairings, root_pairings = _pairings(beta, ws, group)
    negative = [g for g in root_pairings if g < 0]
    abs_sum = sum(abs(p) for p in base_pairings)
    n_minus = sum(negative)

    # the phase space pairs to +-p for each base pairing p: take one |p| off for
    # each nilpotent pair (g, -g) in root order; each m left gives -m and m
    magnitudes = Counter(abs(p) for p in base_pairings)
    for g in negative:
        if magnitudes[-g] <= 0:
            raise SliceSubtractionFailure(
                f"phase-space weights lack the nilpotent pairing {Fraction(g, den)}")
        magnitudes[-g] -= 1
    kept = sorted((m, k) for m, k in magnitudes.items() if k)

    if abs_sum != sum(m * k for m, k in kept) - n_minus:
        raise InternalInconsistency("weight-sum identity failed")

    # one Fraction per distinct magnitude m; the sorted slice is each -m,
    # then each m, k times
    values = [(Fraction(m, den), k) for m, k in kept]
    slice_weights = tuple(w for x, k in reversed(values) for w in (-x,) * k) + tuple(
        w for x, k in values for w in (x,) * k)
    return ShiftData(
        beta=beta,
        half_abs_sum=Fraction(abs_sum, 2 * den),
        n_minus_sum=Fraction(n_minus, den),
        shift=Fraction(2 * n_minus + abs_sum, 2 * den),
        slice_weights=slice_weights,
        semigroup_generators=tuple(x for x, _ in values if x),
    )


def full_space_generators(beta: Vector, ws: WeightSystem, group: GroupData) -> tuple[Fraction, ...]:
    """Generators from all nonzero pairings of the stratified space, without the nilpotent
    subtraction (the conservative superset); the cotangent negatives add no magnitude."""
    den, base_pairings, _ = _pairings(beta, ws, group)
    return tuple(Fraction(m, den) for m in sorted({abs(p) for p in base_pairings if p}))


def _pairings(beta: Vector, ws: WeightSystem, group: GroupData) -> tuple[int, list[int], list[int]]:
    """(den, den*q(w, beta) for each base weight w, den*q(r, beta) for each
    root r in order), all integers on one scale.  q*beta is formed once and
    cleared, and paired with the cleared weights and roots of ``ws`` and
    ``group``; each root visits only its nonzero entries."""
    if ws.rank != group.rank:
        raise InvalidParameter("vector length does not match form rank")
    d, (qb,) = clear_denominators([group.form.covector(beta)])
    weight_scale, weights = ws.cleared
    root_scale, roots = group.int_roots
    common = lcm(weight_scale, root_scale)
    a, b = common // weight_scale, common // root_scale
    return (d * common, [a * dot(w, qb) for w in weights],
            [b * sum(x * qb[i] for i, x in root) for root in roots])
