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

from .errors import InternalInconsistency, SliceSubtractionFailure, UnsupportedMode
from .groups import GroupData, negative_root_weight_sum, root_pairings
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
    q = group.form
    base_pairings = [q.apply(w, beta) for w in ws.w_weights]
    half_abs = sum(abs(p) for p in base_pairings) / 2
    n_minus = negative_root_weight_sum(beta, group)

    phase = Counter(base_pairings)
    phase.update(-p for p in base_pairings)
    for g in root_pairings(beta, group):
        if g < 0:
            for w in (g, -g):
                if phase[w] <= 0:
                    raise SliceSubtractionFailure(
                        f"phase-space weights lack the nilpotent pairing {w}"
                    )
                phase[w] -= 1
    slice_weights = tuple(sorted(phase.elements()))

    if 4 * half_abs != sum(abs(w) for w in slice_weights) - 2 * n_minus:
        raise InternalInconsistency("weight-sum identity failed")

    generators = tuple(sorted({abs(w) for w in slice_weights if w != 0}))
    return ShiftData(
        beta=beta,
        half_abs_sum=half_abs,
        n_minus_sum=n_minus,
        shift=n_minus + half_abs,
        slice_weights=slice_weights,
        semigroup_generators=generators,
    )


def full_space_generators(beta: Vector, ws: WeightSystem, group: GroupData) -> tuple[Fraction, ...]:
    """Generator variant from all nonzero pairings of the stratified space,
    without the nilpotent subtraction (the conservative superset)."""
    q = group.form
    values = {abs(q.apply(w, beta)) for w in ws.stratify_weights}
    return tuple(sorted(v for v in values if v != 0))
