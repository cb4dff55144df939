"""knx: exact Kirwan-Ness strata and exactness certification for quantum
Hamiltonian reduction of reductive-group representations."""

from .convex import ConeProjection, gram_table, min_norm_point
from .engine import (
    CERTIFIED,
    PARAMETRIC,
    VIOLATED,
    ExactnessProblem,
    ExactnessVerdict,
    check,
    cherednik_preset,
    forbidden,
    with_fixed_parameter,
)
from .groups import (
    GroupData,
    LieCharacter,
    TorusCharacter,
    gl,
    group_data,
    primitive_rescale,
    product,
    sl,
    torus,
    weyl_canonicalize,
)
from .scalars import GramForm, rat, rat_str, vector
from .semigroup import (
    NumericalSemigroup,
    SetDescription,
    describe_members,
    membership,
    semigroup_from_generators,
    witness_decomposition,
)
from .shifts import ShiftData, compute_shift
from .strata import KNResult, KNStratum, WeightSystem, enumerate_kn, weight_system

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
