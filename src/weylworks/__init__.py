"""Exact computations with irreducible GL_n representations.

Three independent constructions of the same objects, plus the
combinatorics to check them against each other: character tables and
Kostka numbers, explicit modules with raising and lowering operators,
the exterior-power bimodule carrying commuting GL_n x GL_m actions,
shift-stable lattice subspaces, and finite-field point counts of
nilpotent flag fibres.  All arithmetic is exact (integers and
fractions); nothing here floats.
"""

from .characters import (
    CharacterTable,
    character,
    character_table,
    dim_irrep,
    kostka,
)
from .crossval import CrossvalReport, CrossvalRow, cross_validate
from .errors import (
    InvariantViolation,
    ResourceLimitError,
    WeylworksError,
    max_dimension,
)
from .glmodules import (
    Decomposition,
    ExplicitModule,
    adjoint_module,
    decompose,
    ext_power,
    highest_weight_vectors,
    irrep_plucker,
    standard_module,
    sym_power,
    tensor,
    verify_chevalley_relations,
    weight_decompose,
)
from .lattice import (
    LatticeSubspace,
    StratumLocation,
    close_under_shift,
    fixed_point,
    jordan_type,
    mv_cycle_count,
    stratum_membership,
)
from .skewhowe import (
    BiModule,
    HomSpace,
    build_bimodule,
    decompose_howe,
    hom_dims,
    hom_space,
    induced_gln_module,
    verify_commuting_actions,
)
from .springercount import (
    NonPolynomialCountError,
    PointCountTable,
    component_count,
    count_fiber_points,
    count_polynomial,
    gaussian_binomial,
    interpolate,
    point_count_table,
)
from .weights import (
    compositions,
    conjugate,
    dominance_leq,
    height,
    is_dominant,
    pad,
    partitions,
    weyl_permute,
)

__version__ = "0.1.0"

__all__ = [
    "BiModule",
    "CharacterTable",
    "CrossvalReport",
    "CrossvalRow",
    "Decomposition",
    "ExplicitModule",
    "HomSpace",
    "InvariantViolation",
    "LatticeSubspace",
    "NonPolynomialCountError",
    "PointCountTable",
    "ResourceLimitError",
    "StratumLocation",
    "WeylworksError",
    "adjoint_module",
    "build_bimodule",
    "character",
    "character_table",
    "close_under_shift",
    "component_count",
    "compositions",
    "conjugate",
    "count_fiber_points",
    "count_polynomial",
    "cross_validate",
    "decompose",
    "decompose_howe",
    "dim_irrep",
    "dominance_leq",
    "ext_power",
    "fixed_point",
    "gaussian_binomial",
    "height",
    "highest_weight_vectors",
    "hom_dims",
    "hom_space",
    "induced_gln_module",
    "interpolate",
    "irrep_plucker",
    "is_dominant",
    "jordan_type",
    "kostka",
    "max_dimension",
    "mv_cycle_count",
    "pad",
    "partitions",
    "point_count_table",
    "standard_module",
    "stratum_membership",
    "sym_power",
    "tensor",
    "verify_chevalley_relations",
    "verify_commuting_actions",
    "weight_decompose",
    "weyl_permute",
]
