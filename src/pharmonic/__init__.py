"""Numerical potential theory on word-metric balls of finitely generated groups.

The package solves clamped p-Dirichlet problems on Cayley-graph balls and
builds the standard probes of p-potential theory on top of the solver:
capacities and parabolicity profiles, boundary witnesses that certify
distinct ideal boundary directions, Royden-type decompositions, massive
subsets, rough-isometry transport of harmonic fields between generating
sets, and the translation-invariant functionals induced by p-harmonic
fields. Everything is deterministic: fixed vertex orders, fixed p
schedules, and seeded sampling wherever randomness is used.
"""

from .dirichlet import (
    DirichletProblem,
    SolveReport,
    SolverConfig,
    capacity,
    linear_dirichlet,
    solve_dirichlet,
)
from .energy import (
    P_MAX,
    P_MIN,
    ScalarField,
    bdp_norm,
    check_exponent,
    p_laplacian,
    p_laplacian_interior,
    pairing,
    phi_p,
    seminorm_p,
)
from .exhaustion import (
    DirectionMarking,
    MassiveReport,
    ParabolicityReport,
    RoydenReport,
    SubsetSpec,
    WitnessReport,
    boundary_witness,
    default_marking,
    half_space_subset,
    inner_potential,
    letter_subtree_subset,
    parabolicity_profile,
    royden_decompose,
)
from .groups import (
    BudgetError,
    CayleyBall,
    DEFAULT_VERTEX_BUDGET,
    FreeAbelianModel,
    FreeGroupModel,
    FreeProductZ2Model,
    GroupModel,
    GroupSpec,
    LamplighterModel,
    build_group,
)
from .roughiso import (
    CoarseMap,
    FitError,
    check_coarse_identity,
    coverage_radius,
    fit_rough_constants,
    pullback,
    rough_inverse,
    transport_harmonic,
    validate_rough_map,
)
from .tilf import difference_approximation, invariance_defect, tilf_evaluate, translate

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CayleyBall",
    "CoarseMap",
    "DEFAULT_VERTEX_BUDGET",
    "DirectionMarking",
    "DirichletProblem",
    "FitError",
    "FreeAbelianModel",
    "FreeGroupModel",
    "FreeProductZ2Model",
    "GroupModel",
    "GroupSpec",
    "LamplighterModel",
    "MassiveReport",
    "P_MAX",
    "P_MIN",
    "ParabolicityReport",
    "RoydenReport",
    "ScalarField",
    "SolveReport",
    "SolverConfig",
    "SubsetSpec",
    "WitnessReport",
    "bdp_norm",
    "boundary_witness",
    "build_group",
    "capacity",
    "check_coarse_identity",
    "check_exponent",
    "coverage_radius",
    "default_marking",
    "difference_approximation",
    "fit_rough_constants",
    "half_space_subset",
    "inner_potential",
    "invariance_defect",
    "letter_subtree_subset",
    "linear_dirichlet",
    "p_laplacian",
    "p_laplacian_interior",
    "pairing",
    "parabolicity_profile",
    "phi_p",
    "pullback",
    "rough_inverse",
    "royden_decompose",
    "seminorm_p",
    "solve_dirichlet",
    "tilf_evaluate",
    "transport_harmonic",
    "translate",
    "validate_rough_map",
]
