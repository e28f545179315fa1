"""Contractive-set computation for constrained linear discrete-time systems.

Compute one-step backward sets of polytopes, iterate them with a-priori
iteration budgets, and select contraction rates that guarantee a requested
approximation accuracy of the maximal controlled invariant set.
"""

from .certificate import ContractionCertificate, compute_certificate
from .config import TOL, Tolerances, set_feasibility_tolerance
from .lp import LinearProgram, LpOutcome, LpStatus, solve_lp
from .metric import (
    DistanceResult,
    check_inclusion_equivalence,
    inclusion_factor,
    set_distance,
    set_distances,
)
from .numerics import (
    matrix_power,
    reachability_matrix,
    schur_radius_bound,
    singular_extremes,
    spectral_norm,
    symmetric_eigen_min,
)
from .onestep import (
    MembershipCertificate,
    SeedLabel,
    SetSequence,
    SystemModel,
    is_lambda_contractive,
    iterate,
    membership_certificate,
    noncontractive_point,
    one_step_set,
)
from .planner import (
    ApproximationResult,
    IterationPlan,
    Purpose,
    Strategy,
    approximate_cmax1,
    epsilon_plan,
    exact_k_oracle_1d,
    iteration_bound,
    select_lambda,
)
from .polytope import (
    CSetPolytope,
    HPolytope,
    box,
    inradius_origin,
    intersect,
    is_subset,
    outer_radius,
    project,
    radial,
    remove_redundancy,
    scale,
    support,
    support_many,
    symmetric_box,
    validate_cset,
    vertices,
)
from .scenario import Report, run_scenario, run_scenario_dict
from .seeds import (
    EllipsoidSeed,
    accept_user_seed,
    lyapunov_level_matrix,
    polytopic_inner_seed,
    validate_ellipsoid_seed,
)
from .svg import render_svg

__version__ = "0.1.0"
