"""Wasserstein-robust single-period market making.

Empirical order-flow moments feed a transport-ball adversary; the inner
problem pins worst-case moments, and an entropy-regularized Gibbs policy
quotes stochastic spreads against them. Companion modules select the
ball radius from data, simulate episodes under distorted laws, and
validate every closed form against brute-force transport oracles.
"""

__version__ = "0.1.0"

from .functions import FunctionSpec, affine, constant, exp_decay, parse_function_spec
from .moments import (
    EmpiricalSummary,
    SampleSet,
    alpha_range,
    beta_bounds,
    beta_lower_raw,
    empirical_moments,
    read_sample_csv,
    theorem_beta_envelope,
)
from .oracle import (
    DiscreteMeasure,
    SupportSpec,
    default_support,
    min_cost_given_moments,
    moment_range_search,
    product_w2_squared,
    w2_distance,
    w2_squared,
)
from .policy import (
    DegeneratePolicyError,
    PolicyGrid,
    RobustSolution,
    SolverError,
    SolverOptions,
    SpreadDomain,
    SpreadModel,
    build_policy,
    concavity_check,
    expected_reward,
    sample_policy,
    solve_inner,
    validate_model_on_domain,
    worst_case_objective,
)
from .profile import (
    MomentTarget,
    RadiusSelection,
    gram_bound_check,
    moment_matrices,
    pair_average_quadratic,
    robust_profile,
    select_radius,
)
from .simulator import (
    MetaDistribution,
    ShiftReport,
    ShiftRow,
    ShiftSpec,
    shift_experiment,
    simulate_batch,
)

__all__ = [
    # functions
    "FunctionSpec", "affine", "constant", "exp_decay", "parse_function_spec",
    # moments
    "EmpiricalSummary", "SampleSet", "alpha_range", "beta_bounds", "beta_lower_raw",
    "empirical_moments", "read_sample_csv", "theorem_beta_envelope",
    # oracle
    "DiscreteMeasure", "SupportSpec", "default_support", "min_cost_given_moments",
    "moment_range_search", "product_w2_squared", "w2_distance", "w2_squared",
    # policy
    "DegeneratePolicyError", "PolicyGrid", "RobustSolution", "SolverError", "SolverOptions",
    "SpreadDomain", "SpreadModel", "build_policy", "concavity_check", "expected_reward",
    "sample_policy", "solve_inner", "validate_model_on_domain", "worst_case_objective",
    # profile
    "MomentTarget", "RadiusSelection", "gram_bound_check", "moment_matrices",
    "pair_average_quadratic", "robust_profile", "select_radius",
    # simulator
    "MetaDistribution", "ShiftReport", "ShiftRow", "ShiftSpec", "shift_experiment",
    "simulate_batch",
]
