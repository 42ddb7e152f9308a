"""Capacity bounds and sum-rate capacity tools for Gaussian interference
channels: inner bounds, genie-aided outer bounds, exact-capacity
classification where the known conditions hold, and region geometry."""

from .capacity import (
    CapacityVerdict,
    CertificateUnavailableError,
    VerdictKind,
    classify,
    mixed_condition,
    noisy_certificate,
    noisy_condition,
    symmetric_noisy_threshold,
)
from .channel import (
    GenieParams,
    RatePoint,
    TwoUserChannel,
    sigma_feasible,
    single_user_capacities,
    tdm_fdm_sum_rate,
    tin_rates,
)
from .genie import (
    SupportingLine,
    WeightKind,
    effective_powers,
    eta1_range,
    eta2_range,
    eval_constraint1,
    eval_constraint2,
    eval_constraint3,
    optimize_constraint1,
    optimize_constraint1_many,
    sum_upper_bound,
    sum_upper_bounds,
    user1_genie_bound,
)
from .multiuser import (
    MUserChannel,
    MUserVerdict,
    check_conditions,
    find_rho,
    m_user_interference_powers,
    noisy_sum_capacity,
    oracle_grid_feasibility,
    symmetric_threshold,
)
from .region import RateRegion, build_inner_region, build_outer_region

__version__ = "0.1.0"

__all__ = [
    "CapacityVerdict",
    "CertificateUnavailableError",
    "GenieParams",
    "MUserChannel",
    "MUserVerdict",
    "RatePoint",
    "RateRegion",
    "SupportingLine",
    "TwoUserChannel",
    "VerdictKind",
    "WeightKind",
    "build_inner_region",
    "build_outer_region",
    "check_conditions",
    "classify",
    "effective_powers",
    "eta1_range",
    "eta2_range",
    "eval_constraint1",
    "eval_constraint2",
    "eval_constraint3",
    "find_rho",
    "m_user_interference_powers",
    "mixed_condition",
    "noisy_certificate",
    "noisy_condition",
    "noisy_sum_capacity",
    "optimize_constraint1",
    "optimize_constraint1_many",
    "oracle_grid_feasibility",
    "sigma_feasible",
    "single_user_capacities",
    "sum_upper_bound",
    "sum_upper_bounds",
    "symmetric_noisy_threshold",
    "symmetric_threshold",
    "tdm_fdm_sum_rate",
    "tin_rates",
    "user1_genie_bound",
]
