"""Mean-field three-state spin model on the complete graph.

Exact finite-n laws of the total spin, phase-diagram analytics, polynomial
comparison densities, exchangeable-pair Kolmogorov bounds, a seeded heat-bath
sampler and a 42-case convergence-rate harness.
"""

__version__ = "0.1.0"

from .cases import CaseSpec, case_by_id, case_catalog, comparison_density, predicted_rate
from .density import (
    PolyDensity,
    SteinConstants,
    density_from_regression,
    estimate_stein_constants,
    normalize_density,
)
from .errors import (
    BegratesError,
    CapExceededError,
    ComputationError,
    DegenerateFitError,
    EnvelopeGridError,
    InvalidCaseParametersError,
    NonIntegrableDensityError,
    ScheduleUnderflowError,
    ValidationError,
)
from .exact import (
    JointLaw,
    build_joint_law,
    hs_check,
    kolmogorov_distance,
    moment,
    pair_covariance,
)
from .mcmc import ChainResult, chain_seeds, run_chain
from .model import (
    BETA_C,
    ModelParams,
    RegionTag,
    Schedule,
    ScheduleMode,
    classify_region,
    critical_K,
    cumulant_gf,
    f_single,
    g_derivs_at_zero,
    G_eval,
    G_prime,
    minimize_G,
    schedule_eval,
)
from .rates import RateReport, Rung, fit_loglog, run_all, run_case, run_rung
from .stein import (
    BoundReport,
    StepTable,
    evaluate_bound,
    regression_decompose,
    step_table,
    variance_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
