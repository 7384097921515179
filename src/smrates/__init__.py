"""Semi-Markov modulated short-rate models.

A regime process with general (non-exponential) holding times switches
the parameters of a short-rate diffusion.  The package provides the
renewal-kernel machinery, the regime-conditional diffusions (Vasicek,
Hull-White, CIR), forward-marched solvers for the moments of the
discount factor and of the rate itself, and a Monte Carlo simulator
that doubles as an independent cross-check of every analytic quantity.
"""

from .errors import (
    ConfigError,
    DegenerateBackwardError,
    GridCoverageError,
    NumericsError,
)
from .moment_engine import (
    LatticeWorkspace,
    MomentSurface,
    SolverConfig,
    covariance,
    covariance_surface,
    evaluate_product_moment,
    evaluate_rate_mean,
    evaluate_zcb_moment,
    solve_product_moment,
    solve_rate_mean,
    solve_zcb_moment,
)
from .monte_carlo import (
    EstimatorReport,
    PathRecord,
    RngStream,
    estimate_moments,
    estimate_rate_moments,
    estimate_state_occupancy,
    estimate_zcb_moment,
    simulate_batch,
    simulate_path,
)
from .rate_models import (
    CIRParams,
    HullWhiteParams,
    PiecewiseLinear,
    RegimeRateModel,
    VasicekParams,
    cir_joint_laplace,
    cir_laplace_rate,
)
from .semi_markov import (
    BackwardState,
    SemiMarkovKernel,
    TimeGrid,
    alternating_kernel,
    backward_transition_probabilities,
    transition_probabilities,
)
from .config import ExperimentConfig
from .sojourn import SojournDistribution

__all__ = [
    "BackwardState",
    "CIRParams",
    "ConfigError",
    "DegenerateBackwardError",
    "EstimatorReport",
    "ExperimentConfig",
    "GridCoverageError",
    "HullWhiteParams",
    "LatticeWorkspace",
    "MomentSurface",
    "NumericsError",
    "PathRecord",
    "PiecewiseLinear",
    "RegimeRateModel",
    "RngStream",
    "SemiMarkovKernel",
    "SojournDistribution",
    "SolverConfig",
    "TimeGrid",
    "VasicekParams",
    "alternating_kernel",
    "backward_transition_probabilities",
    "cir_joint_laplace",
    "cir_laplace_rate",
    "covariance",
    "covariance_surface",
    "estimate_moments",
    "estimate_rate_moments",
    "estimate_state_occupancy",
    "estimate_zcb_moment",
    "evaluate_product_moment",
    "evaluate_rate_mean",
    "evaluate_zcb_moment",
    "simulate_batch",
    "simulate_path",
    "solve_product_moment",
    "solve_rate_mean",
    "solve_zcb_moment",
    "transition_probabilities",
]

__version__ = "0.1.0"
