"""genrec: latent-code recovery from measurements with sparse gross outliers."""

__version__ = "0.1.0"

from . import generator, harness, measurement, solvers, theory  # noqa: E402
from .generator import (Activation, GeneratorNetwork, compose_linear, forward,
                        jacobian, random_gaussian_net)
from .measurement import MeasurementModel, ProblemInstance, build_instance
from .solvers import (RecoveryResult, SolverConfig, SolverDiverged, metrics,
                      multi_restart, pseudo_inverse, soft_threshold, solve_trials)
from .theory import ConditionReport, estimate_rho_star, k_majority_condition

__all__ = [
    "__version__",
    "Activation", "GeneratorNetwork", "random_gaussian_net", "forward",
    "jacobian", "compose_linear",
    "MeasurementModel", "ProblemInstance", "build_instance",
    "SolverConfig", "RecoveryResult", "SolverDiverged", "soft_threshold",
    "pseudo_inverse", "metrics", "multi_restart", "solve_trials",
    "ConditionReport", "k_majority_condition", "estimate_rho_star",
    "generator", "measurement", "solvers", "theory", "harness",
]
