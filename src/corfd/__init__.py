"""Correlation-induced central finite-difference gradient estimation.

Estimates derivatives of noisy black-box functions by (1) bootstrapping the
bias and noise constants of the central-difference estimator from pilot
samples, (2) deriving the error-optimal perturbation from those constants,
and (3) recycling the pilot samples at that perturbation through a
location-scale transformation.  A derivative-free L-BFGS optimizer and a
replicated benchmark harness build on the estimator.
"""

from .bench import ExperimentConfig, SummaryStats, emit_csv, run_replications, summarize
from .dfo import DfoConfig, DfoTrace, batch_schedule, corcfd_lbfgs, gradient_via_corcfd, stochastic_armijo, two_loop_direction
from .estimators import (
    ConstantEstimates,
    EstimatorConfig,
    GradientEstimate,
    boot_cfd,
    cor_cfd,
    opt_cfd,
    optimal_perturbation,
    tra_cfd,
    transform_pilot_sample,
)
from .oracle import (
    GroundTruth,
    Problem,
    QueueSpec,
    SimulationOracle,
    noisy_bench_oracle,
    parse_problem,
    poly_oracle,
    queue_oracle,
    sin_oracle,
)
from .regression import (
    clamp_bias_constant,
    fit_bias_wls,
    fit_var_wls,
    projection_diagnostics,
    theory_constants,
)
from .sampling import (
    PerturbationGenerator,
    difference_samples,
    draw_perturbation_set,
    stream,
)

__version__ = "0.1.0"
