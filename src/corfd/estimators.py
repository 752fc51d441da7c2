"""Central-difference gradient estimators.

Four methods share one interface:

- ``tra``: average of difference samples at a caller-chosen perturbation;
- ``opt``: the same, at the perturbation computed from the problem's true
  constants (an oracle baseline);
- ``boot``: pilot stage estimates the constants, the pilots are discarded,
  and the remaining budget is spent at the estimated perturbation;
- ``cor``: pilot stage as above, then every pilot sample is location-scale
  mapped to the estimated perturbation and averaged together with the fresh
  samples, so the whole budget contributes.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bootstrap import column_moments
from .oracle import GroundTruth, SimulationOracle
from .regression import clamp_bias_constant, clamp_floor, fit_bias_wls, fit_var_wls
from .sampling import (
    DEFAULT_PILOT_EXPONENT,
    PerturbationGenerator,
    PerturbationSet,
    difference_samples,
    draw_perturbation_set,
)

__all__ = [
    "EstimationError",
    "BudgetError",
    "EstimatorConfig",
    "PilotData",
    "ConstantEstimates",
    "GradientEstimate",
    "optimal_perturbation",
    "transform_pilot_sample",
    "tra_cfd",
    "opt_cfd",
    "boot_cfd",
    "cor_cfd",
    "estimate_constants",
]


class EstimationError(ValueError):
    """The constant-estimation stage produced unusable values."""


class BudgetError(ValueError):
    """The sample-pair budget cannot accommodate the requested split."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the pilot/constant-estimation stage.

    The paper's symbols, which are also the CLI keys, are ``K`` pilot
    perturbations, ``r`` (``pilot_fraction``, the share of the budget spent
    on pilots), ``n_b`` (``pilot_size``, pairs per pilot perturbation, which
    wins over ``r`` when set) and ``I`` (``bootstrap_reps``).  The default
    spends the whole budget on pilots, which the transformation step then
    recycles.  With ``bootstrap_reps`` unset the bootstrap moments of each
    pilot column take their closed form; a count ``I`` estimates them from
    ``I`` Monte Carlo resamples per column instead, as in the paper.  The
    bias constant is always fitted by weighted least squares, each pilot
    column weighted by its bootstrap standard deviation.
    """

    K: int = 10
    pilot_fraction: float = 1.0
    pilot_size: int | None = None
    bootstrap_reps: int | None = None
    pilot_exponent: float = DEFAULT_PILOT_EXPONENT
    coeff_gen: PerturbationGenerator = field(default_factory=PerturbationGenerator)
    clamp_scale: float = 1e-4

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if not 0 < self.pilot_fraction <= 1:
            raise ValueError(f"pilot_fraction (r) must be in (0, 1], got {self.pilot_fraction}")
        if self.pilot_size is not None and self.pilot_size < 2:
            raise ValueError(f"pilot_size (n_b) must be >= 2, got {self.pilot_size}")
        if self.bootstrap_reps is not None and self.bootstrap_reps < 2:
            raise ValueError(f"bootstrap_reps (I) must be >= 2, got {self.bootstrap_reps}")
        if not np.isfinite(self.pilot_exponent):
            raise ValueError(f"pilot_exponent (gamma) must be finite, got {self.pilot_exponent}")
        if not 0 < self.clamp_scale < np.inf:
            raise ValueError(f"clamp_scale must be finite and positive, got {self.clamp_scale}")

    def resolve_pilot_size(self, n: int) -> int:
        """Pairs per pilot perturbation for a total budget of ``n`` pairs."""
        if self.pilot_size is not None:
            n_b = int(self.pilot_size)
        else:
            n_b = int(np.floor(self.pilot_fraction * n / self.K))
        if n_b < 2:
            raise BudgetError(
                f"budget {n} leaves fewer than 2 pilot pairs per perturbation (K={self.K})"
            )
        if self.K * n_b > n:
            raise BudgetError(
                f"pilot stage needs {self.K * n_b} pairs but the budget is {n}"
            )
        return n_b


@dataclass(frozen=True)
class PilotData:
    """Difference samples of the pilot stage: row ``k`` holds the samples at
    perturbation ``k``.  The pair cost is exactly ``K * n_b``."""

    perturbations: PerturbationSet
    samples: np.ndarray

    @property
    def pair_cost(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class ConstantEstimates:
    """Outputs of the constant-estimation stage.

    ``bias_const`` is the clamped slope used everywhere downstream;
    ``bias_const_raw`` keeps the unclamped fit for inspection.
    ``perturbation`` is derived from ``budget`` sample pairs.
    """

    deriv: float
    bias_const: float
    bias_const_raw: float
    noise_var: float
    perturbation: float
    budget: int


@dataclass(frozen=True)
class GradientEstimate:
    """A derivative estimate with its provenance."""

    value: float
    method: str
    pairs_used: int
    perturbation: float
    constants: ConstantEstimates | None = None


def optimal_perturbation(noise_var: float, bias_const: float, n: int) -> float:
    """Perturbation minimizing the asymptotic mean squared error at budget ``n``."""
    if bias_const == 0:
        raise ValueError("bias constant must be nonzero")
    if n < 1:
        raise ValueError(f"budget must be >= 1, got {n}")
    return float((noise_var / (4.0 * n * bias_const**2)) ** (1.0 / 6.0))


def transform_pilot_sample(
    samples: np.ndarray, h: np.ndarray, h_n: float, deriv: float, bias_const: float
) -> np.ndarray:
    """Map pilot difference samples to the target perturbation ``h_n``.

    Row ``k`` of ``samples`` was drawn at perturbation ``h[k]``.  Each sample
    is centered at its fitted mean, rescaled by the perturbation ratio
    (standard deviations scale like ``1/h``), and recentered at the fitted
    mean of the target perturbation.
    """
    if h_n == 0:
        raise ValueError("target perturbation must be nonzero")
    h = np.asarray(h, dtype=float)
    fitted = deriv + bias_const * h * h
    fitted_n = deriv + bias_const * h_n * h_n
    return (np.abs(h) / abs(h_n))[:, None] * (samples - fitted[:, None]) + fitted_n


def _pilot_matrix(
    oracle: SimulationOracle,
    theta0,
    coord: int,
    pert: PerturbationSet,
    rng: np.random.Generator,
) -> np.ndarray:
    columns = rng.spawn(pert.size)
    return np.stack(
        [
            difference_samples(oracle, theta0, coord, float(h), columns[k], pert.pilot_size)
            for k, h in enumerate(pert.perturbations)
        ]
    )


def _fit_constants(
    pilot: PilotData, budget: int, cfg: EstimatorConfig, boot_rng: np.random.Generator
) -> ConstantEstimates:
    pert = pilot.perturbations
    n_b = pert.pilot_size
    means, variances = column_moments(pilot.samples, cfg.bootstrap_reps, boot_rng)
    # Only a column of identical samples counts as deterministic.  A
    # tolerance on the resampling variance would scale with the derivative
    # and flag honest noise on steep responses.
    degenerate = np.ptp(pilot.samples, axis=1) == 0
    noise_free = bool(np.all(degenerate))
    if np.any(degenerate) and not noise_free:
        raise EstimationError(
            "a pilot column has zero resampling variance while others do not; "
            "the noisy-response model does not hold for this oracle"
        )
    # Noise-free pilots carry no weighting information: fit with equal weights.
    sds = np.ones_like(variances) if noise_free else np.sqrt(variances)
    bias_fit = fit_bias_wls(pert.perturbations, means, sds)
    noise_var = 0.0 if noise_free else fit_var_wls(pert.perturbations, variances, n_b)
    clamped = clamp_bias_constant(bias_fit.slope, clamp_floor(bias_fit.intercept, cfg.clamp_scale))
    if not noise_free:
        h_n = optimal_perturbation(noise_var, clamped, budget)
    else:
        # Zero estimated noise makes the error-optimal perturbation
        # degenerate.  The largest pilot perturbation keeps every transform
        # ratio at most one, so the downstream error stays within the
        # clamped-slope times squared-perturbation bound.
        h_n = float(np.max(pert.perturbations))
    return ConstantEstimates(
        deriv=bias_fit.intercept,
        bias_const=clamped,
        bias_const_raw=bias_fit.slope,
        noise_var=noise_var,
        perturbation=h_n,
        budget=budget,
    )


def estimate_constants(
    oracle: SimulationOracle,
    theta0,
    coord: int,
    n: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    budget: int | None = None,
) -> tuple[ConstantEstimates, PilotData]:
    """Run the pilot stage: draw perturbations and samples, fit the constants,
    and derive the perturbation for ``budget`` (default: ``n``) pairs."""
    n_b = cfg.resolve_pilot_size(n)
    coeff_rng, pilot_rng, boot_rng = rng.spawn(3)
    pert = draw_perturbation_set(cfg.K, n_b, cfg.coeff_gen, coeff_rng, cfg.pilot_exponent)
    pilot = PilotData(pert, _pilot_matrix(oracle, theta0, coord, pert, pilot_rng))
    constants = _fit_constants(pilot, n if budget is None else budget, cfg, boot_rng)
    return constants, pilot


def tra_cfd(
    oracle: SimulationOracle,
    theta0,
    coord: int,
    n: int,
    h: float,
    rng: np.random.Generator,
) -> GradientEstimate:
    """Plain difference estimator: average of ``n`` pairs at perturbation ``h``."""
    if n < 1:
        raise ValueError(f"need n >= 1 pairs, got {n}")
    value = float(difference_samples(oracle, theta0, coord, h, rng, n).mean())
    return GradientEstimate(value, "tra", n, float(h))


def opt_cfd(
    oracle: SimulationOracle,
    theta0,
    coord: int,
    n: int,
    truth: GroundTruth,
    rng: np.random.Generator,
) -> GradientEstimate:
    """Difference estimator at the perturbation computed from true constants.

    Refuses to run when the required constants are unknown: silently
    substituted defaults would fake an oracle baseline.
    """
    if truth is None or truth.bias_const is None or truth.noise_var is None:
        raise ValueError("opt method needs the true bias constant and noise variance")
    if truth.bias_const == 0:
        raise ValueError("opt method is undefined for a zero bias constant")
    h_star = optimal_perturbation(truth.noise_var, truth.bias_const, n)
    est = tra_cfd(oracle, theta0, coord, n, h_star, rng)
    return replace(est, method="opt")


def boot_cfd(
    oracle: SimulationOracle,
    theta0,
    coord: int,
    n: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> GradientEstimate:
    """Two-stage estimator that discards its pilots.

    The perturbation is derived from the leftover budget ``n - K*n_b`` and
    only that many fresh pairs enter the average; the pilot pairs still count
    against the budget.
    """
    n_b = cfg.resolve_pilot_size(n)
    n2 = n - cfg.K * n_b
    if n2 < 1:
        raise BudgetError(
            f"budget {n} leaves no fresh pairs after {cfg.K * n_b} pilot pairs"
        )
    est_rng, fresh_rng = rng.spawn(2)
    constants, _ = estimate_constants(oracle, theta0, coord, n, cfg, est_rng, budget=n2)
    fresh = difference_samples(oracle, theta0, coord, constants.perturbation, fresh_rng, n2)
    return GradientEstimate(float(fresh.mean()), "boot", n, constants.perturbation, constants)


def cor_cfd(
    oracle: SimulationOracle,
    theta0,
    coord: int,
    n: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> GradientEstimate:
    """Correlation-induced estimator: the full pipeline.

    Pilot samples estimate the constants and the optimal perturbation for the
    *full* budget ``n``; every pilot sample is then transformed to that
    perturbation and averaged with the ``n - K*n_b`` fresh pairs.  Spending
    the entire budget on pilots (no fresh pairs) is valid.
    """
    est_rng, fresh_rng = rng.spawn(2)
    constants, pilot = estimate_constants(oracle, theta0, coord, n, cfg, est_rng, budget=n)
    h_n = constants.perturbation
    if h_n == 0:
        raise EstimationError("estimated perturbation is zero")
    transformed = transform_pilot_sample(
        pilot.samples, pilot.perturbations.perturbations, h_n,
        constants.deriv, constants.bias_const,
    )
    n2 = n - pilot.pair_cost
    fresh = (
        difference_samples(oracle, theta0, coord, h_n, fresh_rng, n2)
        if n2 > 0
        else np.empty(0)
    )
    value = (float(transformed.sum()) + float(fresh.sum())) / n
    return GradientEstimate(value, "cor", n, h_n, constants)
