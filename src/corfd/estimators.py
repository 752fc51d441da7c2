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

Each takes a coordinate ``coord`` with a generator ``rng`` and returns one
estimate, or a batch: a sequence of coordinates with a
:class:`~corfd.sampling.Streams` level ``rng`` of one row per coordinate (or
a generator for a single coordinate).  A batch returns one estimate per
coordinate, each equal to what a single-coordinate call on the generator of
its row returns, and draws all of its rows in one oracle batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import column_moments
from .oracle import GroundTruth, SimulationOracle
from .regression import clamp_bias_constant, clamp_floor, fit_bias_wls, fit_var_wls
from .sampling import (EstimationError, PerturbationGenerator, difference_samples,
                       draw_perturbation_set, spawn)

__all__ = [
    "EstimationError",
    "BudgetError",
    "EstimatorConfig",
    "ConstantEstimates",
    "GradientEstimate",
    "optimal_perturbation",
    "transform_pilot_sample",
    "tra_cfd",
    "opt_cfd",
    "boot_cfd",
    "cor_cfd",
]


# Optimal pilot-perturbation scaling exponent for the constant-estimation
# stage (the gradient stage itself uses a -1/6 scaling).
DEFAULT_PILOT_EXPONENT = -0.1

# A pilot column whose resampling sd is at most this share of its mean's
# size, or is not finite, is tested for identical samples.
_ROUNDING_SD = 1e-8

# The slope clamp's relative floor (``clamp_floor``'s scale).
_CLAMP_SCALE = 1e-4


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
    column weighted by its bootstrap standard deviation, and its magnitude
    is then raised to at least ``_CLAMP_SCALE`` = 1e-4 times the fitted
    derivative's magnitude (and at least 1e-4).  ``pilot_exponent`` is the
    exponent ``gamma`` in the pilot perturbations ``c_k * n_b**gamma``, and
    ``coeff_gen`` draws the coefficients ``c_k``.
    """

    K: int = 10
    pilot_fraction: float = 1.0
    pilot_size: int | None = None
    bootstrap_reps: int | None = None
    pilot_exponent: float = DEFAULT_PILOT_EXPONENT
    coeff_gen: PerturbationGenerator = field(default_factory=PerturbationGenerator)

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

    def resolve_pilot_size(self, n: int) -> int:
        """Pairs per pilot perturbation for a total budget of ``n`` pairs."""
        if self.pilot_size is not None:
            n_b = int(self.pilot_size)
        else:
            n_b = math.floor(self.pilot_fraction * n / self.K)
        if n_b < 2:
            raise BudgetError(
                f"budget {n} leaves fewer than 2 pilot pairs per perturbation (K={self.K})"
            )
        if self.K * n_b > n:
            raise BudgetError(
                f"pilot stage needs {self.K * n_b} pairs but the budget is {n}"
            )
        return n_b


@dataclass
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


@dataclass
class GradientEstimate:
    """A derivative estimate with its provenance."""

    value: float
    method: str
    pairs_used: int
    perturbation: float
    constants: ConstantEstimates | None = None


def optimal_perturbation(noise_var: float, bias_const: float, n: int) -> float:
    """Perturbation minimizing the asymptotic mean squared error at budget
    ``n``: finite and positive, or an :class:`EstimationError`."""
    if bias_const == 0:
        raise ValueError("bias constant must be nonzero")
    if n < 1:
        raise ValueError(f"budget must be >= 1, got {n}")
    try:
        h = float((noise_var / (4.0 * n * bias_const**2)) ** (1.0 / 6.0))
    except (OverflowError, ZeroDivisionError):
        raise EstimationError(
            f"bias constant {bias_const:.6g} is out of range: its square overflows or underflows"
        ) from None
    if not 0 < h < math.inf:
        raise EstimationError(
            f"noise variance {noise_var:.6g} and bias constant {bias_const:.6g} at {n} pairs "
            f"give the perturbation {h:.6g}, which is not finite and positive"
        )
    return h


def transform_pilot_sample(
    samples: np.ndarray,
    h: np.ndarray,
    h_n: float | np.ndarray,
    deriv: float | np.ndarray,
    bias_const: float | np.ndarray,
) -> np.ndarray:
    """Map pilot difference samples to the target perturbation ``h_n``.

    Row ``k`` of ``samples`` was drawn at perturbation ``h[k]``.  Each sample
    is centered at its fitted mean, rescaled by the perturbation ratio
    (standard deviations scale like ``1/h``), and recentered at the fitted
    mean of the target perturbation.  For a stack of coordinates,
    ``samples`` is ``(m, K, n_b)``, ``h`` is ``(m, K)``, and ``h_n``,
    ``deriv`` and ``bias_const`` hold one value per coordinate.
    """
    if np.any(np.asarray(h_n) == 0):
        raise ValueError("target perturbation must be nonzero")
    h = np.asarray(h, dtype=float)
    h_n, deriv, bias_const = (
        np.asarray(v, dtype=float)[..., None] for v in (h_n, deriv, bias_const)
    )
    fitted = deriv + bias_const * h * h
    fitted_n = deriv + bias_const * h_n * h_n
    ratio = np.abs(h) / np.abs(h_n)
    out = np.subtract(samples, fitted[..., None])
    out *= ratio[..., None]
    out += fitted_n[..., None]
    return out


@dataclass
class _PilotStage:
    """Pilot stage of ``m`` coordinates, one row per coordinate: the
    perturbations ``h`` (m, K), the samples (m, K, n_b), and the fitted
    constants with the target perturbation for ``budget`` pairs."""

    h: np.ndarray
    samples: np.ndarray
    deriv: np.ndarray
    bias_const: np.ndarray
    bias_const_raw: np.ndarray
    noise_var: np.ndarray
    perturbation: np.ndarray
    budget: int

    def constants(self) -> list[ConstantEstimates]:
        rows = zip(self.deriv.tolist(), self.bias_const.tolist(), self.bias_const_raw.tolist(),
                   self.noise_var.tolist(), self.perturbation.tolist())
        return [ConstantEstimates(*row, self.budget) for row in rows]


def _pilot_stage(
    oracle: SimulationOracle,
    theta0,
    coords: list[int],
    n: int,
    cfg: EstimatorConfig,
    streams,
    budget: int,
) -> _PilotStage:
    """Run the pilot stage for coordinate ``coords[j]`` on row ``j`` of
    ``streams``, a :class:`~corfd.sampling.Streams` level with one row per
    coordinate.

    Each stream spawns its coefficient, pilot and bootstrap streams, and the
    pilot stream one stream per column, as a single-coordinate run does;
    the pilot columns of all coordinates are then drawn in one batch.
    """
    n_b = cfg.resolve_pilot_size(n)
    K = cfg.K
    children = spawn(streams, 3)
    m = len(children) // 3
    rngs = children[0::3].generators(children[1::3].spawn(K))
    coefficients = draw_perturbation_set(K, cfg.coeff_gen, rngs[:m])
    try:
        h = coefficients * float(n_b) ** cfg.pilot_exponent
    except OverflowError:
        raise EstimationError(
            f"pilot perturbations c * n_b**gamma overflow: n_b = {n_b}, "
            f"pilot_exponent (gamma) = {cfg.pilot_exponent}"
        ) from None
    block = difference_samples(oracle, theta0, np.repeat(coords, K), h.ravel(), rngs[m:], n_b)
    # Each coordinate resamples its own columns from its own stream.
    boot_rngs = None if cfg.bootstrap_reps is None else children[2::3].generators()
    # On a steep response the square of a rounding-sized deviation can
    # overflow: that column's sd is infinite, and the exact test below runs.
    with np.errstate(over="ignore"):
        means, variances = column_moments(block, cfg.bootstrap_reps, boot_rngs)
    means, variances = means.reshape(m, K), variances.reshape(m, K)
    samples = block.reshape(m, K, n_b)
    sds = np.sqrt(variances)
    # Only a column of identical samples counts as deterministic.  A
    # tolerance on the resampling variance would scale with the derivative
    # and flag honest noise on steep responses.  Identical samples have a
    # resampling sd of a few rounding errors of their mean at most, far
    # below _ROUNDING_SD times it, so the exact test runs only when some
    # column's sd is that small, infinite or not a number.
    # The pre-test is for speed: without it a dfo operation is 5.0% slower.
    noise_free = np.zeros(m, dtype=bool)
    if not (np.isfinite(sds) & (sds > _ROUNDING_SD * np.abs(means))).all():
        degenerate = np.ptp(samples, axis=-1) == 0
        noise_free = degenerate.all(axis=-1)
        if np.any(degenerate.any(axis=-1) & ~noise_free):
            raise EstimationError(
                "a pilot column has zero resampling variance while others do not; "
                "the noisy-response model does not hold for this oracle"
            )
        # Noise-free pilots carry no weighting information: fit with equal weights.
        sds[noise_free] = 1.0
    # Distinct samples with zero variance (underflow at far pilots, or a few
    # tying Monte Carlo resamples) or a product overflowing leave no fit.
    try:
        with np.errstate(over="raise", invalid="raise"):
            if not (sds > 0).all():
                raise FloatingPointError("a pilot column of distinct samples has zero variance")
            bias_fit = fit_bias_wls(h, means, sds)
            noise_var = fit_var_wls(h, variances, n_b)
    except FloatingPointError as exc:
        raise EstimationError(
            f"constant fits fail at pilot perturbations up to {h.max():.6g} (n_b = {n_b}, "
            f"pilot_exponent (gamma) = {cfg.pilot_exponent}): {exc}"
        ) from None
    noise_var[noise_free] = 0.0
    clamped = clamp_bias_constant(bias_fit.slope, clamp_floor(bias_fit.intercept, _CLAMP_SCALE))
    # Zero estimated noise makes the error-optimal perturbation degenerate.
    # The largest pilot perturbation keeps every transform ratio at most
    # one, so the downstream error stays within the clamped-slope times
    # squared-perturbation bound.  Only noisy coordinates compute the
    # error-optimal one, so a noise-free slope out of range does not fail.
    h_n = h.max(axis=-1)
    v, b = noise_var.tolist(), clamped.tolist()
    for j, free in enumerate(noise_free.tolist()):
        if not free:
            h_n[j] = optimal_perturbation(v[j], b[j], budget)
    return _PilotStage(
        h, samples, bias_fit.intercept, clamped, bias_fit.slope, noise_var, h_n, budget
    )


def _batch(coord, rows: int) -> tuple[list, bool]:
    """The coordinates of a call, and whether it was given a single one;
    ``rows`` streams come with them, one per coordinate."""
    single = isinstance(coord, (int, np.integer))
    coords = [coord] if single else list(coord)
    if rows != len(coords):
        raise ValueError(f"need one stream per coordinate, got {rows} for {len(coords)}")
    return coords, single


def _estimates(method: str, n: int, values: np.ndarray, h: np.ndarray, constants, single: bool):
    """One estimate per coordinate, or the only one of a single-coordinate call."""
    rows = [GradientEstimate(value, method, n, step, c)
            for value, step, c in zip(values.tolist(), h.tolist(), constants)]
    return rows[0] if single else rows


def _difference_estimates(method, oracle, theta0, coord, n: int, h: float, rng):
    """``tra`` and ``opt``: the average of ``n`` pairs at perturbation ``h``,
    drawn from the generator of each row of ``rng``."""
    if n < 1:
        raise ValueError(f"need n >= 1 pairs, got {n}")
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng.generators()
    coords, single = _batch(coord, len(rngs))
    steps = np.full(len(coords), float(h))
    values = difference_samples(oracle, theta0, coords, steps, rngs, n).mean(axis=-1)
    return _estimates(method, n, values, steps, [None] * len(coords), single)


def tra_cfd(
    oracle: SimulationOracle,
    theta0,
    coord,
    n: int,
    h: float,
    rng,
) -> GradientEstimate | list[GradientEstimate]:
    """Plain difference estimator: average of ``n`` pairs at perturbation ``h``."""
    return _difference_estimates("tra", oracle, theta0, coord, n, h, rng)


def opt_cfd(
    oracle: SimulationOracle,
    theta0,
    coord,
    n: int,
    truth: GroundTruth,
    rng,
) -> GradientEstimate | list[GradientEstimate]:
    """Difference estimator at the perturbation computed from true constants.

    Refuses to run when the required constants are unknown: silently
    substituted defaults would fake an oracle baseline.
    """
    if truth is None or truth.bias_const is None or truth.noise_var is None:
        raise ValueError("opt method needs the true bias constant and noise variance")
    if truth.bias_const == 0:
        raise ValueError("opt method is undefined for a zero bias constant")
    h_star = optimal_perturbation(truth.noise_var, truth.bias_const, n)
    return _difference_estimates("opt", oracle, theta0, coord, n, h_star, rng)


def _pilot_then_fresh(oracle, theta0, coord, n, cfg, rng, budget):
    """The two stages that ``boot`` and ``cor`` share.

    Each row of ``rng`` spawns two children, as ``rng.spawn(2)`` would: the
    pilot stage, whose target perturbation is for ``budget`` pairs, runs on
    the first, and the ``n - K*n_b`` fresh pairs at that perturbation are
    drawn from the second.  Returns the pilot stage, the sum of each row's
    fresh quotients (``None`` without fresh pairs), and whether the call was
    given a single coordinate.
    """
    children = spawn(rng, 2)
    coords, single = _batch(coord, len(children) // 2)
    stage = _pilot_stage(oracle, theta0, coords, n, cfg, children[0::2], budget)
    n2 = n - stage.samples[0].size
    fresh = None
    if n2 > 0:
        fresh_rngs = children[1::2].generators()
        fresh = difference_samples(
            oracle, theta0, coords, stage.perturbation, fresh_rngs, n2
        ).sum(axis=-1)
    return stage, fresh, single


def boot_cfd(
    oracle: SimulationOracle,
    theta0,
    coord,
    n: int,
    cfg: EstimatorConfig,
    rng,
) -> GradientEstimate | list[GradientEstimate]:
    """Two-stage estimator that discards its pilots.

    The perturbation is derived from the leftover budget ``n - K*n_b`` and
    only that many fresh pairs enter the average; the pilot pairs still count
    against the budget.
    """
    n_b = cfg.resolve_pilot_size(n)
    n2 = n - cfg.K * n_b
    if n2 < 1:
        raise BudgetError(
            f"budget {n} leaves no fresh pairs after {cfg.K * n_b} pilot pairs; boot "
            "needs pilot_fraction (r) below 1 or a smaller pilot_size (n_b)"
        )
    stage, fresh, single = _pilot_then_fresh(oracle, theta0, coord, n, cfg, rng, n2)
    return _estimates("boot", n, fresh / n2, stage.perturbation, stage.constants(), single)


def cor_cfd(
    oracle: SimulationOracle,
    theta0,
    coord,
    n: int,
    cfg: EstimatorConfig,
    rng,
) -> GradientEstimate | list[GradientEstimate]:
    """Correlation-induced estimator: the full pipeline.

    Pilot samples estimate the constants and the optimal perturbation for the
    *full* budget ``n``; every pilot sample is then transformed to that
    perturbation and averaged with the ``n - K*n_b`` fresh pairs.  Spending
    the entire budget on pilots (no fresh pairs) is valid.
    """
    stage, fresh, single = _pilot_then_fresh(oracle, theta0, coord, n, cfg, rng, n)
    h_n = stage.perturbation
    transformed = transform_pilot_sample(stage.samples, stage.h, h_n, stage.deriv, stage.bias_const)
    total = transformed.reshape(len(h_n), -1).sum(axis=-1)
    if fresh is not None:
        total += fresh
    return _estimates("cor", n, total / n, h_n, stage.constants(), single)
