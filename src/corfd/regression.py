"""Least-squares estimation of the difference-estimator constants, plus
closed-form diagnostics of the bias design.

The bias fit regresses per-perturbation means on ``(1, h^2)``; its intercept
estimates the derivative and its slope the quadratic-bias constant.  The
noise fit inverts the linear relation between resampling variances and
``1/h^2``.  Heteroscedasticity across perturbations is handled by reweighting
rows (bias fit) or multiplying through by ``h^2`` (noise fit).

The diagnostics describe unweighted fits, not these weighted ones:
:func:`theory_constants` gives the moments of an equal-weight bias fit and of
the plain regression of the noise relation, and
:func:`projection_diagnostics` uses the equal-weight projector.  The
estimators run the weighted fits, whose slope and intercept variances are
smaller.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularDesignError",
    "BiasFit",
    "ProjectionDiagnostics",
    "TheoryConstants",
    "fit_bias_wls",
    "fit_var_wls",
    "clamp_bias_constant",
    "clamp_floor",
    "projection_diagnostics",
    "theory_constants",
]

_MAX_CONDITION = 1e12


class SingularDesignError(ValueError):
    """The regression design is (numerically) rank deficient."""


@dataclass(frozen=True)
class BiasFit:
    """Weighted fit of means against ``intercept + slope * h^2``.

    Floats for one fit; for a stack of fits, arrays with one entry per row.
    Residuals are reported on the unweighted scale; with two perturbations
    the fit interpolates and they vanish.
    """

    intercept: float | np.ndarray
    slope: float | np.ndarray
    residuals: np.ndarray


def _float_if_scalar(value: np.ndarray) -> float | np.ndarray:
    return float(value) if np.ndim(value) == 0 else value


def fit_bias_wls(h: np.ndarray, means: np.ndarray, sds: np.ndarray) -> BiasFit:
    """Weighted least squares of ``means ~ intercept + slope * h^2``, one fit
    along the last axis of each argument.

    Row ``k`` carries weight ``1 / sds[k]^2``; the two-parameter fit has the
    closed form of a weighted simple regression on ``h^2``.  Designs whose
    row-scaled singular values give a condition number above 1e12 (for
    instance coincident squared perturbations) are rejected.  1-D input
    gives a float intercept and slope.
    """
    h = np.asarray(h, dtype=float)
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    if h.ndim == 0 or not h.shape == means.shape == sds.shape:
        raise ValueError("h, means and sds must have equal shapes")
    if h.shape[-1] < 2:
        raise ValueError(f"need at least 2 perturbations, got {h.shape[-1]}")
    if not np.all(sds > 0):
        raise ValueError("weights (standard deviations) must all be positive")
    x = h * h
    inv = 1.0 / sds
    design = np.empty(h.shape + (2,))
    design[..., 0] = inv
    np.multiply(x, inv, out=design[..., 1])
    sv = np.linalg.svd(design, compute_uv=False)
    if (sv[..., 0] > _MAX_CONDITION * sv[..., 1]).any():
        condition = np.max(sv[..., 0] / np.maximum(sv[..., 1], 1e-300))
        raise SingularDesignError(
            f"bias design is numerically singular (condition {condition:.2e})"
        )
    w = inv * inv
    total = w.sum(axis=-1)
    x_mean = (w * x).sum(axis=-1) / total
    y_mean = (w * means).sum(axis=-1) / total
    dx = x - x_mean[..., None]
    slope = (w * dx * (means - y_mean[..., None])).sum(axis=-1) / (w * dx * dx).sum(axis=-1)
    intercept = y_mean - slope * x_mean
    residuals = means - (intercept[..., None] + slope[..., None] * x)
    return BiasFit(_float_if_scalar(intercept), _float_if_scalar(slope), residuals)


def fit_var_wls(h: np.ndarray, s2: np.ndarray, n_b: int) -> float | np.ndarray:
    """Noise-variance fit with the heteroscedasticity-equalizing reweighting,
    one fit along the last axis.

    Multiplying the variance relation through by ``h^2`` leaves a constant
    regressor ``(n_b - 1) / (2 n_b^2)``, so the fit reduces to the closed form
    ``2 n_b^2 / (n_b - 1) * mean(h^2 * s2)``.  1-D input gives a float.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    s2 = np.atleast_1d(np.asarray(s2, dtype=float))
    if h.size < 1 or s2.shape != h.shape:
        raise ValueError("need matching, nonempty h and s2")
    if n_b < 2:
        raise ValueError(f"need n_b >= 2, got {n_b}")
    return _float_if_scalar(2.0 * n_b**2 / (n_b - 1) * ((h * h * s2).sum(axis=-1) / h.shape[-1]))


def clamp_floor(intercept, scale: float) -> float | np.ndarray:
    """Clamp threshold: ``scale`` relative to the fitted derivative, at least
    ``scale``; elementwise on an array of intercepts."""
    return _float_if_scalar(scale * np.maximum(1.0, np.abs(intercept)))


def clamp_bias_constant(bhat, eps) -> float | np.ndarray:
    """Push the slope estimate away from zero: ``sign(b) * max(|b|, eps)``.

    Sign-preserving (zero counts as positive), so the derived perturbation
    stays finite without flipping the estimate's direction.  Slopes at or
    above the floor pass through exactly.  Elementwise on arrays.
    """
    if not np.all(np.asarray(eps) > 0):
        raise ValueError(f"clamp threshold must be positive, got {eps}")
    magnitude = np.maximum(np.abs(bhat), eps)
    return _float_if_scalar(np.where(np.asarray(bhat) >= 0, magnitude, -magnitude))


def _checked_coefficients(c) -> np.ndarray:
    """The magnitudes of at least two finite, nonzero coefficients."""
    c = np.asarray(c, dtype=float).ravel()
    if c.size < 2:
        raise ValueError(f"need at least 2 coefficients, got {c.size}")
    bad = c[~(np.isfinite(c) & (c != 0))]
    if bad.size:
        raise ValueError(f"coefficients must be finite and nonzero, got {bad[0]}")
    return np.abs(c)


@dataclass(frozen=True)
class ProjectionDiagnostics:
    """Residual projector of the bias design and its derived constants.

    ``residual_projector`` annihilates the span of ``(1, c^2)``;
    ``bias_shift`` (c' P c^4) drives the estimator's extra bias term and
    ``variance_factor`` (||Diag(1/c) P c||^2) its variance change: values
    below K mean variance reduction.
    """

    residual_projector: np.ndarray
    bias_shift: float
    variance_factor: float


def projection_diagnostics(c: np.ndarray) -> ProjectionDiagnostics:
    """Diagnostics of the design with columns ``(1, c_k^2)``.

    The column space is invariant to the pilot-size scaling of the actual
    perturbations, so the coefficients themselves parameterize it.
    """
    c = _checked_coefficients(c)
    K = c.size
    design = np.column_stack([np.ones(K), c * c])
    if np.linalg.matrix_rank(design) < 2:
        raise SingularDesignError("coefficients have coincident squares")
    q_basis, _ = np.linalg.qr(design)
    projector = np.eye(K) - q_basis @ q_basis.T
    bias_shift = float(c @ projector @ c**4)
    variance_factor = float(np.sum((projector @ c / c) ** 2))
    return ProjectionDiagnostics(projector, bias_shift, variance_factor)


@dataclass(frozen=True)
class TheoryConstants:
    """Leading coefficients of the sampling moments of the unweighted constant
    fits: an equal-weight bias fit, and the noise fit without the ``h^2``
    reweighting.  Neither is the weighted fit the estimators run.

    For pilot size m and perturbations ``c_k * m**gamma``:

    - slope estimate: bias ~ slope_bias * m**(2*gamma),
      variance ~ slope_var * noise_var / (2 * m**(1 + 6*gamma));
    - intercept estimate: bias ~ intercept_bias * m**(4*gamma),
      variance ~ intercept_var * noise_var / (2 * m**(1 + 2*gamma));
    - noise estimate: bias ~ noise_bias * m**(2*gamma),
      variance ~ noise_var_coeff * (4*nu4*(m-1) - sigma^4*(m-3)) / (m*(m-1)),
      with nu4 the limiting fourth moment of the scaled difference error.
    """

    slope_bias: float
    slope_var: float
    intercept_bias: float
    intercept_var: float
    noise_bias: float
    noise_var_coeff: float


def theory_constants(c: np.ndarray, fifth_const: float, noise_slope: float) -> TheoryConstants:
    """Evaluate the closed-form moment coefficients of the unweighted fits
    (see :class:`TheoryConstants`) for coefficients ``c``.

    ``fifth_const`` is the quartic-bias constant of the problem and
    ``noise_slope`` the derivative of the response's standard deviation at
    the evaluation point (only the noise-fit bias uses it).
    """
    c = _checked_coefficients(c)
    for name, value in (("fifth_const", fifth_const), ("noise_slope", noise_slope)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    K = c.size
    s2, s4, s6 = (float(np.sum(c**p)) for p in (2, 4, 6))
    inv2, inv4, inv8 = (float(np.sum(c**-p)) for p in (2, 4, 8))
    den = K * s4 - s2 * s2
    if abs(den) <= 1e-12 * K * s4:
        raise SingularDesignError("coefficients give a collinear design")
    return TheoryConstants(
        slope_bias=fifth_const * (K * s6 - s2 * s4) / den,
        slope_var=(-(K**2) * s2 + s2 * s2 * inv2) / den**2,
        intercept_bias=fifth_const * (s4 * s4 - s2 * s6) / den,
        intercept_var=(s2**3 - 2 * K * s4 * s2 + s4 * s4 * inv2) / den**2,
        noise_bias=noise_slope**2 * inv2 / inv4,
        noise_var_coeff=inv8 / inv4**2,
    )
