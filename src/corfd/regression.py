"""Least-squares estimation of the difference-estimator constants, plus the
closed-form diagnostics that describe those estimators.

The bias fit regresses per-perturbation means on ``(1, h^2)``; its intercept
estimates the derivative and its slope the quadratic-bias constant.  The
noise fit inverts the linear relation between resampling variances and
``1/h^2``.  Heteroscedasticity across perturbations is handled by reweighting
rows (bias fit) or multiplying through by ``h^2`` (noise fit).
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
    "fit_var_unweighted",
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

    Residuals are reported on the unweighted scale; with two perturbations
    the fit interpolates and they vanish.
    """

    intercept: float
    slope: float
    residuals: np.ndarray


def fit_bias_wls(h: np.ndarray, means: np.ndarray, sds: np.ndarray) -> BiasFit:
    """Weighted least squares of ``means ~ intercept + slope * h^2``.

    Rows are divided by their standard deviations, then solved by SVD.
    Designs whose singular values give a condition number above 1e12 (for
    instance coincident squared perturbations) are rejected.
    """
    h = np.asarray(h, dtype=float).ravel()
    means = np.asarray(means, dtype=float).ravel()
    sds = np.asarray(sds, dtype=float).ravel()
    if not np.all(sds > 0):
        raise ValueError("weights (standard deviations) must all be positive")
    K = h.size
    if K < 2:
        raise ValueError(f"need at least 2 perturbations, got {K}")
    if means.size != K or sds.size != K:
        raise ValueError("h, means and sds must have equal length")
    design = np.column_stack([np.ones(K), h * h]) / sds[:, None]
    coef, _, _, sv = np.linalg.lstsq(design, means / sds, rcond=None)
    if sv[-1] == 0 or sv[0] / sv[-1] > _MAX_CONDITION:
        raise SingularDesignError(
            f"bias design is numerically singular (condition {sv[0] / max(sv[-1], 1e-300):.2e})"
        )
    intercept, slope = float(coef[0]), float(coef[1])
    return BiasFit(intercept, slope, means - (intercept + slope * h * h))


def fit_var_wls(h: np.ndarray, s2: np.ndarray, n_b: int) -> float:
    """Noise-variance fit with the heteroscedasticity-equalizing reweighting.

    Multiplying the variance relation through by ``h^2`` leaves a constant
    regressor ``(n_b - 1) / (2 n_b^2)``, so the fit reduces to the closed form
    ``2 n_b^2 / (n_b - 1) * mean(h^2 * s2)``.
    """
    h = np.asarray(h, dtype=float).ravel()
    s2 = np.asarray(s2, dtype=float).ravel()
    if h.size < 1 or s2.size != h.size:
        raise ValueError("need matching, nonempty h and s2")
    if n_b < 2:
        raise ValueError(f"need n_b >= 2, got {n_b}")
    return float(2.0 * n_b**2 / (n_b - 1) * np.mean(h * h * s2))


def fit_var_unweighted(h: np.ndarray, s2: np.ndarray, n_b: int) -> float:
    """Noise-variance fit without the ``h^2`` reweighting.

    This is the plain regression of the variance relation; its sampling
    moments are the ones the closed-form ``noise_*`` coefficients of
    :func:`theory_constants` describe, so rate diagnostics use this form.
    """
    h = np.asarray(h, dtype=float).ravel()
    s2 = np.asarray(s2, dtype=float).ravel()
    if h.size < 1 or s2.size != h.size:
        raise ValueError("need matching, nonempty h and s2")
    if n_b < 2:
        raise ValueError(f"need n_b >= 2, got {n_b}")
    x = (n_b - 1) / (2.0 * n_b**2 * h * h)
    return float(np.dot(x, s2) / np.dot(x, x))


def clamp_floor(intercept: float, scale: float) -> float:
    """Clamp threshold: ``scale`` relative to the fitted derivative, at least ``scale``."""
    return scale * max(1.0, abs(intercept))


def clamp_bias_constant(bhat: float, eps: float) -> float:
    """Push the slope estimate away from zero: ``sign(b) * (eps + max(|b| - eps, 0))``.

    Sign-preserving (zero counts as positive), so the derived perturbation
    stays finite without flipping the estimate's direction.
    """
    if not eps > 0:
        raise ValueError(f"clamp threshold must be positive, got {eps}")
    sign = 1.0 if bhat >= 0 else -1.0
    return sign * (eps + max(abs(bhat) - eps, 0.0))


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
    c = np.abs(np.asarray(c, dtype=float).ravel())
    K = c.size
    if K < 2:
        raise ValueError(f"need at least 2 coefficients, got {K}")
    if not np.all(c > 0):
        raise ValueError("coefficients must be nonzero")
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
    """Leading coefficients of the constant estimators' sampling moments.

    For pilot size m and perturbations ``c_k * m**gamma``:

    - slope estimate: bias ~ slope_bias * m**(2*gamma),
      variance ~ slope_var * noise_var / (2 * m**(1 + 6*gamma));
    - intercept estimate: bias ~ intercept_bias * m**(4*gamma),
      variance ~ intercept_var * noise_var / (2 * m**(1 + 2*gamma));
    - unweighted noise fit: bias ~ noise_bias * m**(2*gamma),
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
    """Evaluate the closed-form moment coefficients for coefficients ``c``.

    ``fifth_const`` is the quartic-bias constant of the problem and
    ``noise_slope`` the derivative of the response's standard deviation at
    the evaluation point (only the noise-fit bias uses it).
    """
    c = np.abs(np.asarray(c, dtype=float).ravel())
    K = c.size
    if K < 2 or not np.all(c > 0):
        raise ValueError("need K >= 2 positive coefficients")
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
