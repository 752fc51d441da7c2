"""Least-squares estimation of the difference-estimator constants, plus
closed-form diagnostics of the bias design.

The bias fit regresses per-perturbation means on ``(1, h^2)``; its intercept
estimates the derivative and its slope the quadratic-bias constant.  The
noise fit inverts the linear relation between resampling variances and
``1/h^2``.  Heteroscedasticity across perturbations is handled by reweighting
rows (bias fit) or multiplying through by ``h^2`` (noise fit).  The bias fit
and the diagnostics share one scale-free test that refuses a design whose
squared perturbations barely differ, whatever their size or weights.

The diagnostics describe unweighted fits, not these weighted ones:
:func:`theory_constants` gives the moments of an equal-weight bias fit and of
the plain regression of the noise relation, and
:func:`projection_diagnostics` uses the equal-weight projector.  The
estimators run the weighted fits, whose slope and intercept variances are
smaller.
"""
from __future__ import annotations

from contextlib import contextmanager
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

_MIN_SPREAD = 1e-12


class SingularDesignError(ValueError):
    """The squared perturbations of a bias design barely differ."""


def _spread(wdx: np.ndarray, dx: np.ndarray, wx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum(w * dx**2)`` over the last axis, ``dx`` being ``x = h^2`` less its
    ``w``-weighted mean, from the products ``wdx = w * dx`` and ``wx = w * x``.
    A spread not above 1e-12 of ``sum(w * x**2)`` raises
    :class:`SingularDesignError`; rescaling ``h`` or ``w`` keeps the verdict."""
    sxx = (wdx * dx).sum(axis=-1)
    if not (sxx > _MIN_SPREAD * (wx * x).sum(axis=-1)).all():
        raise SingularDesignError("squared perturbations barely differ (collinear bias design)")
    return sxx


@dataclass(frozen=True)
class BiasFit:
    """Weighted fit of means against ``intercept + slope * h^2``.

    Scalars for one fit; for a stack of fits, arrays with one entry per row.
    """

    intercept: float | np.ndarray
    slope: float | np.ndarray


def fit_bias_wls(h: np.ndarray, means: np.ndarray, sds: np.ndarray) -> BiasFit:
    """Weighted least squares of ``means ~ intercept + slope * h^2``, one fit
    along the last axis of each argument.

    Row ``k`` carries weight ``1 / sds[k]^2``; the two-parameter fit has the
    closed form of a weighted simple regression on ``h^2``.  Squared
    perturbations that barely differ, at any scale of ``h`` and ``sds``, raise
    :class:`SingularDesignError`.
    """
    h = np.asarray(h, dtype=float)
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    if h.ndim == 0 or not h.shape == means.shape == sds.shape:
        raise ValueError("h, means and sds must have equal shapes")
    if h.shape[-1] < 2:
        raise ValueError(f"need at least 2 perturbations, got {h.shape[-1]}")
    if not (sds > 0).all():
        raise ValueError("weights (standard deviations) must all be positive")
    x = h * h
    w = 1.0 / sds
    w *= w
    wx = w * x
    total = w.sum(axis=-1)
    x_mean = wx.sum(axis=-1) / total
    y_mean = (w * means).sum(axis=-1) / total
    dx = x - x_mean[..., None]
    wdx = w * dx
    slope = (wdx * (means - y_mean[..., None])).sum(axis=-1) / _spread(wdx, dx, wx, x)
    intercept = y_mean - slope * x_mean
    return BiasFit(intercept, slope)


def fit_var_wls(h: np.ndarray, s2: np.ndarray, n_b: int) -> float | np.ndarray:
    """Noise-variance fit with the heteroscedasticity-equalizing reweighting,
    one fit along the last axis.

    Multiplying the variance relation through by ``h^2`` leaves a constant
    regressor ``(n_b - 1) / (2 n_b^2)``, so the fit reduces to the closed form
    ``2 n_b^2 / (n_b - 1) * mean(h^2 * s2)``.
    """
    h = np.asarray(h, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if h.ndim == 0 or h.shape[-1] < 1 or s2.shape != h.shape:
        raise ValueError("need matching, nonempty h and s2")
    if n_b < 2:
        raise ValueError(f"need n_b >= 2, got {n_b}")
    return 2.0 * n_b**2 / (n_b - 1) * ((h * h * s2).sum(axis=-1) / h.shape[-1])


def clamp_floor(intercept, scale: float) -> float | np.ndarray:
    """Clamp threshold: ``scale`` relative to the fitted derivative, at least
    ``scale``; elementwise on an array of intercepts."""
    return scale * np.maximum(1.0, np.abs(intercept))


def clamp_bias_constant(bhat, eps) -> float | np.ndarray:
    """Push the slope estimate away from zero: ``sign(b) * max(|b|, eps)``.

    Sign-preserving (zero counts as positive), so the derived perturbation
    stays finite without flipping the estimate's direction.  Slopes at or
    above the floor pass through exactly.  Elementwise on arrays.
    """
    if not (np.asarray(eps) > 0).all():
        raise ValueError(f"clamp threshold must be positive, got {eps}")
    magnitude = np.maximum(np.abs(bhat), eps)
    return np.where(np.asarray(bhat) >= 0, magnitude, -magnitude)


@contextmanager
def _float_range(c):
    """Run diagnostics arithmetic on coefficients ``c``: a step that leaves
    the float range raises a ``ValueError`` naming them, chained to the
    arithmetic error, without a warning."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError as exc:
        named = np.asarray(c, dtype=float).ravel().tolist()
        raise ValueError(
            f"coefficients {named} leave the float range of the diagnostics: {exc}"
        ) from exc


def _checked_coefficients(c) -> np.ndarray:
    """The magnitudes of at least two finite, nonzero coefficients with distinct squares."""
    c = np.asarray(c, dtype=float).ravel()
    if c.size < 2:
        raise ValueError(f"need at least 2 coefficients, got {c.size}")
    bad = c[~(np.isfinite(c) & (c != 0))]
    if bad.size:
        raise ValueError(f"coefficients must be finite and nonzero, got {bad[0]}")
    x = c * c
    dx = x - x.mean()
    _spread(dx, dx, x, x)
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
    perturbations, so the coefficients themselves parameterize it.  Squares
    that barely differ raise :class:`SingularDesignError`, as in the fit, and
    coefficients far enough from 1 that its arithmetic leaves the float range
    raise ``ValueError``.
    """
    with _float_range(c):
        c = _checked_coefficients(c)
        q_basis, _ = np.linalg.qr(np.column_stack([np.ones(c.size), c * c]))
        projector = np.eye(c.size) - q_basis @ q_basis.T
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
    the evaluation point (only the noise-fit bias uses it).  Squares that
    barely differ raise :class:`SingularDesignError`, as in the fit, and
    coefficients whose moment sums (powers up to 16) leave the float range
    raise ``ValueError``.
    """
    with _float_range(c):
        c = _checked_coefficients(c)
        for name, value in (("fifth_const", fifth_const), ("noise_slope", noise_slope)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        K = c.size
        s2, s4, s6 = (float(np.sum(c**p)) for p in (2, 4, 6))
        inv2, inv4, inv8 = (float(np.sum(c**-p)) for p in (2, 4, 8))
        den = K * s4 - s2 * s2
        try:
            return TheoryConstants(
                slope_bias=fifth_const * (K * s6 - s2 * s4) / den,
                slope_var=(-(K**2) * s2 + s2 * s2 * inv2) / den**2,
                intercept_bias=fifth_const * (s4 * s4 - s2 * s6) / den,
                intercept_var=(s2**3 - 2 * K * s4 * s2 + s4 * s4 * inv2) / den**2,
                noise_bias=noise_slope**2 * inv2 / inv4,
                noise_var_coeff=inv8 / inv4**2,
            )
        except OverflowError:
            # Python's float power reports only an errno pair; name the step.
            raise OverflowError("overflow in a power of a moment sum") from None
