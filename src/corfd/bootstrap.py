"""Resampling mean and variance of the central-difference estimator.

Given one pilot column (the difference samples at a single perturbation),
the resampled estimator is the average of a with-replacement resample of the
column.  Its moments have a closed form (the column mean, and the plug-in
variance divided by the column length), which the pipeline uses unless a
resample count ``I`` is given.  With ``I`` set, the moments are the Monte
Carlo estimate over ``I`` independent resamples, as in the paper; it
converges to the closed form as ``I`` grows and only adds resampling noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BootstrapMoments", "bootstrap_moments_exact", "bootstrap_moments_mc", "column_moments"]


@dataclass(frozen=True)
class BootstrapMoments:
    """Mean and variance of the resampled average; ``replicates`` is the
    Monte Carlo resample count (0 for the closed form)."""

    mean: float
    variance: float
    replicates: int

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ValueError(f"variance must be nonnegative, got {self.variance}")


def _check_column(samples: np.ndarray) -> np.ndarray:
    col = np.asarray(samples, dtype=float).ravel()
    if col.size < 2:
        raise ValueError(f"need at least 2 samples per column, got {col.size}")
    return col


def bootstrap_moments_exact(samples: np.ndarray) -> BootstrapMoments:
    """Closed-form moments of the resampled average.

    Mean equals the column average; variance equals ``(n-1)/n^2`` times the
    unbiased sample variance (the population variance of the column divided
    by its length).
    """
    col = _check_column(samples)
    n = col.size
    s2 = float(np.var(col, ddof=1))
    return BootstrapMoments(float(col.mean()), (n - 1) / n**2 * s2, 0)


def bootstrap_moments_mc(
    samples: np.ndarray, I: int, rng: np.random.Generator
) -> BootstrapMoments:
    """Monte Carlo moments over ``I`` independent resampled averages.

    The variance uses denominator ``I`` (population form); this convention
    propagates into the noise-variance fit downstream, so it is fixed here
    rather than left to choice.
    """
    if I < 2:
        raise ValueError(f"need I >= 2 resamples, got {I}")
    col = _check_column(samples)
    means = _resampled_means(col, I, rng)
    return BootstrapMoments(float(means.mean()), float(means.var(ddof=0)), I)


def _resampled_means(col: np.ndarray, I: int, rng: np.random.Generator) -> np.ndarray:
    n = col.size
    idx = rng.integers(0, n, size=(I, n), dtype=np.int32)
    return col[idx].mean(axis=1)


def column_moments(
    pilot: np.ndarray,
    I: int | None,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column moments of a pilot matrix (columns indexed by perturbation,
    one row per sample: shape ``(K, n_b)``).

    Returns (means, variances), each of length ``K``.  With ``I`` unset the
    closed form of :func:`bootstrap_moments_exact` is computed for all
    columns at once.  A count ``I`` takes that many Monte Carlo resamples per
    column, consuming ``rng`` column by column in index order, so the result
    does not depend on any parallel schedule.
    """
    pilot = np.asarray(pilot, dtype=float)
    if pilot.ndim != 2:
        raise ValueError(f"pilot matrix must be 2-D, got shape {pilot.shape}")
    K, n = pilot.shape
    if I is None:
        if n < 2:
            raise ValueError(f"need at least 2 samples per column, got {n}")
        return pilot.mean(axis=1), (n - 1) / n**2 * pilot.var(axis=1, ddof=1)
    if rng is None:
        raise ValueError("Monte Carlo resampling requires an RNG stream")
    means = np.empty(K)
    variances = np.empty(K)
    for k in range(K):
        m = bootstrap_moments_mc(pilot[k], I, rng)
        means[k], variances[k] = m.mean, m.variance
    return means, variances
