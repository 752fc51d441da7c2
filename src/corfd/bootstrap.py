"""Resampling mean and variance of the central-difference estimator.

Given one pilot column (the difference samples at a single perturbation),
the resampled estimator is the average of a with-replacement resample of the
column.  :func:`column_moments` computes its moments for every column of a
pilot matrix.  They have a closed form (the column mean, and the plug-in
variance divided by the column length), which the pipeline uses unless a
resample count ``I`` is given.  With ``I`` set, the moments are the Monte
Carlo estimate over ``I`` independent resamples, as in the paper; it
converges to the closed form as ``I`` grows and only adds resampling noise.
"""
from __future__ import annotations

import numpy as np

__all__ = ["column_moments"]


def column_moments(
    pilot: np.ndarray,
    I: int | None,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column moments of a pilot matrix (columns indexed by perturbation,
    one row per sample: shape ``(K, n_b)``).

    Returns (means, variances), each of length ``K``.  With ``I`` unset the
    closed form is computed for all columns at once.  A count ``I`` takes
    that many Monte Carlo resamples per column, drawing one ``(I, n_b)``
    index block from ``rng`` per column in index order, so the result does
    not depend on any parallel schedule.  Their variance uses denominator
    ``I`` (population form); this convention propagates into the
    noise-variance fit downstream, so it is fixed here rather than left to
    choice.
    """
    pilot = np.asarray(pilot, dtype=float)
    if pilot.ndim != 2:
        raise ValueError(f"pilot matrix must be 2-D, got shape {pilot.shape}")
    K, n = pilot.shape
    if n < 2:
        raise ValueError(f"need at least 2 samples per column, got {n}")
    if I is None:
        # The arithmetic of pilot.mean and pilot.var(ddof=1), without their
        # per-call overhead.
        means = pilot.sum(axis=1) / n
        deviations = pilot - means[:, None]
        return means, (n - 1) / n**2 * ((deviations * deviations).sum(axis=1) / (n - 1))
    if I < 2:
        raise ValueError(f"need I >= 2 resamples, got {I}")
    if rng is None:
        raise ValueError("Monte Carlo resampling requires an RNG stream")
    means = np.empty(K)
    variances = np.empty(K)
    for k in range(K):
        resampled = pilot[k][rng.integers(0, n, size=(I, n), dtype=np.int32)].mean(axis=1)
        means[k], variances[k] = resampled.mean(), resampled.var(ddof=0)
    return means, variances
