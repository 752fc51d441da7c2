"""Reference implementations shared by the tests."""

import numpy as np

from corfd.oracle import SimulationOracle


def exact_moments(column):
    """Closed-form bootstrap (mean, variance) of one column, computed on that
    column alone: the column mean, and ``(n-1)/n^2`` times its unbiased
    variance."""
    col = np.asarray(column, dtype=float).ravel()
    n = col.size
    return float(col.mean()), (n - 1) / n**2 * float(np.var(col, ddof=1))


def deterministic_oracle(f, dim: int = 1, label: str = "noise-free") -> SimulationOracle:
    """Wrap a deterministic function as a zero-noise oracle."""

    def sample(theta, rng, size):
        return np.full(size, float(f(theta)))

    return SimulationOracle(dim=dim, label=label, sample=sample, mean=lambda t: float(f(t)))
