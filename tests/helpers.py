"""Reference implementations shared by the tests."""

import numpy as np
from scipy.special import ndtr, ndtri

from corfd.oracle import SimulationOracle, block_sampler


def truncated_normal_draws(gen, rng, size):
    """``size`` coefficients of the perturbation generator ``gen`` drawn
    from ``rng`` one value at a time.  Each value is the first normal inside
    ``[gen.lower, gen.upper]`` from the first batch of
    ``rng.normal(mu0, sigma0, 16)`` that holds one, or, when the interval
    carries less than 0.1 of the normal's mass, scipy's truncated inverse
    CDF at one ``rng.random()``."""
    # scipy's ndtr is precise in its lower tail: an interval above mu0 takes
    # its probabilities in the frame mirrored about mu0.
    sign = -1.0 if gen.lower > gen.mu0 else 1.0
    pa = ndtr(sign * (gen.lower - gen.mu0) / gen.sigma0)
    pb = ndtr(sign * (gen.upper - gen.mu0) / gen.sigma0)
    out = []
    if abs(pb - pa) < 0.1:
        for _ in range(size):
            z = sign * ndtri(pa + (pb - pa) * rng.random())
            out.append(min(max(gen.mu0 + gen.sigma0 * z, gen.lower), gen.upper))
        return np.array(out)
    while len(out) < size:
        batch = rng.normal(gen.mu0, gen.sigma0, 16)
        inside = batch[(batch >= gen.lower) & (batch <= gen.upper)]
        if inside.size:
            out.append(inside[0])
    return np.array(out)


def exact_moments(column):
    """Closed-form bootstrap (mean, variance) of one column, computed on that
    column alone: the column mean, and ``(n-1)/n^2`` times its unbiased
    variance."""
    col = np.asarray(column, dtype=float).ravel()
    n = col.size
    return float(col.mean()), (n - 1) / n**2 * float(np.var(col, ddof=1))


def deterministic_oracle(f, dim: int = 1, label: str = "noise-free") -> SimulationOracle:
    """Wrap a deterministic function as a zero-noise oracle."""

    def block(points, rngs, size):
        return np.repeat([[float(f(theta))] for theta in points], size, axis=1)

    return SimulationOracle(dim=dim, label=label, sample=block_sampler(block),
                            mean=lambda t: float(f(t)))


def simulate_queue_loop(lam, mu, horizon, measure, rng, size):
    """Per-customer Lindley recursion ``W_j = max(W_{j-1} + S_j - A_j, 0)``
    over ``size`` paths, with the draws of ``corfd.oracle.queue_oracle``'s
    block in the same order: every interarrival of customers 2..N, then
    every service; returns (responses, interarrivals, services)."""
    n_steps = horizon - 1
    n_svc = horizon if measure == "sojourn" else n_steps
    arrivals = np.log(rng.random((size, n_steps))) * (-1.0 / lam) if n_steps else np.empty((size, 0))
    services = np.log(rng.random((size, n_svc))) * (-1.0 / mu) if n_svc else np.empty((size, 0))
    wait = np.zeros(size)
    total = np.zeros(size)
    for i in range(n_steps):
        wait = np.maximum(wait + services[:, i] - arrivals[:, i], 0.0)
        total += wait
    if measure == "sojourn":
        total += services.sum(axis=1)
    return total / horizon, arrivals, services


def lr_derivative(spec, parameter, reps, rng):
    """Score-function estimate (Glynn, Comm. ACM 1990) of the derivative of
    the expected average time in system with respect to one rate: the mean
    over ``reps`` paths of each response times the log-likelihood
    derivative of the exponential draws it depends on.  The paths are drawn
    by :func:`simulate_queue_loop` in blocks of 200,000."""
    lam, mu = spec.arrival_rate, spec.service_rate
    total = 0.0
    for start in range(0, reps, 200_000):
        response, arrivals, services = simulate_queue_loop(
            lam, mu, spec.horizon, "sojourn", rng, min(200_000, reps - start)
        )
        if parameter == "arrival":
            score = np.sum(1.0 / lam - arrivals, axis=1)
        else:
            score = np.sum(1.0 / mu - services, axis=1)
        total += float(np.sum(response * score))
    return total / reps


def fit_var_unweighted(h, s2, n_b):
    """Noise-variance fit without the ``h^2`` reweighting: the plain
    least-squares regression of ``s2`` on ``(n_b - 1) / (2 n_b^2 h^2)``.  Its
    sampling moments are the ones the ``noise_*`` coefficients of
    ``corfd.regression.theory_constants`` describe."""
    h = np.asarray(h, dtype=float).ravel()
    s2 = np.asarray(s2, dtype=float).ravel()
    x = (n_b - 1) / (2.0 * n_b**2 * h * h)
    return float(np.dot(x, s2) / np.dot(x, x))
