"""Reproducible random streams, perturbation-coefficient generation, and
central-difference sampling.

All randomness flows through ``numpy.random.Generator`` objects.  Substreams
are derived by index (``stream``, ``Generator.spawn``) so that serial and
parallel executions of the same experiment consume identical random numbers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .oracle import draw_responses

__all__ = [
    "DegenerateRegionError",
    "PerturbationGenerator",
    "PerturbationSet",
    "stream",
    "draw_perturbation_set",
    "difference_samples",
]

# Optimal pilot-perturbation scaling exponent for the constant-estimation
# stage (the gradient stage itself uses a -1/6 scaling).
DEFAULT_PILOT_EXPONENT = -0.1

# Coefficients whose squares are closer than this (relative) count as ties
# and are redrawn: the bias design matrix needs distinct squared entries.
_SQUARE_TIE_RTOL = 1e-6

_MAX_REDRAWS = 1000


class DegenerateRegionError(ValueError):
    """Truncation interval carries (numerically) no probability mass, or too
    little spread to draw distinct perturbation coefficients."""


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *path)``.

    The same arguments always yield the same sequence; distinct paths yield
    statistically independent sequences.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


@dataclass(frozen=True)
class PerturbationGenerator:
    """Truncated-normal generator for perturbation coefficients.

    Draws from Normal(mu0, sigma0^2) conditioned on [lower, upper].  The
    support must sit strictly inside the positive axis so that every
    coefficient is bounded away from zero.
    """

    mu0: float = 0.0
    sigma0: float = 1.0
    lower: float = 0.1
    upper: float = np.inf

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu0):
            raise ValueError(f"mu0 must be finite, got {self.mu0}")
        if not 0 < self.sigma0 < np.inf:
            raise ValueError(f"sigma0 must be finite and positive, got {self.sigma0}")
        if not 0 < self.lower < self.upper:
            raise ValueError(
                f"need 0 < lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def _cdf_bounds(self) -> tuple[float, float]:
        a = ndtr((self.lower - self.mu0) / self.sigma0)
        b = ndtr((self.upper - self.mu0) / self.sigma0) if np.isfinite(self.upper) else 1.0
        return float(a), float(b)

    @property
    def acceptance_probability(self) -> float:
        a, b = self._cdf_bounds
        return b - a

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """Draw from the truncated distribution.

        Rejection sampling when the acceptance region is wide enough,
        inverse-CDF on the truncated interval otherwise; either way the
        expected work per draw is bounded.
        """
        accept = self.acceptance_probability
        if accept <= 1e-12:
            raise DegenerateRegionError(
                f"truncation interval [{self.lower}, {self.upper}] has acceptance "
                f"probability {accept:.3e} under Normal({self.mu0}, {self.sigma0}^2)"
            )
        n = 1 if size is None else int(size)
        if accept >= 0.1:
            out = np.empty(n)
            filled = 0
            while filled < n:
                # Oversize the batch so one pass usually suffices.
                want = n - filled
                batch = rng.normal(self.mu0, self.sigma0, size=max(16, int(want / accept * 1.2)))
                kept = batch[(batch >= self.lower) & (batch <= self.upper)]
                take = min(want, kept.size)
                out[filled : filled + take] = kept[:take]
                filled += take
        else:
            a, b = self._cdf_bounds
            u = a + (b - a) * rng.random(n)
            out = self.mu0 + self.sigma0 * ndtri(u)
            np.clip(out, self.lower, self.upper, out=out)
        return float(out[0]) if size is None else out


@dataclass(frozen=True)
class PerturbationSet:
    """Pilot perturbations ``h_k = c_k * n_b**exponent``."""

    coefficients: np.ndarray
    pilot_size: int
    exponent: float = DEFAULT_PILOT_EXPONENT
    perturbations: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=float)
        if c.size < 2:
            raise ValueError("need at least two perturbation coefficients")
        if not np.all(c > 0):
            raise ValueError("perturbation coefficients must be positive")
        c2 = np.sort(c * c)
        if np.any(np.diff(c2) <= _SQUARE_TIE_RTOL * c2[1:]):
            raise ValueError("squared coefficients must be pairwise distinct")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(
            self, "perturbations", c * float(self.pilot_size) ** self.exponent
        )

    @property
    def size(self) -> int:
        return int(self.coefficients.size)


def _has_square_tie(value: float, accepted: list[float]) -> bool:
    v2 = value * value
    return any(abs(v2 - a * a) <= _SQUARE_TIE_RTOL * max(v2, a * a) for a in accepted)


def draw_perturbation_set(
    K: int,
    n_b: int,
    gen: PerturbationGenerator,
    rng: np.random.Generator,
    exponent: float = DEFAULT_PILOT_EXPONENT,
) -> PerturbationSet:
    """Draw ``K`` i.i.d. coefficients and scale them by ``n_b**exponent``.

    Coefficients whose squared values collide (to relative tolerance 1e-6)
    with an earlier draw are redrawn, keeping the i.i.d. description while
    guaranteeing a rank-2 bias design.
    """
    if K < 2:
        raise ValueError(f"need K >= 2 perturbations, got {K}")
    if n_b < 2:
        raise ValueError(f"need n_b >= 2 pilot pairs per perturbation, got {n_b}")
    accepted: list[float] = []
    rejections = 0
    while len(accepted) < K:
        c = float(gen.sample(rng))
        if _has_square_tie(c, accepted):
            rejections += 1
            if rejections >= _MAX_REDRAWS:
                raise DegenerateRegionError(
                    "perturbation generator is nearly degenerate: "
                    f"{rejections} consecutive coefficient ties"
                )
            continue
        rejections = 0
        accepted.append(c)
    return PerturbationSet(np.array(accepted), n_b, exponent)


def difference_samples(
    oracle,
    theta0: np.ndarray | float,
    coord: int,
    h: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw ``size`` central-difference quotients at perturbation ``h``.

    Each quotient consumes one independent sample pair: the two sides never
    share randomness.  The plus side is drawn before the minus side.
    """
    if h == 0:
        raise ValueError("perturbation h must be nonzero")
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    up = theta0.copy()
    up[coord] += h
    down = theta0.copy()
    down[coord] -= h
    y_up = draw_responses(oracle, up, rng, size)
    y_down = draw_responses(oracle, down, rng, size)
    return (y_up - y_down) / (2.0 * h)

