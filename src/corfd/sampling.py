"""Reproducible random streams, perturbation-coefficient generation, and
central-difference sampling.

All randomness flows through ``numpy.random.Generator`` objects.  Substreams
are derived by index (``stream``, ``Generator.spawn``, or ``spawn_seeds``,
which builds only the generators that draw) so that serial and parallel
executions of the same experiment consume identical random numbers.
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
    "spawn_seeds",
    "seeded",
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


def spawn_seeds(
    parent: np.random.Generator | np.random.SeedSequence, n: int
) -> list[np.random.SeedSequence]:
    """The seeds of ``parent.spawn(n)``, spawned from ``parent`` as that call
    would, but not yet built into generators.

    :func:`seeded` builds a child when it is drawn from, so a child that
    only spawns further, or is never used, costs only its seed.
    """
    if isinstance(parent, np.random.Generator):
        parent = parent.bit_generator.seed_seq
    return parent.spawn(n)


def seeded(seed: np.random.SeedSequence) -> np.random.Generator:
    """The generator that ``Generator.spawn`` builds from ``seed``; every
    stream here is a PCG64 stream, as :func:`stream` makes them."""
    return np.random.Generator(np.random.PCG64(seed))


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

    def _checked_acceptance(self) -> float:
        accept = self.acceptance_probability
        if accept <= 1e-12:
            raise DegenerateRegionError(
                f"truncation interval [{self.lower}, {self.upper}] has acceptance "
                f"probability {accept:.3e} under Normal({self.mu0}, {self.sigma0}^2)"
            )
        return accept

    def _inverse_cdf(self, rng: np.random.Generator, n: int) -> np.ndarray:
        a, b = self._cdf_bounds
        out = self.mu0 + self.sigma0 * ndtri(a + (b - a) * rng.random(n))
        return np.clip(out, self.lower, self.upper, out=out)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """Draw from the truncated distribution.

        Rejection sampling when the acceptance region is wide enough,
        inverse-CDF on the truncated interval otherwise; either way the
        expected work per draw is bounded.
        """
        accept = self._checked_acceptance()
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
            out = self._inverse_cdf(rng, n)
        return float(out[0]) if size is None else out

    def sample_successive(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The values of ``count`` successive ``sample(rng)`` calls, drawn
        together: the same random numbers, consumed in the same order.

        A rejection-sampling call draws batches of one fixed width until one
        holds an accepted value and returns the first; here all batches
        still needed are drawn as the rows of one array.
        """
        accept = self._checked_acceptance()
        if accept < 0.1:
            return self._inverse_cdf(rng, count)
        width = max(16, int(1 / accept * 1.2))
        values: list[float] = []
        while len(values) < count:
            batch = rng.normal(self.mu0, self.sigma0, size=(count - len(values), width))
            inside = (batch >= self.lower) & (batch <= self.upper)
            hit = inside.any(axis=1)
            values += batch[hit, inside[hit].argmax(axis=1)].tolist()
        return np.array(values)


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
        # One draw per missing coefficient, exactly as one-at-a-time draws
        # would consume them; a tie costs one more draw in the next round.
        for c in gen.sample_successive(rng, K - len(accepted)).tolist():
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
    coord,
    h,
    rng,
    size: int,
) -> np.ndarray:
    """Draw ``size`` central-difference quotients at perturbation ``h``.

    Each quotient consumes one independent sample pair: the two sides never
    share randomness.  The plus side is drawn before the minus side.
    ``coord``, ``h`` and ``rng`` may also be equal-length sequences: row
    ``j`` of the ``(m, size)`` result then holds the quotients along
    ``coord[j]`` at ``h[j]`` from ``rng[j]``, and all ``2 m`` points are
    drawn in one oracle batch.
    """
    single = isinstance(coord, (int, np.integer))
    coords, rngs = ([coord], [rng]) if single else (list(coord), list(rng))
    h = np.asarray(h, dtype=float).reshape(-1)
    if not len(coords) == h.size == len(rngs):
        raise ValueError("need one perturbation and one generator per coordinate")
    steps = h.tolist()
    if 0.0 in steps:
        raise ValueError("perturbation h must be nonzero")
    theta0 = np.asarray(theta0, dtype=float).reshape(-1)
    # Rows 2j and 2j + 1 are the plus and minus sides of quotient row j.
    points = np.repeat(theta0[None, :], 2 * h.size, axis=0)
    for j, (c, step) in enumerate(zip(coords, steps)):
        points[2 * j, c] += step
        points[2 * j + 1, c] -= step
    y = draw_responses(oracle, points, [r for r in rngs for _ in (0, 1)], size)
    quotients = (y[0::2] - y[1::2]) / (2.0 * h[:, None])
    return quotients[0] if single else quotients
