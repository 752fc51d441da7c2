"""Reproducible random streams, perturbation-coefficient generation, and
central-difference sampling.

All randomness flows through ``numpy.random.Generator`` objects.  Substreams
are derived by index (``stream``, or ``spawn``, which derives a whole level
of ``Generator.spawn``'s tree in arrays) so that serial and parallel
executions of the same experiment consume identical random numbers.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .oracle import draw_responses

__all__ = [
    "DegenerateRegionError",
    "PerturbationGenerator",
    "stream",
    "Streams",
    "spawn",
    "draw_perturbation_set",
    "difference_samples",
]

# Coefficients whose squares are closer than this (relative) count as ties
# and are redrawn: the bias design matrix needs distinct squared entries.
_SQUARE_TIE_RTOL = 1e-6

_MAX_REDRAWS = 1000

# A rejection draw of many values takes its normals in chunks of at most
# this many, so that its memory stays bounded whatever the sample size.
_NORMALS_PER_CHUNK = 1 << 16

_SQRT_HALF = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()


def _ndtr(z: float) -> float:
    """Standard normal CDF.  ``erfc`` keeps its relative precision deep in
    the lower tail, where ``0.5 * (1 + erf)`` (``NormalDist.cdf``) rounds to
    zero."""
    return 0.5 * math.erfc(-z * _SQRT_HALF)


def _ndtri(p: float) -> float:
    """Standard normal quantile; ``p`` of 0 or 1 maps to the infinite end,
    which the caller clips to its bound."""
    if 0.0 < p < 1.0:
        return _STANDARD_NORMAL.inv_cdf(p)
    return -math.inf if p <= 0.0 else math.inf


class DegenerateRegionError(ValueError):
    """Truncation interval carries (numerically) no probability mass, or too
    little spread to draw distinct perturbation coefficients."""


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *path)``.

    The same arguments always yield the same sequence; distinct paths yield
    statistically independent sequences.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


class Streams:
    """One level of a tree of PCG64 streams, held as arrays.

    Row ``j`` stands for a numpy ``SeedSequence``: ``pools[j]`` is its hash
    pool and ``words[j]`` the number of 32-bit entropy words mixed into it
    (its entropy, padded to the pool size, then its spawn key).  The rows
    spawn together, so ``spawned`` counts the children each has spawned.
    numpy's hash, O'Neill's ``seed_seq`` in PCG's report (HMC-CS-2014-0905),
    makes a child's pool from its parent's pool and one more word, the
    child's index.  So :meth:`spawn` derives a whole level's children in a
    fixed number of array operations, and :meth:`generators` builds the
    generators that ``Generator.spawn`` would build, every stream unchanged.
    """

    __slots__ = ("pools", "words", "spawned")

    def __init__(self, pools: np.ndarray, words: np.ndarray, spawned: int = 0):
        self.pools = pools
        self.words = words
        self.spawned = spawned

    @classmethod
    def of(cls, seeds) -> Streams:
        """The level of the given seed sequences, read without spawning from
        them."""
        if len({(seed.pool_size, seed.n_children_spawned) for seed in seeds}) != 1:
            raise ValueError("the streams of one level must share a pool size and a spawn count")
        words = [
            max(_entropy_words(seed.entropy), seed.pool_size) + _entropy_words(seed.spawn_key)
            for seed in seeds
        ]
        return cls(np.array([seed.pool for seed in seeds]), np.array(words),
                   seeds[0].n_children_spawned)

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, rows: int | slice) -> Streams:
        """Rows ``rows`` as a level of their own, with its own spawn count."""
        if isinstance(rows, (int, np.integer)):
            rows = [rows]
        return Streams(self.pools[rows], self.words[rows], self.spawned)

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def spawn(self, n: int) -> Streams:
        """The next ``n`` children of every row, row ``j * n + i`` holding
        child ``i`` of row ``j``, as ``SeedSequence.spawn(n)`` makes them.

        Each child mixes its index into its parent's pool as one more
        entropy word, past the pool size: word ``w`` of a pool of ``P``
        words is hashed at hash steps ``w * P`` to ``w * P + P - 1``, once
        for each pool word it is mixed into.
        """
        if self.spawned + n >= 1 << 32:
            raise OverflowError("a stream's spawn counter holds 32 bits")
        index = np.arange(self.spawned, self.spawned + n, dtype=np.uint32)
        size = self.pools.shape[1]
        table_rows = 1 << int(self.words.max()).bit_length()
        xor, mult = (c[self.words] for c in _mix_constants(size, table_rows))
        mixed = _MIX_L * self.pools[:, None] - _MIX_R * _hashmix(index[:, None], xor, mult)
        mixed ^= mixed >> _XSHIFT
        self.spawned += n
        return Streams(mixed.reshape(-1, size), np.repeat(self.words + 1, n))

    def generators(self) -> list[np.random.Generator]:
        """One generator per row: ``Generator(PCG64(seed))`` for the row's
        seed sequence ``seed``.  They draw what those generators draw, but
        their seeds hold only a pool and a state, so they do not spawn."""
        seed, bits, generator = _derived_seed_type(), np.random.PCG64, np.random.Generator
        states = _generate_state(self.pools, 4, np.uint64)
        return [generator(bits(seed(pool, state))) for pool, state in zip(self.pools, states)]


def spawn(parents, n: int) -> Streams:
    """The streams of ``parent.spawn(n)`` for every parent, row ``j * n + i``
    holding child ``i`` of parent ``j``.

    A :class:`Streams` level derives its children in arrays.  A generator
    or seed sequence, or a sequence of them, spawns its ``n`` children for
    real, so that its spawn counter moves on as ``Generator.spawn(n)``
    moves it; everything beneath them is derived.
    """
    if isinstance(parents, Streams):
        return parents.spawn(n)
    if isinstance(parents, (np.random.Generator, np.random.SeedSequence)):
        parents = [parents]
    seeds = [
        parent.bit_generator.seed_seq if isinstance(parent, np.random.Generator) else parent
        for parent in parents
    ]
    if not all(isinstance(seed, np.random.SeedSequence) for seed in seeds):
        raise TypeError("only a generator seeded by a SeedSequence can spawn")
    return Streams.of([child for seed in seeds for child in seed.spawn(n)])


# The constants of numpy's SeedSequence hash.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _entropy_words(value) -> int:
    """The number of 32-bit words a SeedSequence makes of an entropy or
    spawn-key value: an integer takes as many as it needs and at least one,
    a sequence the sum over its items."""
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(map(_entropy_words, value))


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**k`` modulo 2**32 for ``k < n``: the hash constant at
    the hash's ``k``-th step."""
    # uint64 products wrap modulo 2**64; their low 32 bits are exact.
    powers = np.ones(n, dtype=np.uint64)
    powers[1:] = np.cumprod(np.full(n - 1, mult, dtype=np.uint64))
    consts = (powers * np.uint64(init)).astype(np.uint32)
    consts.flags.writeable = False  # cached and shared by every caller
    return consts


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """The hash of ``value`` at the steps whose constants are ``xor``;
    ``mult`` holds the constant of each next step."""
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


@functools.cache
def _mix_constants(pool_size: int, n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants that mix entropy word ``w < n_words`` into a pool
    of ``pool_size`` words, as ``(n_words, 1, pool_size)`` arrays of the
    xor and multiplier constants."""
    h = _hash_constants(_INIT_A, _MULT_A, n_words * pool_size + 1)
    return h[:-1].reshape(n_words, 1, pool_size), h[1:].reshape(n_words, 1, pool_size)


@functools.cache
def _state_constants(pool_size: int, n_words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool word and the hash constants of each of ``n_words`` output
    words."""
    h = _hash_constants(_INIT_B, _MULT_B, n_words + 1)
    return np.arange(n_words) % pool_size, h[:-1], h[1:]


def _generate_state(pools: np.ndarray, n_words: int, dtype) -> np.ndarray:
    """``SeedSequence.generate_state(n_words, dtype)`` for every row's pool."""
    dtype = np.dtype(dtype)
    if dtype not in (np.uint32, np.uint64):
        raise ValueError("only support uint32 or uint64")
    cycle, xor, mult = _state_constants(pools.shape[1], n_words * dtype.itemsize // 4)
    return _hashmix(np.take(pools, cycle, axis=1), xor, mult).view(dtype)


@functools.cache
def _derived_seed_type():
    """The seed type of derived generators.  It is made on first use, as
    importing ``numpy.random`` costs start-up time that ``import corfd``
    does not pay."""
    from numpy.random.bit_generator import ISeedSequence

    class DerivedSeed(ISeedSequence):
        """A seed sequence's pool, with the PCG64 seeding state precomputed."""

        def __init__(self, pool: np.ndarray, state: np.ndarray):
            self.pool = pool
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and dtype is np.uint64:
                return self.state
            return _generate_state(self.pool[None], n_words, dtype)[0]

    return DerivedSeed


@dataclass(frozen=True)
class PerturbationGenerator:
    """Truncated-normal generator for perturbation coefficients.

    Draws from Normal(mu0, sigma0^2) conditioned on [lower, upper].  The
    support must sit strictly inside the positive axis so that every
    coefficient is bounded away from zero, and must carry probability mass:
    an interval with (numerically) none raises
    :class:`DegenerateRegionError` when the generator is built.
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
        if self.acceptance_probability <= 1e-12:
            raise DegenerateRegionError(
                f"truncation interval [{self.lower}, {self.upper}] has acceptance "
                f"probability {self.acceptance_probability:.3e} under "
                f"Normal({self.mu0}, {self.sigma0}^2)"
            )

    @property
    def _sign(self) -> float:
        """-1 when the interval lies above ``mu0``: its probabilities are then
        taken in the frame mirrored about ``mu0``, as survival values
        ``Q(z) = Phi(-z)``, which stay small and precise where ``Phi(z)``
        rounds to 1."""
        return -1.0 if self.lower > self.mu0 else 1.0

    @property
    def _cdf_bounds(self) -> tuple[float, float]:
        """Standard normal CDF at the standardized lower and upper bounds,
        in the frame given by :attr:`_sign`."""
        s = self._sign
        return (
            _ndtr(s * (self.lower - self.mu0) / self.sigma0),
            _ndtr(s * (self.upper - self.mu0) / self.sigma0),
        )

    @property
    def acceptance_probability(self) -> float:
        a, b = self._cdf_bounds
        return abs(b - a)

    def _inverse_cdf(self, rng: np.random.Generator, n: int) -> np.ndarray:
        a, b = self._cdf_bounds
        z = np.array([_ndtri(p) for p in (a + (b - a) * rng.random(n)).tolist()])
        out = self.mu0 + self._sign * self.sigma0 * z
        return np.clip(out, self.lower, self.upper, out=out)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` values from the truncated distribution.  They equal
        the values of ``size`` successive ``sample(rng, 1)`` calls, consuming
        the same random numbers in the same order.

        Rejection sampling when the acceptance region is wide enough,
        inverse-CDF on the truncated interval otherwise; either way the
        expected work per draw is bounded.  A rejection draw takes, for each
        value, batches of one fixed width until one holds an accepted value,
        and keeps the first; the batches are drawn as the rows of arrays of
        at most ``_NORMALS_PER_CHUNK`` normals.
        """
        accept = self.acceptance_probability
        if accept < 0.1:
            return self._inverse_cdf(rng, size)
        width = max(16, int(1 / accept * 1.2))
        rows = max(1, _NORMALS_PER_CHUNK // width)
        out = np.empty(size)
        filled = 0
        while filled < size:
            shape = (min(size - filled, rows), width)
            batch = rng.normal(self.mu0, self.sigma0, size=shape)
            inside = (batch >= self.lower) & (batch <= self.upper)
            hit = inside.any(axis=1)
            kept = batch[hit, inside[hit].argmax(axis=1)]
            out[filled : filled + kept.size] = kept
            filled += kept.size
        return out


def _has_square_tie(value: float, accepted: list[float]) -> bool:
    v2 = value * value
    return any(abs(v2 - a * a) <= _SQUARE_TIE_RTOL * max(v2, a * a) for a in accepted)


def draw_perturbation_set(
    K: int, gen: PerturbationGenerator, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``K`` i.i.d. pilot-perturbation coefficients.

    Coefficients whose squared values collide (to relative tolerance 1e-6)
    with an earlier draw are redrawn, keeping the i.i.d. description while
    guaranteeing a rank-2 bias design.
    """
    accepted: list[float] = []
    rejections = 0
    while len(accepted) < K:
        # One draw per missing coefficient, exactly as one-at-a-time draws
        # would consume them; a tie costs one more draw in the next round.
        for c in gen.sample(rng, K - len(accepted)).tolist():
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
    return np.array(accepted)


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
