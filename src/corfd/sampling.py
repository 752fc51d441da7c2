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
    "EstimationError",
    "PerturbationGenerator",
    "stream",
    "Streams",
    "spawn",
    "draw_perturbation_set",
    "difference_samples",
]

# A generator whose quartiles have squares closer than this (relative) is
# rejected when it is built: the bias fit needs distinct squared
# coefficients, and such a generator draws them too close to tell apart.
_SQUARE_TIE_RTOL = 1e-6

# No normal numpy draws (at most 12.3), nor any normal quantile of a positive double, is larger.
_Z_REACH = 38.5

# A rejection draw tries batches of ``_BATCH`` normals for each value, and
# takes at most ``_NORMALS_PER_CHUNK`` normals per row in one round of
# batches, so that its memory stays bounded whatever the sample size.
_BATCH = 16
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


class EstimationError(ValueError):
    """The estimator's samples or constants give unusable values."""


class DegenerateRegionError(ValueError):
    """Raised when a perturbation generator is built whose interval carries
    (numerically) no probability mass, or whose distribution has too little
    spread to draw coefficients with distinct squares."""


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *path)``.

    The same arguments always yield the same sequence; distinct paths yield
    statistically independent sequences.  Spawning appends the child index
    to the spawn key, so ``stream(seed, *path, i)`` draws what child ``i``
    of ``stream(seed, *path)`` draws: row ``i`` of
    ``spawn(stream(seed, *path), n)`` for any ``n > i``.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


class Streams:
    """One level of a tree of PCG64 streams, held as arrays.

    Row ``j`` stands for a numpy ``SeedSequence``: ``pools[j]`` is its hash
    pool.  Every row descends from one root generator at the same depth, so
    all rows have mixed the same number ``words`` of 32-bit entropy words
    into their pools (the root's entropy, padded to the pool size, then its
    spawn key and one child index per level).  The rows spawn together, so
    ``spawned`` counts the children each has spawned.  numpy's hash,
    O'Neill's ``seed_seq`` in PCG's report (HMC-CS-2014-0905), makes a
    child's pool from its parent's pool and one more word, the child's
    index.  So :meth:`spawn` derives a whole level's children in a fixed
    number of array operations, and :meth:`generators` builds the
    generators that ``Generator.spawn`` would build, every stream unchanged.
    """

    __slots__ = ("pools", "words", "spawned")

    def __init__(self, pools: np.ndarray, words: int, spawned: int = 0):
        self.pools = pools
        self.words = words
        self.spawned = spawned

    def __len__(self) -> int:
        return len(self.pools)

    def __getitem__(self, rows: int | slice) -> Streams:
        """Rows ``rows`` as a level of their own, with its own spawn count."""
        if isinstance(rows, (int, np.integer)):
            rows = [rows]
        return Streams(self.pools[rows], self.words, self.spawned)

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
        size = self.pools.shape[1]
        mixed = _MIX_L * self.pools[:, None] - _index_terms(size, self.words, self.spawned, n)
        mixed ^= mixed >> _XSHIFT
        self.spawned += n
        return Streams(mixed.reshape(-1, size), self.words + 1)

    def generators(self, *more: Streams) -> list[np.random.Generator]:
        """One generator per row, then one per row of each level of
        ``more``: ``Generator(PCG64(seed))`` for the row's seed sequence
        ``seed``.  They draw what those generators draw, but their seeds
        hold only a PCG64 state, so they do not spawn."""
        pools = np.concatenate([self.pools, *(level.pools for level in more)]) if more else self.pools
        seed, bits, generator = _derived_seed_type(), np.random.PCG64, np.random.Generator
        return [generator(bits(seed(state))) for state in _pcg64_states(pools)]


def spawn(parent, n: int) -> Streams:
    """The streams of ``parent.spawn(n)``, row ``i`` holding child ``i``;
    for a level of ``m`` rows, row ``j * n + i`` holds child ``i`` of row
    ``j``.

    A generator seeded by a ``SeedSequence`` spawns its ``n`` children for
    real, so that its spawn counter moves on as ``Generator.spawn(n)`` moves
    it.  A :class:`Streams` level, everything beneath such a generator,
    derives its children in arrays.
    """
    if isinstance(parent, Streams):
        return parent.spawn(n)
    seed = parent.bit_generator.seed_seq if isinstance(parent, np.random.Generator) else None
    if not isinstance(seed, np.random.SeedSequence):
        raise TypeError("spawn takes a Generator seeded by a SeedSequence or a Streams level")
    return Streams(np.array([child.pool for child in seed.spawn(n)]), _pool_words(seed) + 1)


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


def _pool_words(seed: np.random.SeedSequence) -> int:
    """The number of entropy words mixed into ``seed``'s pool."""
    return max(_entropy_words(seed.entropy), seed.pool_size) + _entropy_words(seed.spawn_key)


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
def _mix_constants(pool_size: int, word: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants that mix entropy word ``word`` into a pool of
    ``pool_size`` words: the xor and multiplier constant of each pool word."""
    h = _hash_constants(_INIT_A, _MULT_A, (word + 1) * pool_size + 1)[word * pool_size:]
    return h[:-1], h[1:]


# Cached for speed: 156 of a dfo operation's 204 calls hit, and save 4.5%.
@functools.lru_cache(maxsize=256)
def _index_terms(pool_size: int, word: int, start: int, n: int) -> np.ndarray:
    """The part of :meth:`Streams.spawn`'s mix that depends only on the
    child indices ``start`` to ``start + n - 1``, entropy word ``word`` of
    pools of ``pool_size`` words: ``_MIX_R`` times each index's hash, one
    ``(n, pool_size)`` block shared by every row."""
    xor, mult = _mix_constants(pool_size, word)
    index = np.arange(start, start + n, dtype=np.uint32)
    terms = _MIX_R * _hashmix(index[:, None], xor, mult)
    terms.flags.writeable = False  # cached and shared by every caller
    return terms


@functools.cache
def _state_constants(pool_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool word and the hash constants of each of the 8 32-bit words
    of a PCG64 seeding state."""
    h = _hash_constants(_INIT_B, _MULT_B, 9)
    return np.arange(8) % pool_size, h[:-1], h[1:]


def _pcg64_states(pools: np.ndarray) -> np.ndarray:
    """PCG64's seeding state, ``generate_state(4, np.uint64)``, of every row's pool."""
    cycle, xor, mult = _state_constants(pools.shape[1])
    return _hashmix(np.take(pools, cycle, axis=1), xor, mult).view(np.uint64)


@functools.cache
def _derived_seed_type():
    """The seed type of derived generators.  It is made on first use, as
    importing ``numpy.random`` costs start-up time that ``import corfd``
    does not pay."""
    from numpy.random.bit_generator import ISeedSequence

    class DerivedSeed(ISeedSequence):
        """A seed sequence's PCG64 seeding state, and nothing else."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # An identity test: ``np.dtype(dtype)`` costs 0.3 us on each of 60 generators.
            if n_words == 4 and dtype is np.uint64:
                return self.state
            raise TypeError(f"a derived seed holds PCG64's state, not {n_words} words of {dtype}")

    return DerivedSeed


@dataclass(frozen=True)
class PerturbationGenerator:
    """Truncated-normal generator for perturbation coefficients.

    Draws from Normal(mu0, sigma0^2) conditioned on [lower, upper] (the CLI
    keys ``mu0``, ``sigma0``, ``L`` and ``U``).  The support must sit
    strictly inside the positive axis so that every coefficient is bounded
    away from zero, and ``mu0 + sigma0 * z`` must stay in the float range
    for every standard normal ``z`` of size up to ``_Z_REACH``.  It must
    carry probability mass, and the squares of the distribution's quartiles
    must differ by more than ``_SQUARE_TIE_RTOL`` relative; a generator
    that fails either test raises :class:`DegenerateRegionError` when it is
    built.  Its coefficients are drawn by :func:`draw_perturbation_set`.
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
        mu0, sigma0 = float(self.mu0), float(self.sigma0)
        if not math.isfinite(abs(mu0) + _Z_REACH * sigma0):
            raise ValueError(
                f"perturbation generator mu0 = {mu0}, sigma0 = {sigma0} overflows: mu0 + "
                f"sigma0 * z leaves the float range for a standard normal |z| <= {_Z_REACH}"
            )
        if not 0 < self.lower < self.upper:
            raise ValueError(f"need 0 < lower < upper, got [{self.lower}, {self.upper}]")
        if self.acceptance_probability <= 1e-12:
            raise DegenerateRegionError(
                f"truncation interval [{self.lower}, {self.upper}] has acceptance probability "
                f"{self.acceptance_probability:.3e} under Normal({self.mu0}, {self.sigma0}^2)"
            )
        q1, q3 = sorted(self._quantiles([0.25, 0.75]).tolist())
        spread = 1.0 - (q1 / q3) ** 2  # a ratio, so that no square overflows
        if spread <= _SQUARE_TIE_RTOL:
            L, U = float(self.lower), float(self.upper)
            raise DegenerateRegionError(
                f"perturbation generator mu0 = {mu0}, sigma0 = {sigma0}, L = {L}, U = {U} has "
                f"too little spread: the squares of its quartiles differ by {spread:.1e} "
                f"relative, at most {_SQUARE_TIE_RTOL:g}"
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

    def _quantiles(self, u) -> np.ndarray:
        """The truncated distribution's inverse CDF at ``u``, taken in the
        frame given by :attr:`_sign`."""
        a, b = self._cdf_bounds
        z = np.array([_ndtri(p) for p in (a + (b - a) * np.asarray(u)).tolist()])
        out = self.mu0 + self._sign * self.sigma0 * z
        return np.clip(out, self.lower, self.upper, out=out)


def draw_perturbation_set(size: int, gen: PerturbationGenerator, rngs: list) -> np.ndarray:
    """Draw ``size`` i.i.d. coefficients from ``gen`` per generator of
    ``rngs``, as one ``(m, size)`` array whose row ``j`` comes from
    ``rngs[j]`` alone.  ``gen`` was checked for spread when it was built.

    When the interval carries less than 0.1 of the normal's mass, each row
    draws ``size`` uniforms, mapped through the truncated inverse CDF.
    Otherwise each value is the first normal inside the interval from a
    batch of ``_BATCH`` normals, a batch that holds none being skipped.
    The batches are drawn in rounds: every row still short of values fills
    ``min(values left, _NORMALS_PER_CHUNK // _BATCH)`` batches from its own
    generator into one block, which is scaled, tested and picked from at
    once.  A row never draws past the batch of its ``size``-th value, so
    its values and its generator's end state do not depend on the other
    rows or on the rounds.
    """
    m = len(rngs)
    if gen.acceptance_probability < 0.1:
        u = np.empty((m, size))
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        return gen._quantiles(u.ravel()).reshape(m, size)
    per_round = _NORMALS_PER_CHUNK // _BATCH
    out = np.empty((m, size))
    rows, left = range(m), [size] * m  # the rows short of values; the values each lacks
    counts = [min(size, per_round)] * m  # the batches each of those rows draws this round
    while rows:
        block = np.empty((sum(counts), _BATCH))
        start = 0
        for j, n in zip(rows, counts):
            rngs[j].standard_normal(out=block[start:start + n])
            start += n
        # As rng.normal(mu0, sigma0) scales its standard normals, bit for bit.
        block *= gen.sigma0
        block += gen.mu0
        inside = block >= gen.lower
        inside &= block <= gen.upper
        first = inside.argmax(axis=1)  # a miss picks 0, outside the interval
        first += np.arange(0, block.size, _BATCH)
        values, hit = block.take(first), inside.take(first)
        # One round drew every row's values: without this return a dfo operation is 1.6% slower.
        if np.count_nonzero(hit) == m * size:
            return values.reshape(m, size)
        start, short = 0, []
        for j, n in zip(rows, counts):
            kept, done = values[start:start + n][hit[start:start + n]], size - left[j]
            out[j, done:done + kept.size] = kept
            left[j] -= kept.size
            if left[j]:
                short.append(j)
            start += n
        rows, counts = short, [min(left[j], per_round) for j in short]
    return out


def difference_samples(oracle, theta0, coords, h, rngs: list, size: int) -> np.ndarray:
    """Draw ``size`` central-difference quotients per coordinate: row ``j``
    of the ``(m, size)`` result holds those along ``coords[j]`` at
    perturbation ``h[j]`` from ``rngs[j]``.

    Each quotient consumes one independent sample pair: the two sides never
    share randomness.  The plus side is drawn before the minus side, and all
    ``2 m`` points are drawn in one oracle batch.  A row whose ``2 h`` or
    any quotient is not finite raises :class:`EstimationError`.
    """
    coords = np.asarray(coords)
    h = np.asarray(h, dtype=float)
    if not len(coords) == h.size == len(rngs):
        raise ValueError("need one perturbation and one generator per coordinate")
    theta0 = np.asarray(theta0, dtype=float).reshape(-1)
    # Rows 2j and 2j + 1 are the plus and minus sides of quotient row j.
    points = theta0[None, :].repeat(2 * h.size, axis=0)
    plus = np.arange(0, 2 * h.size, 2)
    points[plus, coords] += h
    points[plus + 1, coords] -= h
    y = draw_responses(oracle, points, [r for r in rngs for _ in (0, 1)], size)
    with np.errstate(all="ignore"):
        width = 2.0 * h
        quotients = (y[0::2] - y[1::2]) / width[:, None]
    finite = np.isfinite(width) & np.isfinite(quotients).all(axis=-1)
    if not finite.all():
        j = int(finite.argmin())
        raise EstimationError(f"perturbation h = {h[j]:.6g} along coordinate {coords[j]} "
                              "gives non-finite difference quotients")
    return quotients
