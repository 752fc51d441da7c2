"""Noisy black-box test problems with known ground truth.

An oracle wraps a stochastic response ``Y(theta)`` whose mean is the
performance measure of interest.  Oracles are immutable; every draw goes
through a caller-owned ``numpy.random.Generator``, so evaluation is pure
given the stream and safe to run concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NonFiniteResponseError",
    "DomainError",
    "GroundTruth",
    "SimulationOracle",
    "block_sampler",
    "QueueSpec",
    "sin_oracle",
    "poly_oracle",
    "noisy_bench_oracle",
    "queue_oracle",
    "draw_responses",
    "rosenbrock",
    "zakharov",
    "Problem",
    "parse_problem",
]

# Problem defaults: the sine amplitude, and the queue response (time in system).
DEFAULT_KAPPA = 10.0
DEFAULT_MEASURE = "sojourn"


class NonFiniteResponseError(ValueError):
    """An oracle returned a NaN or infinite response."""


class DomainError(ValueError):
    """A point lies outside the domain of an oracle's response."""


@dataclass(frozen=True)
class GroundTruth:
    """Known constants of a problem at the point of interest.

    Fields are ``None`` when unavailable; consumers that need a constant must
    refuse to run rather than substitute a default.

    deriv        first derivative of the mean response
    bias_const   third-derivative constant (leading quadratic bias coefficient)
    fifth_const  fifth-derivative constant (next, quartic bias coefficient)
    noise_var    response variance at the point
    """

    deriv: float | None = None
    bias_const: float | None = None
    fifth_const: float | None = None
    noise_var: float | None = None

    def __post_init__(self) -> None:
        if self.noise_var is not None and not self.noise_var > 0:
            raise ValueError(f"noise_var must be positive when given, got {self.noise_var}")


@dataclass(frozen=True)
class SimulationOracle:
    """A noisy function ``Y(theta)`` evaluated by simulation.

    ``sample(points, rngs, size)`` draws a block: ``points`` is ``(m, d)``,
    ``rngs`` holds one generator per row, and row ``j`` of the ``(m, size)``
    result holds ``size`` independent draws at ``points[j]`` from
    ``rngs[j]``; rows that share a generator draw from it in row order, and
    the normal oracles draw a run of consecutive rows that share one in a
    single fill, which takes the same draws.
    ``sample(theta, rng, size)`` with one point and one generator returns
    that point's ``size`` draws.  Every oracle here builds its ``sample``
    with :func:`block_sampler`, and a block equals its points drawn one at
    a time, bit for bit.
    ``mean`` is the noise-free response when known (used for optimality-gap
    reporting and exactness tests), ``truth`` maps a point to its
    :class:`GroundTruth`, and ``argmin`` is the known minimizer for
    benchmark functions.
    """

    dim: int
    label: str
    sample: Callable[[np.ndarray, object, int], np.ndarray]
    mean: Callable[[np.ndarray], float] | None = None
    truth: Callable[[np.ndarray], GroundTruth] | None = None
    argmin: np.ndarray | None = None


def block_sampler(block: Callable) -> Callable:
    """The ``sample`` of an oracle whose ``block(points, rngs, size)`` draws
    the ``(m, size)`` block of a 2-D ``points`` as :class:`SimulationOracle`
    describes; one point with one generator is drawn as a block of one."""

    def sample(theta, rng, size):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 2:
            return block(theta, rng, size)
        return block(theta.reshape(1, -1), [rng], size)[0]

    return sample


def draw_responses(oracle: SimulationOracle, points: np.ndarray, rngs, size: int) -> np.ndarray:
    """``size`` draws of the response at each row of the 2-D block
    ``points``, refusing non-finite ones.

    ``rngs`` holds one generator per row; the ``(m, size)`` block is drawn
    by one ``oracle.sample`` call.  The error names the first point whose
    draws are not all finite.
    """
    points = np.asarray(points)
    if points.ndim != 2 or len(rngs) != len(points):
        raise ValueError(f"need one generator per row, got {len(rngs)} for points {points.shape}")
    y = oracle.sample(points, rngs, size)
    finite = np.isfinite(y)
    if not finite.all():
        point = points[np.argmin(finite.all(axis=-1))]
        raise NonFiniteResponseError(
            f"oracle {oracle.label} returned a non-finite response at theta={point.tolist()}"
        )
    return y


def _standard_normal_rows(rngs: Sequence, size: int) -> np.ndarray:
    """``size`` standard normals from each generator of ``rngs``, one row
    each, drawn in row order.  Each run of consecutive rows that share a
    generator is drawn in one fill: a C-contiguous ``(k, size)`` fill takes
    the same normals in the same order as ``k`` fills of ``size``.
    ``loc + scale * z`` over these rows equals ``rng.normal(loc, scale,
    size)`` bit for bit: both take the same ziggurat normals."""
    # One fill per run: a fill per row makes a dfo operation 4.6% slower.
    y = np.empty((len(rngs), size))
    start = 0
    for stop in range(1, len(rngs) + 1):
        if stop == len(rngs) or rngs[stop] is not rngs[start]:
            rngs[start].standard_normal(out=y[start:stop])
            start = stop
    return y


def _gaussian_oracle(
    dim: int, label: str, mean_rows: Callable, sd_rows: Callable | None = None,
    truth: Callable | None = None, argmin: np.ndarray | None = None,
) -> SimulationOracle:
    """A known mean plus Gaussian noise.  ``mean_rows`` and ``sd_rows`` map
    a 2-D block of points to one value per row; the noise is standard when
    ``sd_rows`` is not given.  A block scales its standard normals by the
    rows' sd and adds their mean; ``mean`` of one point is the mean of a
    block of one."""

    def block(points, rngs, size):
        y = _standard_normal_rows(rngs, size)
        if sd_rows is not None:
            y *= sd_rows(points)[:, None]
        y += mean_rows(points)[:, None]
        return y

    def mean(theta):
        return float(mean_rows(np.asarray(theta, dtype=float).reshape(1, -1))[0])

    return SimulationOracle(
        dim=dim, label=label, sample=block_sampler(block), mean=mean, truth=truth, argmin=argmin
    )


# ---------------------------------------------------------------------------
# Scaled sine (homoscedastic and heteroscedastic noise)
# ---------------------------------------------------------------------------

def sin_oracle(kappa: float, case: int = 1) -> SimulationOracle:
    """Mean response ``kappa*sin(theta)`` with Gaussian noise.

    Case 1 (homoscedastic): unit noise variance everywhere.
    Case 2 (heteroscedastic): noise variance ``exp(-3*theta)``.
    """
    if not (np.isfinite(kappa) and kappa != 0):
        raise ValueError(f"kappa must be finite and nonzero, got {kappa}")
    try:
        # The optimal perturbation squares the bias constant, which is at
        # most kappa/6 in magnitude.
        (kappa / 6.0) ** 2
    except OverflowError:
        raise ValueError(
            f"kappa is out of range: the square of its bias constant kappa/6 overflows, got {kappa}"
        ) from None
    if case not in (1, 2):
        raise ValueError(f"unknown case {case!r}")

    def truth(theta):
        t = float(np.atleast_1d(theta)[0])
        ct = float(np.cos(t))
        return GroundTruth(
            deriv=kappa * ct,
            bias_const=-kappa * ct / 6.0,
            fifth_const=kappa * ct / 120.0,
            noise_var=1.0 if case == 1 else float(np.exp(-1.5 * t)) ** 2,
        )

    return _gaussian_oracle(
        1, f"sin{case}", lambda points: kappa * np.sin(points[:, 0]),
        sd_rows=(lambda points: np.exp(-1.5 * points[:, 0])) if case == 2 else None, truth=truth,
    )


# ---------------------------------------------------------------------------
# Degree-5 polynomial
# ---------------------------------------------------------------------------

def poly_oracle() -> SimulationOracle:
    """Mean response ``1 - 6 t + 6 t^2 - 2.5 t^3 + 0.1 t^5`` with unit noise."""

    def value(t):
        return 1.0 - 6.0 * t + 6.0 * t * t - 2.5 * t**3 + 0.1 * t**5

    def truth(theta):
        t = float(np.atleast_1d(theta)[0])
        return GroundTruth(
            deriv=-6.0 + 12.0 * t - 7.5 * t * t + 0.5 * t**4,
            bias_const=-2.5 + t * t,
            fifth_const=0.1,
            noise_var=1.0,
        )

    return _gaussian_oracle(
        1, "poly", lambda points: np.array(_rowwise(value, points[:, 0].tolist())), truth=truth
    )


# ---------------------------------------------------------------------------
# Noisy optimization benchmarks
# ---------------------------------------------------------------------------

# The polynomial and the benchmark functions take a 2-D block with one point
# per row.  Their powers are taken on Python floats, row by row, so a row's
# value does not depend on the rows beside it: numpy's vectorized power
# rounds 7,004 of 200,000 poly means (uniform on [-5, 5]) differently on
# AVX-512.

def _rowwise(value: Callable[..., float], *columns: list[float]) -> list[float]:
    """``value`` of each row of ``columns``.  Python's float power raises
    OverflowError past the float range; such a row is ``+inf``.  That is
    numpy's value for the benchmark functions, which are sums of even
    powers; ``poly`` can overflow negative, but every infinite response is
    refused by :func:`draw_responses` whatever its sign."""
    return [_or_inf(value, row) for row in zip(*columns)]


def _or_inf(value: Callable[..., float], row) -> float:
    try:
        return value(*row)
    except OverflowError:
        return math.inf


def rosenbrock(x: np.ndarray) -> np.ndarray:
    f = _rowwise(lambda x1, x2: 100.0 * (x2 - x1 * x1) ** 2 + (x1 - 1.0) ** 2,
                 x[:, 0].tolist(), x[:, 1].tolist())
    return np.array(f)


def zakharov(x: np.ndarray) -> np.ndarray:
    weights = 0.5 * np.arange(1, x.shape[1] + 1)
    # A far point's sums overflow to infinity, which the caller refuses as
    # a non-finite response.
    with np.errstate(over="ignore"):
        squares = (x * x).sum(axis=-1).tolist()
        sums = (weights * x).sum(axis=-1).tolist()
    return np.array(_rowwise(lambda q, s: q + s**2 + s**4, squares, sums))


def noisy_bench_oracle(fn: str, d: int) -> SimulationOracle:
    """Benchmark function plus unit Gaussian noise; the clean function stays
    exposed through ``mean`` for gap reporting."""
    if fn == "rosenbrock":
        if d != 2:
            raise ValueError("rosenbrock is defined in two dimensions")
        f, argmin = rosenbrock, np.ones(2)
    elif fn == "zakharov":
        if d < 1:
            raise ValueError(f"zakharov needs d >= 1, got {d}")
        f, argmin = zakharov, np.zeros(d)
    else:
        raise ValueError(f"unknown benchmark function {fn!r}")
    return _gaussian_oracle(d, f"{fn}@{d}", f, argmin=argmin)


# ---------------------------------------------------------------------------
# M/M/1 queue: average waiting time of the first N customers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueueSpec:
    """Single-server Markovian queue observed for a fixed number of customers."""

    arrival_rate: float
    service_rate: float
    horizon: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.arrival_rate) and self.arrival_rate > 0):
            raise ValueError(f"arrival_rate must be finite and positive, got {self.arrival_rate}")
        if not (np.isfinite(self.service_rate) and self.service_rate > 0):
            raise ValueError(f"service_rate must be finite and positive, got {self.service_rate}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")


# The queue walks its paths in pieces of ``_walk_width(n_steps)`` paths.
# ``_SWEEP_PATHS`` bounds a piece at short horizons: one customer's pass
# over a piece touches about one cache line per path, and 2^14 lines (1 MB)
# stay in a 2 MB L2 cache.  ``_BLOCK_STEPS`` bounds a piece's path-steps at
# long horizons, 4 MB of float64 differences: about 1,000 paths at 500
# customers.  The difference block holds as many whole rows as fit in one
# piece.  Both were set from a sweep of ``cor`` estimates at 10, 50 and 500
# customers and 1e3 to 1e5 pairs on a 2-core x86-64 host (see CHANGES.md):
# 2^15 paths was up to 10% slower at 10 customers, and one flat cap of
# 2^19 path-steps up to 19% slower.
# 2^18 path-steps was 14% slower at 500 customers and 2^20 8% slower at 50.
_SWEEP_PATHS = 1 << 14
_BLOCK_STEPS = 1 << 19

# Paths from which the waiting-time walk goes customer by customer rather
# than path by path (see ``_wait_sums``); both give the same bits.
# Per-piece timings put the crossover near 100, 128 and 150 paths at 10, 50 and 500 customers.
_WALK_PATHS = 128


def _walk_width(n_steps: int) -> int:
    """Paths the queue walks at a time, with ``n_steps`` differences each."""
    return max(1, min(_SWEEP_PATHS, _BLOCK_STEPS // max(1, n_steps)))


def _draw_paths(
    rng: np.random.Generator, lam: float, mu: float, arrivals: np.ndarray, services: np.ndarray
) -> None:
    """Fill ``arrivals`` and then ``services`` (paths by customers) from
    ``rng`` with inverse-CDF exponential draws, ``log(u) * (-1 / rate)``,
    computed in place: the scale times standard-exponential form of
    ``Generator.exponential``, one multiply per value where ``-log(u) /
    rate`` takes a division.  A fixed stream reproduces the paths exactly."""
    for out, rate in ((arrivals, lam), (services, mu)):
        rng.random(out=out)
        np.log(out, out=out)
        out *= -1.0 / rate


def _wait_sums(x: np.ndarray) -> np.ndarray:
    """Each path's sum of waiting times, given its differences ``x = S - A``
    (paths by customers 2..N), which it may overwrite.

    Lindley's recursion ``W_j = max(W_{j-1} + S_j - A_j, 0)`` from
    ``W_0 = 0`` has the closed form ``W_j = X_j - min(0, X_1, ..., X_j)``,
    where ``X`` is the partial sum of ``S - A``.  The paths are walked in
    pieces of ``_walk_width`` paths.  On a piece under ``_WALK_PATHS``
    paths, a cumulative sum and a running minimum run along each path, and
    a second cumulative sum adds up its waits; from there on, one pass per
    customer runs over the piece, four numpy calls per customer however
    many paths it holds, and adds each wait to its path's sum as it is
    walked.  Both take the same sequential partial sums, exact minima and
    subtractions, and sum the waits in customer order, so they give the
    same bits, and a path's sum does not depend on the paths beside it.
    """
    sums = np.zeros(len(x))
    if not x.shape[1]:
        return sums
    width = _walk_width(x.shape[1])
    for start in range(0, len(x), width):
        w = x[start : start + width]
        acc = sums[start : start + width]
        if len(w) < _WALK_PATHS:
            np.cumsum(w, axis=1, out=w)
            low = np.minimum.accumulate(w, axis=1)
            np.minimum(low, 0.0, out=low)
            w -= low
            np.cumsum(w, axis=1, out=w)
            acc[:] = w[:, -1]
            continue
        total, low, wait = np.zeros(len(w)), np.zeros(len(w)), np.empty(len(w))
        for j in range(w.shape[1]):
            total += w[:, j]
            np.minimum(low, total, out=low)
            np.subtract(total, low, out=wait)
            acc += wait
    return sums


def queue_oracle(
    spec: QueueSpec, parameter: str = "service", measure: str = DEFAULT_MEASURE
) -> SimulationOracle:
    """Per-customer congestion of the first ``horizon`` customers, as a
    function of one rate parameter (the other stays fixed at its spec value).

    The first customer arrives to an empty system and never waits.  The
    default response is the average time in system; ``measure="wait"``
    restricts it to the average waiting time.  The default (service rate,
    time in system) pairing is the one that reproduces the published
    sensitivity values; see the README.

    Each row draws its paths from its own generator with
    :func:`_draw_paths`, every interarrival and then every service, into
    one difference block that holds as many whole rows as fit in one walk
    of ``_walk_width`` paths, and at least one row; it is reused for the
    next rows once walked.  Each response equals that of its point drawn
    alone, bit for bit.
    """
    if parameter not in ("arrival", "service"):
        raise ValueError(f"parameter must be 'arrival' or 'service', got {parameter!r}")
    if measure not in ("wait", "sojourn"):
        raise ValueError(f"measure must be 'wait' or 'sojourn', got {measure!r}")
    horizon = spec.horizon
    n_steps = horizon - 1
    n_svc = horizon if measure == "sojourn" else n_steps

    def rates(points):
        values = points[:, 0].tolist()
        for t in values:
            if not t > 0:
                raise DomainError(f"queue rates must be positive, got theta={[t]}")
        if parameter == "arrival":
            return [(t, spec.service_rate) for t in values]
        return [(spec.arrival_rate, t) for t in values]

    def block(points, rngs, size):
        rows = rates(points)
        y = np.zeros((len(rows), size))
        per_block = min(len(rows), max(1, _walk_width(n_steps) // max(1, size)))
        diffs = np.empty((per_block * size, n_steps))
        services = np.empty((size, n_svc))
        for start in range(0, len(rows), per_block):
            stop = min(start + per_block, len(rows))
            x = diffs[: (stop - start) * size]
            for j, arrivals in zip(range(start, stop), x.reshape(stop - start, size, n_steps)):
                _draw_paths(rngs[j], *rows[j], arrivals, services)
                np.subtract(services[:, :n_steps], arrivals, out=arrivals)
                if measure == "sojourn":
                    services.sum(axis=1, out=y[j])
            y[start:stop] += _wait_sums(x).reshape(stop - start, size)
        y /= horizon
        return y

    label = f"queue@{spec.arrival_rate},{spec.service_rate},{spec.horizon},{parameter},{measure}"
    return SimulationOracle(dim=1, label=label, sample=block_sampler(block))


# ---------------------------------------------------------------------------
# Problem registry: string ids -> (oracle, point of interest, truth)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """An oracle together with the point where the derivative (or the
    optimization) is taken, and ground truth when available."""

    oracle: SimulationOracle
    theta0: np.ndarray
    truth: GroundTruth | None


def _number(kind: type, text: str, problem_id: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(
            f"problem id {problem_id!r}: {text.strip()!r} is not a valid {kind.__name__}"
        ) from None


def parse_problem(problem_id: str, kappa: float = DEFAULT_KAPPA) -> Problem:
    """Build a problem from its string id.

    Supported ids: ``sin1``, ``sin2``, ``poly@<theta0>``, ``rosenbrock``,
    ``zakharov@<d>``, ``queue@<lam>,<mu>,<N>,<param>``.
    """
    pid = problem_id.strip()
    name, _, arg = pid.partition("@")
    if name in ("sin1", "sin2"):
        if arg:
            raise ValueError(f"{name} takes no parameters, got {pid!r}")
        oracle = sin_oracle(kappa, 1 if name == "sin1" else 2)
        theta0 = np.zeros(1)
        return Problem(oracle, theta0, oracle.truth(theta0))
    if name == "poly":
        theta0 = np.array([_number(float, arg, pid)]) if arg else np.zeros(1)
        if not np.isfinite(theta0[0]):
            raise ValueError(f"poly point must be finite, got {pid!r}")
        oracle = poly_oracle()
        try:
            truth = oracle.truth(theta0)
        except OverflowError:
            raise ValueError(
                f"poly point must keep its ground truth within the float range, got {pid!r}"
            ) from None
        return Problem(oracle, theta0, truth)
    if name == "rosenbrock":
        if arg:
            raise ValueError(f"rosenbrock takes no parameters, got {pid!r}")
        oracle = noisy_bench_oracle("rosenbrock", 2)
        return Problem(oracle, np.zeros(2), None)
    if name == "zakharov":
        d = _number(int, arg, pid) if arg else 1
        oracle = noisy_bench_oracle("zakharov", d)
        return Problem(oracle, np.ones(d), None)
    if name == "queue":
        parts = arg.split(",")
        if len(parts) not in (4, 5):
            raise ValueError(
                f"queue id must be queue@<lam>,<mu>,<N>,<param>[,<measure>], got {pid!r}"
            )
        spec = QueueSpec(
            _number(float, parts[0], pid),
            _number(float, parts[1], pid),
            _number(int, parts[2], pid),
        )
        parameter = parts[3].strip()
        measure = parts[4].strip() if len(parts) == 5 else DEFAULT_MEASURE
        oracle = queue_oracle(spec, parameter, measure)
        theta0 = np.array([spec.arrival_rate if parameter == "arrival" else spec.service_rate])
        return Problem(oracle, theta0, None)
    raise ValueError(f"unknown problem id {pid!r}")
