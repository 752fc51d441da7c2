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
    "GroundTruth",
    "SimulationOracle",
    "QueueSpec",
    "sin_oracle",
    "poly_oracle",
    "noisy_bench_oracle",
    "queue_oracle",
    "lr_derivative_oracle",
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

    ``sample(theta, rng, size)`` returns ``size`` independent draws at one
    point.  ``sample_rows(points, rngs, size)``, when given, draws ``size``
    values at each row of a 2-D block of points, row ``j`` from ``rngs[j]``;
    it must return bit for bit what one ``sample`` call per row returns.
    ``mean`` is the noise-free response when known (used for optimality-gap
    reporting and exactness tests), ``truth`` maps a point to its
    :class:`GroundTruth`, and ``argmin`` is the known minimizer for
    benchmark functions.
    """

    dim: int
    label: str
    sample: Callable[[np.ndarray, np.random.Generator, int], np.ndarray]
    mean: Callable[[np.ndarray], float] | None = None
    truth: Callable[[np.ndarray], GroundTruth] | None = None
    argmin: np.ndarray | None = None
    sample_rows: Callable[[np.ndarray, Sequence, int], np.ndarray] | None = None

    def eval(self, theta: np.ndarray | float, rng: np.random.Generator) -> float:
        """One scalar draw of ``Y(theta)``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return float(draw_responses(self, theta, rng, 1)[0])


def draw_responses(oracle: SimulationOracle, theta: np.ndarray, rng, size: int) -> np.ndarray:
    """``size`` draws of the response at ``theta``, refusing non-finite ones.

    ``theta`` is one point and ``rng`` a generator, or ``theta`` is a 2-D
    block of points and ``rng`` a sequence of generators, one per row; the
    block has shape ``(m, size)``.  Row ``j`` is drawn from ``rng[j]``, and
    rows that share a generator draw from it in row order: by the oracle's
    ``sample_rows`` when it has one, otherwise by one ``sample`` call per
    row.  The error names the first point whose draws are not all finite;
    a ``sample`` call that overflows counts as infinite draws.
    """
    theta = np.asarray(theta)
    if theta.ndim == 2:
        if len(rng) != len(theta):
            raise ValueError(f"need one generator per point, got {len(rng)} for {len(theta)}")
        if oracle.sample_rows is not None:
            y = oracle.sample_rows(theta, rng, size)
        else:
            y = np.empty((len(rng), size))
            for j, row_rng in enumerate(rng):
                y[j] = _sample(oracle, theta[j], row_rng, size)
    else:
        y = _sample(oracle, theta, rng, size)
    finite = np.isfinite(y)
    if not finite.all():
        point = theta if theta.ndim < 2 else theta[np.argmin(finite.all(axis=-1))]
        raise NonFiniteResponseError(
            f"oracle {oracle.label} returned a non-finite response at theta={point.tolist()}"
        )
    return y


def _sample(oracle: SimulationOracle, theta: np.ndarray, rng, size: int) -> np.ndarray:
    """``oracle.sample``, reading an overflow as infinite draws: Python's
    float power raises OverflowError past the float range, where numpy's
    gives infinity."""
    try:
        return oracle.sample(theta, rng, size)
    except OverflowError:
        return np.full(size, np.inf)


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

    def mean(theta):
        return float(kappa * np.sin(np.atleast_1d(theta)[0]))

    def sd(theta):
        t = float(np.atleast_1d(theta)[0])
        return 1.0 if case == 1 else float(np.exp(-1.5 * t))

    def sample(theta, rng, size):
        return rng.normal(mean(theta), sd(theta), size)

    def truth(theta):
        t = float(np.atleast_1d(theta)[0])
        ct = float(np.cos(t))
        return GroundTruth(
            deriv=kappa * ct,
            bias_const=-kappa * ct / 6.0,
            fifth_const=kappa * ct / 120.0,
            noise_var=sd(t) ** 2,
        )

    return SimulationOracle(dim=1, label=f"sin{case}", sample=sample, mean=mean, truth=truth)


# ---------------------------------------------------------------------------
# Degree-5 polynomial
# ---------------------------------------------------------------------------

def poly_oracle() -> SimulationOracle:
    """Mean response ``1 - 6 t + 6 t^2 - 2.5 t^3 + 0.1 t^5`` with unit noise."""

    def mean(theta):
        t = float(np.atleast_1d(theta)[0])
        return 1.0 - 6.0 * t + 6.0 * t * t - 2.5 * t**3 + 0.1 * t**5

    def sample(theta, rng, size):
        return rng.normal(mean(theta), 1.0, size)

    def truth(theta):
        t = float(np.atleast_1d(theta)[0])
        return GroundTruth(
            deriv=-6.0 + 12.0 * t - 7.5 * t * t + 0.5 * t**4,
            bias_const=-2.5 + t * t,
            fifth_const=0.1,
            noise_var=1.0,
        )

    return SimulationOracle(dim=1, label="poly", sample=sample, mean=mean, truth=truth)


# ---------------------------------------------------------------------------
# Noisy optimization benchmarks
# ---------------------------------------------------------------------------

# The benchmark functions take one point, or a 2-D block with one point per
# row.  Their powers are taken on Python floats: numpy's vectorized power can
# round the last bit differently, and a block must reproduce the values of
# its points taken one at a time.

def _rowwise(value: Callable[..., float], *columns: list[float]) -> list[float]:
    """``value`` of each row of ``columns``.  Python's float power raises
    OverflowError past the float range; such a row is infinite, as numpy
    makes it.  Both benchmark functions are sums of even powers, so the
    infinity is positive."""
    try:
        return list(map(value, *columns))
    except OverflowError:
        return [_or_inf(value, row) for row in zip(*columns)]


def _or_inf(value: Callable[..., float], row) -> float:
    try:
        return value(*row)
    except OverflowError:
        return math.inf


def rosenbrock(x: np.ndarray) -> float | np.ndarray:
    x = np.asarray(x, dtype=float)
    pairs = x.reshape(-1, 2)
    f = _rowwise(
        lambda x1, x2: 100.0 * (x2 - x1 * x1) ** 2 + (x1 - 1.0) ** 2,
        pairs[:, 0].tolist(), pairs[:, 1].tolist(),
    )
    return f[0] if x.ndim == 1 else np.array(f)


def zakharov(x: np.ndarray) -> float | np.ndarray:
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    i = np.arange(1, rows.shape[-1] + 1)
    # A far point's sums overflow to infinity, which the caller refuses as
    # a non-finite response.
    with np.errstate(over="ignore"):
        squares = np.sum(rows * rows, axis=-1).tolist()
        sums = np.sum(0.5 * i * rows, axis=-1).tolist()
    f = _rowwise(lambda q, s: q + s**2 + s**4, squares, sums)
    return f[0] if x.ndim == 1 else np.array(f)


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

    def sample(theta, rng, size):
        return f(theta) + rng.standard_normal(size)

    def sample_rows(points, rngs, size):
        y = np.empty((len(rngs), size))
        for row, rng in zip(y, rngs):
            rng.standard_normal(out=row)
        y += f(points)[:, None]
        return y

    return SimulationOracle(
        dim=d, label=f"{fn}@{d}", sample=sample, mean=lambda t: float(f(t)), argmin=argmin,
        sample_rows=sample_rows,
    )


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


# Path-steps per block of the waiting-time walk: two float64 work arrays of
# this many elements (1 MB in all), whatever the number of paths.
_QUEUE_BLOCK = 1 << 16


def _exponentials(rng: np.random.Generator, shape: tuple[int, int], rate: float) -> np.ndarray:
    """Inverse-CDF exponential draws, ``-log(u) / rate``, computed in place."""
    u = rng.random(shape)
    np.log(u, out=u)
    u /= -rate
    return u


def _simulate_queue(
    lam: float,
    mu: float,
    horizon: int,
    measure: str,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Waiting times of ``size`` independent paths, vectorized over customers.

    Returns (responses, interarrival draws, service draws); the draws are
    needed by the score-function derivative estimator.  Exponentials come from
    the inverse CDF so a fixed stream reproduces paths exactly.  With
    ``measure="wait"`` the response is the average waiting time of the first
    ``horizon`` customers; with ``measure="sojourn"`` their average time in
    system (wait plus own service), which draws one extra service time.

    Lindley's recursion ``W_j = max(W_{j-1} + S_j - A_j, 0)`` from ``W_0 = 0``
    has the closed form ``W_j = X_j - min(0, X_1, ..., X_j)``, where ``X`` is
    the partial sum of ``S - A``: one cumulative sum and one running minimum
    along the customer axis, taken over blocks of paths.
    """
    n_steps = horizon - 1
    n_svc = horizon if measure == "sojourn" else n_steps
    # Interarrivals of customers 2..N, then the services in customer order.
    arrivals = _exponentials(rng, (size, n_steps), lam)
    services = _exponentials(rng, (size, n_svc), mu)
    total = np.zeros(size)
    if n_steps:
        rows = max(1, _QUEUE_BLOCK // n_steps)
        walk = np.empty((min(rows, size), n_steps))
        low = np.empty_like(walk)
        for start in range(0, size, rows):
            stop = min(start + rows, size)
            x, m = walk[: stop - start], low[: stop - start]
            np.subtract(services[start:stop, :n_steps], arrivals[start:stop], out=x)
            np.cumsum(x, axis=1, out=x)
            np.minimum.accumulate(x, axis=1, out=m)
            np.minimum(m, 0.0, out=m)
            x -= m
            x.sum(axis=1, out=total[start:stop])
    if measure == "sojourn":
        total += services.sum(axis=1)
    return total / horizon, arrivals, services


def queue_oracle(
    spec: QueueSpec, parameter: str = "service", measure: str = DEFAULT_MEASURE
) -> SimulationOracle:
    """Per-customer congestion of the first ``horizon`` customers, as a
    function of one rate parameter (the other stays fixed at its spec value).

    The first customer arrives to an empty system and never waits.  The
    default response is the average time in system; ``measure="wait"``
    restricts it to the average waiting time.  The default (service rate,
    time in system) pairing is the one validated against the published
    sensitivity values by :func:`lr_derivative_oracle`; see the README.
    """
    if parameter not in ("arrival", "service"):
        raise ValueError(f"parameter must be 'arrival' or 'service', got {parameter!r}")
    if measure not in ("wait", "sojourn"):
        raise ValueError(f"measure must be 'wait' or 'sojourn', got {measure!r}")

    def rates(theta):
        t = float(np.atleast_1d(theta)[0])
        if not t > 0:
            raise ValueError(f"queue rates must be positive, got {t}")
        if parameter == "arrival":
            return t, spec.service_rate
        return spec.arrival_rate, t

    def sample(theta, rng, size):
        lam, mu = rates(theta)
        response, _, _ = _simulate_queue(lam, mu, spec.horizon, measure, rng, size)
        return response

    label = f"queue@{spec.arrival_rate},{spec.service_rate},{spec.horizon},{parameter},{measure}"
    return SimulationOracle(dim=1, label=label, sample=sample)


# Paths per block of the score-function estimator: bounds its memory, since
# each block keeps every interarrival and service draw of its paths.
_LR_BATCH = 200_000


def lr_derivative_oracle(
    spec: QueueSpec,
    parameter: str,
    reps: int,
    rng: np.random.Generator,
    measure: str = DEFAULT_MEASURE,
) -> float:
    """Score-function estimate of the derivative of the expected queue
    response with respect to the chosen rate.

    Used only to validate the queue problems: the estimator multiplies each
    simulated response by the log-likelihood derivative of the exponential
    draws the response depends on.
    """
    if parameter not in ("arrival", "service"):
        raise ValueError(f"parameter must be 'arrival' or 'service', got {parameter!r}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    lam, mu = spec.arrival_rate, spec.service_rate
    total = 0.0
    done = 0
    while done < reps:
        m = min(_LR_BATCH, reps - done)
        response, arrivals, services = _simulate_queue(lam, mu, spec.horizon, measure, rng, m)
        if parameter == "arrival":
            score = np.sum(1.0 / lam - arrivals, axis=1)
        else:
            score = np.sum(1.0 / mu - services, axis=1)
        total += float(np.sum(response * score))
        done += m
    return total / reps


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
