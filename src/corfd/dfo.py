"""Derivative-free quasi-Newton optimization driven by the correlation-induced
difference estimator.

The optimizer estimates a gradient per coordinate from batches of sample
pairs, takes limited-memory BFGS steps, picks step lengths with a noise-slack
backtracking test, and grows the batch as the iterates approach a minimizer.
Budgets count function evaluations: one sample pair costs two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import EstimatorConfig, cor_cfd, optimal_perturbation, tra_cfd
from .oracle import DomainError, NonFiniteResponseError, SimulationOracle, draw_responses
from .sampling import PerturbationGenerator, spawn

__all__ = [
    "DfoConfig",
    "LbfgsMemory",
    "DfoTrace",
    "two_loop_direction",
    "stochastic_armijo",
    "batch_schedule",
    "gradient_via_corcfd",
    "corcfd_lbfgs",
]

_MAX_BACKTRACKS = 50

# Assumed bias constant and noise variance that fix the step of the "tra"
# gradient baseline, standing in for "no model information".
_TRA_BIAS_CONST = 1.0
_TRA_NOISE_VAR = 1.0

GRADIENT_METHODS = ("cor", "tra")

# Relative curvature threshold below which an (s, y) pair is discarded.
_CURVATURE_RTOL = 1e-10


@dataclass(frozen=True)
class DfoConfig:
    """Settings of the optimizer.

    ``budget`` is the total sample-pair budget (the evaluation loop runs
    while fewer than ``2 * budget`` evaluations have been spent).
    ``batch_init`` is the starting per-coordinate pair batch; it must cover
    at least two pilot pairs per perturbation.  ``noise_bound`` is the slack
    of the line-search test, an upper bound on the response's standard
    deviation; beyond that slack the test demands decrease (see
    :func:`stochastic_armijo`), by ``l1`` times the step times the model's
    decrease rate.  The search starts at ``step_init`` and multiplies a
    rejected step by ``l2``.  ``memory_depth`` is the number of
    displacement / gradient-difference pairs the L-BFGS memory keeps.
    ``gradient_method`` selects the full
    pipeline ("cor") or the one-pair-per-coordinate baseline ("tra").  The
    gradient estimator takes the closed-form bootstrap moments of its pilot
    columns and spends its whole batch on pilots.
    """

    budget: int
    K: int = 5
    batch_init: int = 20
    l1: float = 1e-4
    l2: float = 0.5
    step_init: float = 1.0
    noise_bound: float = 1.0
    memory_depth: int = 10
    coeff_gen: PerturbationGenerator = field(default_factory=PerturbationGenerator)
    gradient_method: str = "cor"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if not 0 < self.l1 < self.l2 < 1:
            raise ValueError(f"need 0 < l1 < l2 < 1, got ({self.l1}, {self.l2})")
        if not 0 < self.step_init < np.inf:
            raise ValueError(f"initial step (a0) must be finite and positive, got {self.step_init}")
        if not 0 <= self.noise_bound < np.inf:
            raise ValueError(
                f"noise bound (sigma) must be finite and nonnegative, got {self.noise_bound}"
            )
        if self.memory_depth < 1:
            raise ValueError(f"memory depth must be >= 1, got {self.memory_depth}")
        if self.gradient_method not in GRADIENT_METHODS:
            raise ValueError(
                f"gradient_method must be one of {', '.join(GRADIENT_METHODS)}, "
                f"got {self.gradient_method!r}"
            )
        if self.gradient_method == "cor" and self.batch_init < 2 * self.K:
            raise ValueError(
                f"initial batch {self.batch_init} cannot cover 2 pilot pairs per "
                f"perturbation (K={self.K})"
            )

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(K=self.K, coeff_gen=self.coeff_gen)


class LbfgsMemory:
    """Ring of recent displacement / gradient-difference pairs.

    Pairs failing the positive-curvature guard are never stored, keeping the
    implied inverse-Hessian approximation positive definite.  Each stored
    pair keeps its ``rho = 1 / (s @ y)`` beside it.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self.s: list[np.ndarray] = []
        self.y: list[np.ndarray] = []
        self.rho: list[float] = []

    def __len__(self) -> int:
        return len(self.s)

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Store the pair unless its curvature is non-positive; returns
        whether it was stored."""
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        sy = float(s.dot(y))
        if sy <= _CURVATURE_RTOL * (_norm(s) * _norm(y)):
            return False
        self.s.append(s)
        self.y.append(y)
        self.rho.append(1.0 / sy)
        if len(self.s) > self.depth:
            self.s.pop(0)
            self.y.pop(0)
            self.rho.pop(0)
        return True


def two_loop_direction(memory: LbfgsMemory, g: np.ndarray) -> np.ndarray:
    """Apply the implied inverse-Hessian approximation to ``g``.

    Standard two-loop recursion; the initial matrix is the identity scaled by
    the newest pair's curvature ratio, or the identity itself when the memory
    is empty.
    """
    g = np.asarray(g, dtype=float)
    m = len(memory)
    if m == 0:
        return g.copy()
    alpha = [0.0] * m
    rho, s, y = memory.rho, memory.s, memory.y
    q = g.copy()
    for i in range(m - 1, -1, -1):
        alpha[i] = rho[i] * float(s[i].dot(q))
        q -= alpha[i] * y[i]
    q *= float(s[-1].dot(y[-1])) / float(y[-1].dot(y[-1]))
    for i in range(m):
        q += (alpha[i] - rho[i] * float(y[i].dot(q))) * s[i]
    return q


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a float vector without its dispatch: numpy
    computes it as this square root of ``v.dot(v)``."""
    return math.sqrt(v.dot(v))


def batch_schedule(batch: int, k: int, K: int) -> int:
    """Next per-coordinate batch: ``floor((batch + k + 1) / K) * K``.

    Always a positive multiple of ``K`` (tiny inputs are floored up to ``K``),
    and nondecreasing in the iteration counter for feasible inputs.
    """
    if batch < 1 or K < 1 or k < 0:
        raise ValueError("batch and K must be positive, k nonnegative")
    nxt = (batch + k + 1) // K * K
    return max(nxt, K)


@dataclass(frozen=True)
class ArmijoResult:
    step: float
    evals: int
    gave_up: bool
    y_start: float
    y_accepted: float


def stochastic_armijo(
    oracle: SimulationOracle,
    theta: np.ndarray,
    direction: np.ndarray,
    decrease_rate: float,
    step_init: float,
    l1: float,
    l2: float,
    noise_bound: float,
    rng: np.random.Generator,
) -> ArmijoResult:
    """Backtracking line search under noisy function values.

    Shrinks the step geometrically until one noisy draw at the trial point
    falls below the start draw minus a sufficient-decrease term, slackened by
    twice the noise bound.  ``decrease_rate`` is the (positive) model decrease
    rate along ``direction``; the trial is accepted when
    ``y_trial <= y_start - l1*step*decrease_rate + 2*noise_bound``, the
    noise-tolerant test of Berahas, Byrd & Nocedal (2019); a trial outside
    the oracle's domain or with a non-finite draw is rejected.  Gives up
    after 50 backtracks, flagged, with step 0 and the start draw.
    """
    if step_init <= 0:
        raise ValueError(f"initial step must be positive, got {step_init}")
    y_start = float(draw_responses(oracle, np.reshape(theta, (1, -1)), [rng], 1)[0, 0])
    evals = 1
    slack = 2.0 * noise_bound
    step = step_init
    for _ in range(_MAX_BACKTRACKS + 1):
        trial = np.reshape(theta + step * direction, (1, -1))
        try:
            y_trial = float(draw_responses(oracle, trial, [rng], 1)[0, 0])
        except (DomainError, NonFiniteResponseError):
            y_trial = math.inf
        evals += 1
        if y_trial <= y_start - l1 * step * decrease_rate + slack:
            return ArmijoResult(step, evals, False, y_start, y_trial)
        step *= l2
    return ArmijoResult(0.0, evals, True, y_start, y_start)


def gradient_via_corcfd(
    oracle: SimulationOracle,
    theta: np.ndarray,
    pairs_per_coord: int,
    cfg: EstimatorConfig,
    rng,
) -> np.ndarray:
    """Coordinate-wise gradient estimate, one independent pipeline run per
    coordinate, all in one batched call; costs ``2 * dim * pairs_per_coord``
    evaluations.  Coordinate ``i`` runs on child ``i`` of ``rng``, a
    generator (which spawns ``dim`` children, as ``rng.spawn(dim)`` would)
    or a one-row :class:`~corfd.sampling.Streams` level."""
    theta = np.asarray(theta, dtype=float)
    streams = spawn(rng, theta.size)
    estimates = cor_cfd(oracle, theta, range(theta.size), pairs_per_coord, cfg, streams)
    return np.array([est.value for est in estimates])


def _gradient_tra(oracle: SimulationOracle, theta: np.ndarray, rng) -> np.ndarray:
    # One sample pair per coordinate at the fixed assumed-constants step,
    # all coordinates in one batched estimator call.
    h = optimal_perturbation(_TRA_NOISE_VAR, _TRA_BIAS_CONST, 1)
    estimates = tra_cfd(oracle, theta, range(theta.size), 1, h, spawn(rng, theta.size))
    return np.array([est.value for est in estimates])


@dataclass
class DfoTrace:
    """Per-iteration history of one optimizer run."""

    iterations: list[dict] = field(default_factory=list)
    theta_final: np.ndarray | None = None
    evals_total: int = 0

    def record(self, **row) -> None:
        self.iterations.append(row)


def corcfd_lbfgs(
    oracle: SimulationOracle,
    theta0: np.ndarray,
    cfg: DfoConfig,
    rng: np.random.Generator,
) -> DfoTrace:
    """Run the optimizer from ``theta0`` until the evaluation budget is spent.

    Each iteration: line search along the quasi-Newton direction, parameter
    update, batch growth, fresh gradient at the new iterate, memory update
    with the consecutive-iterate displacement and gradient difference.  The
    loop guard checks the budget at entry only, so the final iteration may
    overshoot by its own cost; the trace records actual evaluations.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    d = theta.size
    use_cor = cfg.gradient_method == "cor"
    est_cfg = cfg.estimator_config() if use_cor else None

    trace = DfoTrace()
    memory = LbfgsMemory(cfg.memory_depth)
    batch = cfg.batch_init if use_cor else 1

    def new_gradient(point, pairs, stream):
        if use_cor:
            return gradient_via_corcfd(oracle, point, pairs, est_cfg, stream)
        return _gradient_tra(oracle, point, stream)

    def f_true(point):
        return float(oracle.mean(point)) if oracle.mean is not None else np.nan

    # Only the caller's generator spawns for real; the tree beneath it is
    # derived, with the streams rng.spawn would give.
    init, loop = spawn(rng, 2)
    g = new_gradient(theta, batch, init)
    t = 2 * d * batch
    trace.record(
        k=-1, t=t, step=np.nan, batch=batch, y_start=np.nan,
        theta=theta.copy(), grad=g.copy(), grad_norm=_norm(g),
        f_true=f_true(theta),
    )

    k = 0
    while t < 2 * cfg.budget:
        ls_stream, grad_stream = loop.spawn(2)
        (ls_rng,) = ls_stream.generators()
        hg = two_loop_direction(memory, g)
        decrease = float(g.dot(hg))
        if decrease <= 0:
            # Curvature guard should prevent this; fall back to steepest descent.
            hg = g.copy()
            decrease = float(g.dot(g))
        ls = stochastic_armijo(
            oracle, theta, -hg, decrease, cfg.step_init, cfg.l1, cfg.l2,
            cfg.noise_bound, ls_rng,
        )
        t += ls.evals
        theta_next = theta - ls.step * hg
        next_batch = batch_schedule(batch, k, cfg.K) if use_cor else 1
        g_next = new_gradient(theta_next, next_batch, grad_stream)
        t += 2 * d * next_batch
        memory.push(theta_next - theta, g_next - g)
        trace.record(
            k=k,
            t=t,
            step=ls.step,
            batch=next_batch,
            ls_evals=ls.evals,
            ls_gave_up=ls.gave_up,
            y_start=ls.y_start,
            y_accepted=ls.y_accepted,
            theta=theta_next.copy(),
            grad=g_next.copy(),
            grad_norm=_norm(g_next),
            decrease_rate=decrease,
            f_true=f_true(theta_next),
        )
        theta, g, batch = theta_next, g_next, next_batch
        k += 1
    trace.theta_final = theta
    trace.evals_total = t
    return trace
