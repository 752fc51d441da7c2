"""Replicated-experiment harness: runs estimator grids over seeded
replications and emits tidy CSV summaries.

Replication ``i`` of grid cell ``j`` always consumes the stream addressed by
``(seed, j, i)``, which is child ``i`` of ``stream(seed, j)``, so results are
identical whether cells run serially or across processes.  A cell derives
its replications as one level of ``stream(seed, j)``'s children and cuts it
once into batches, each one batched estimator call of at most
``_BATCH_PAIRS`` pairs (or one replication).  A grid's batches are dealt
into one share per worker: the calling process runs the first share, and a
pool of one worker process per other share runs the rest, one task each.
"""
from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .estimators import (
    EstimatorConfig,
    boot_cfd,
    cor_cfd,
    opt_cfd,
    optimal_perturbation,
    tra_cfd,
)
from .oracle import DEFAULT_KAPPA, parse_problem
from .sampling import Streams, spawn, stream

__all__ = [
    "SummaryStats",
    "ExperimentConfig",
    "summarize",
    "run_replications",
    "emit_csv",
    "SUMMARY_HEADER",
    "DETAIL_HEADER",
]

SUMMARY_HEADER = ["problem", "method", "pairs", "reps", "bias", "variance", "mse"]
DETAIL_HEADER = ["problem", "method", "pairs", "rep", "estimate", "pairs_used", "perturbation"]

METHODS = ("tra", "opt", "boot", "cor")

# The most pairs one estimator call of a cell carries.  Batching amortizes
# each call's fixed cost over its replications; the cap bounds the memory of
# a batch, whose arrays grow with the pairs it holds.
_BATCH_PAIRS = 1 << 16


@dataclass(frozen=True)
class SummaryStats:
    """Replication summary against a known truth.

    Population-variance convention (denominator R), which makes
    ``mse == bias**2 + variance`` an exact identity.
    """

    bias: float
    variance: float
    mse: float
    reps: int
    truth: float


def summarize(estimates, truth: float) -> SummaryStats:
    """Bias, variance and mean squared error of the replication values; a
    statistic beyond the float range is ``inf``."""
    values = np.asarray(estimates, dtype=float).ravel()
    if values.size < 1:
        raise ValueError("need at least one replication")
    with np.errstate(over="ignore"):
        bias = float(values.mean() - truth)
        variance = float(values.var(ddof=0))
        mse = float(np.mean((values - truth) ** 2))
    return SummaryStats(bias, variance, mse, values.size, float(truth))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid: a problem, methods, budgets, and replication count."""

    problem: str
    methods: tuple[str, ...]
    budgets: tuple[int, ...]
    reps: int
    seed: int = 0
    kappa: float = DEFAULT_KAPPA
    truth_override: float | None = None
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    # Assumed constants of the no-information baseline, and an optional
    # explicit perturbation that overrides them.
    tra_bias_const: float = 5.0
    tra_noise_var: float = 1.0
    tra_perturbation: float | None = None

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; expected {METHODS}")
        est = self.estimator
        if "boot" in self.methods and est.pilot_size is None and est.pilot_fraction == 1:
            raise ValueError(
                "boot discards its pilots, so it needs pilot_fraction (r) below 1 or "
                "pilot_size (n_b) set: at r = 1 the pilots leave fewer than K fresh pairs"
            )
        if not self.budgets or min(self.budgets) < 1:
            raise ValueError(f"budgets must be one or more values >= 1, got {list(self.budgets)}")
        if not 0 < abs(self.tra_bias_const) < np.inf:
            raise ValueError(
                f"tra_bias_const (tra_B) must be finite and nonzero, got {self.tra_bias_const}"
            )
        if not 0 < self.tra_noise_var < np.inf:
            raise ValueError(
                f"tra_noise_var (tra_sigma2) must be finite and positive, got {self.tra_noise_var}"
            )
        if self.tra_perturbation is not None and not 0 < abs(self.tra_perturbation) < np.inf:
            raise ValueError(
                f"tra_perturbation (tra_h) must be finite and nonzero, got {self.tra_perturbation}"
            )
        if self.truth_override is not None and not np.isfinite(self.truth_override):
            raise ValueError(f"truth_override (truth) must be finite, got {self.truth_override}")

    def truth(self) -> float | None:
        if self.truth_override is not None:
            return self.truth_override
        problem = parse_problem(self.problem, self.kappa)
        if problem.truth is not None and problem.truth.deriv is not None:
            return problem.truth.deriv
        return None


def _run_batch(cfg: ExperimentConfig, method: str, budget: int, level: Streams):
    """One batched estimator call, one replication per row of the
    :class:`~corfd.sampling.Streams` level ``level``: ``(value, pairs_used,
    perturbation)`` per row."""
    problem = parse_problem(cfg.problem, cfg.kappa)
    oracle, theta0, coords = problem.oracle, problem.theta0, [0] * len(level)
    if method == "tra":
        h = cfg.tra_perturbation
        if h is None:
            h = optimal_perturbation(cfg.tra_noise_var, cfg.tra_bias_const, budget)
        estimates = tra_cfd(oracle, theta0, coords, budget, h, level)
    elif method == "opt":
        estimates = opt_cfd(oracle, theta0, coords, budget, problem.truth, level)
    elif method == "boot":
        estimates = boot_cfd(oracle, theta0, coords, budget, cfg.estimator, level)
    else:
        estimates = cor_cfd(oracle, theta0, coords, budget, cfg.estimator, level)
    return [(est.value, est.pairs_used, est.perturbation) for est in estimates]


def _thread_count() -> int:
    raw = os.environ.get("CORFD_THREADS") or "1"
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"CORFD_THREADS must be a positive integer, got {raw!r}")
    return count


def _run_share(cfg: ExperimentConfig, jobs):
    """Run one share of a grid's batches in order, in the calling process
    or in a pool worker: per job ``(cell, method, budget, level)``, its
    rows, or its cell's ``(error type, message)`` once a batch of that cell
    has failed here, in which case the share skips the cell's later
    batches."""
    results, failed = [], {}
    for cell, method, budget, level in jobs:
        if cell not in failed:
            try:
                results.append(_run_batch(cfg, method, budget, level))
                continue
            except (ValueError, MemoryError) as exc:
                # numpy raises a MemoryError subclass for an array too large to allocate.
                kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
                failed[cell] = (kind, str(exc))
        results.append(failed[cell])
    return results


def run_replications(cfg: ExperimentConfig):
    """Run the experiment grid.

    Returns ``(detail_rows, summary_rows, failures)``: one detail row per
    replication, one summary row per feasible cell when the truth is known,
    and one ``(cell, error type, message)`` entry per cell that is
    infeasible, whose constant estimation fails or whose arrays do not fit
    in memory.  Such cells are reported and skipped; the rest of the grid
    still runs.  Replication ``i`` of cell ``j`` runs on child ``i`` of
    ``stream(seed, j)``.  A cell's replications are cut once into batches
    of at most ``_BATCH_PAIRS`` pairs (or one replication) and at most
    ``ceil(reps / CORFD_THREADS)`` replications, each one batched estimator
    call, so one error fails the whole cell.  The grid's batches are dealt
    round-robin into at most ``CORFD_THREADS`` shares, each run in order as
    one task.  This process runs the first share; the other shares, if any,
    run on a process pool of one worker per share, submitted before the
    first share starts.  Rows are put back in replication order, and a
    failing cell reports its earliest failing batch.  A worker that ends
    abruptly raises :class:`ChildProcessError`, which names the cells of its
    share.  An error other than those above propagates once the pool has
    shut down.
    """
    detail_rows: list[list] = []
    summary_rows: list[list] = []
    failures: list[tuple[str, str, str]] = []
    truth = cfg.truth()
    workers = _thread_count()
    cells = [(m, n) for m in cfg.methods for n in cfg.budgets]
    roots = spawn(stream(cfg.seed), len(cells))
    jobs = []
    for cell, ((method, budget), root) in enumerate(zip(cells, roots)):
        level = root.spawn(cfg.reps)
        size = min(max(1, _BATCH_PAIRS // budget), -(-cfg.reps // workers))
        jobs += [(cell, method, budget, level[start:start + size])
                 for start in range(0, cfg.reps, size)]
    count = min(workers, len(jobs))
    shares = [jobs[k::count] for k in range(count)]
    run_share = partial(_run_share, cfg)
    outcomes = [None] * len(jobs)
    with ProcessPoolExecutor(max_workers=count - 1) if count > 1 else nullcontext() as pool:
        # The other shares are submitted first, so that the pool forks before
        # this process allocates anything for share 0.
        others = [] if pool is None else pool.map(run_share, shares[1:])
        outcomes[0::count] = run_share(shares[0])
        for k in range(1, count):
            try:
                outcomes[k::count] = next(others)
            except BrokenExecutor:
                lost = dict.fromkeys(f"{cfg.problem}/{m}/{n}" for _, m, n, _ in shares[k])
                raise ChildProcessError(
                    f"a bench worker process ended abruptly running cells {', '.join(lost)}"
                ) from None
    rows: list[list] = [[] for _ in cells]
    errors: dict[int, tuple[str, str]] = {}
    for (cell, *_), outcome in zip(jobs, outcomes):
        if isinstance(outcome, list):
            rows[cell] += outcome
        else:
            errors.setdefault(cell, outcome)
    for cell, (method, budget) in enumerate(cells):
        if cell in errors:
            failures.append((f"{cfg.problem}/{method}/{budget}", *errors[cell]))
            continue
        for rep, (value, pairs_used, perturbation) in enumerate(rows[cell]):
            detail_rows.append([cfg.problem, method, budget, rep, value, pairs_used, perturbation])
        if truth is not None:
            stats = summarize([row[0] for row in rows[cell]], truth)
            summary_rows.append(
                [cfg.problem, method, budget, stats.reps, stats.bias, stats.variance, stats.mse]
            )
    return detail_rows, summary_rows, failures


def _field(value) -> str:
    """One CSV field: a float in 17 significant digits, an integer or bool
    as ``str`` gives it, anything else as text, quoted where it must be."""
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, (int, np.integer)):
        return str(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(rows, header, path) -> None:
    """Write rows under a header; floats carry 17 significant digits so they
    round-trip exactly, and re-running with the same inputs is byte-identical."""
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
    lines = [",".join(header)] + [",".join(map(_field, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)
