"""Replicated-experiment harness: runs estimator grids over seeded
replications and emits tidy CSV summaries.

Replication ``i`` of grid cell ``j`` always consumes the stream addressed by
``(seed, j, i)``, which is child ``i`` of ``stream(seed, j)``, so results are
identical whether cells run serially or across processes.  A cell derives
its replications as one level of ``stream(seed, j)``'s children and cuts it
once into batches, each one batched estimator call of at most
``_BATCH_PAIRS`` pairs (or one replication).  A grid's batches are dealt
into one share per worker: the calling process runs the first share, and
each other share runs in a child forked for it, which sends its rows back
through a pipe.
"""
from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    EstimatorConfig,
    boot_cfd,
    cor_cfd,
    opt_cfd,
    optimal_perturbation,
    tra_cfd,
)
from .oracle import DEFAULT_KAPPA, GroundTruth, Problem, parse_problem
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


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use.  corfd does not use it,
    but the benchmark's tracer (``perfbench/spans.py``) patches it by name."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


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
    """One experiment grid's settings, checked alone: a problem id, which
    :func:`run_replications` parses, methods, budgets and replication count.

    Replication ``i`` of cell ``j`` runs on child ``i`` of ``stream(seed,
    j)``.  ``kappa`` scales the sine problems' mean response
    ``kappa * sin(theta)``.  ``truth_override`` replaces the problem's true
    derivative, against which the summary rows are taken.
    """

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


def _run_batch(cfg: ExperimentConfig, problem: Problem, method: str, budget: int, level: Streams):
    """One batched estimator call on ``problem``, one replication per row of
    the :class:`~corfd.sampling.Streams` level ``level``: ``(value,
    pairs_used, perturbation)`` per row."""
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


def _run_share(cfg: ExperimentConfig, problem: Problem, jobs):
    """Run one share of a grid's batches on ``problem`` in order, in the
    calling process or in a forked child, which inherits ``problem``: per
    job ``(cell, method, budget, level)``, its rows, or its cell's ``(error
    type, message)`` once a batch of that cell has failed here, in which
    case the share skips the cell's later batches."""
    results, failed = [], {}
    for cell, method, budget, level in jobs:
        if cell not in failed:
            try:
                results.append(_run_batch(cfg, problem, method, budget, level))
                continue
            except (ValueError, MemoryError) as exc:
                # numpy raises a MemoryError subclass for an array too large to allocate.
                kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
                failed[cell] = (kind, str(exc))
        results.append(failed[cell])
    return results


def _fork_share(cfg: ExperimentConfig, problem: Problem, jobs) -> tuple[int, int]:
    """Run one share in a forked child; its pid and the read end of the pipe
    that brings back the pickled ``(True, outcomes)`` or ``(False,
    exception)``.  The child always ends in ``os._exit``, so it never
    returns into the caller's stack or flushes the caller's stdio."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                result = (True, _run_share(cfg, problem, jobs))
            except BaseException as exc:
                result = (False, exc)
            with open(write, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _join_share(pid: int, read: int):
    """Read a forked share's pipe to EOF and reap its child: what the child
    sent, or ``None`` if the child died or its result does not unpickle."""
    with open(read, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data) if status == 0 else None
    except Exception:
        return None


def run_replications(cfg: ExperimentConfig):
    """Run the experiment grid on its problem, which is parsed once, here.

    ``opt`` on a problem that does not know its bias constant and noise
    variance raises :class:`ValueError` before any cell runs.  Otherwise
    returns ``(detail_rows, summary_rows, failures)``: one detail row per
    replication, one summary row per feasible cell when the truth is known,
    and one ``(cell, error type, message)`` entry per cell that is
    infeasible, whose constant estimation fails or whose arrays do not fit
    in memory.  Such cells are reported and skipped; the rest of the grid
    still runs.  Replication ``i`` of cell ``j`` runs on child ``i`` of
    ``stream(seed, j)``.  A cell's replications are cut once into batches
    of at most ``_BATCH_PAIRS`` pairs (or one replication) and at most
    ``ceil(reps / CORFD_THREADS)`` replications, each one batched estimator
    call, so one error fails the whole cell.  The grid's batches are dealt
    round-robin into at most ``CORFD_THREADS`` shares, each run in order.
    Each share after the first runs in a child forked for it before this
    process runs the first share; where ``os.fork`` does not exist, the
    grid runs as one share, with the same outputs.  Rows are put back in
    replication order, and a failing cell reports its earliest failing
    batch.  A child that dies, or whose result does not arrive whole,
    raises :class:`ChildProcessError`, which names the cells of its share.
    An error other than those above propagates once every child has been
    reaped: this process's own first, then the children's in share order.
    """
    problem = parse_problem(cfg.problem, cfg.kappa)
    known = problem.truth or GroundTruth()
    if "opt" in cfg.methods and (known.bias_const is None or known.noise_var is None):
        raise ValueError(
            f"opt needs the true bias constant and noise variance, which problem "
            f"{cfg.problem} does not know"
        )
    truth = known.deriv if cfg.truth_override is None else cfg.truth_override
    workers = _thread_count()
    cells = [(m, n) for m in cfg.methods for n in cfg.budgets]
    roots = spawn(stream(cfg.seed), len(cells))
    jobs = []
    for cell, ((method, budget), root) in enumerate(zip(cells, roots)):
        level = root.spawn(cfg.reps)
        size = min(max(1, _BATCH_PAIRS // budget), -(-cfg.reps // workers))
        jobs += [(cell, method, budget, level[start:start + size])
                 for start in range(0, cfg.reps, size)]
    count = min(workers, len(jobs)) if hasattr(os, "fork") else 1
    shares = [jobs[k::count] for k in range(count)]
    outcomes = [None] * len(jobs)
    children = []
    try:
        # The other shares fork first, before this process allocates
        # anything for share 0.
        for share in shares[1:]:
            children.append(_fork_share(cfg, problem, share))
        outcomes[0::count] = _run_share(cfg, problem, shares[0])
    finally:
        results = [_join_share(pid, read) for pid, read in children]
    for k, result in enumerate(results, 1):
        if result is None:
            lost = dict.fromkeys(f"{cfg.problem}/{m}/{n}" for _, m, n, _ in shares[k])
            raise ChildProcessError(
                f"a bench worker process ended abruptly running cells {', '.join(lost)}"
            )
        ok, value = result
        if not ok:
            raise value
        outcomes[k::count] = value
    rows: list[list] = [[] for _ in cells]
    errors: dict[int, tuple[str, str]] = {}
    for (cell, *_), outcome in zip(jobs, outcomes):
        if isinstance(outcome, list):
            rows[cell] += outcome
        else:
            errors.setdefault(cell, outcome)
    detail_rows: list[list] = []
    summary_rows: list[list] = []
    failures: list[tuple[str, str, str]] = []
    for cell, (method, budget) in enumerate(cells):
        if cell in errors:
            failures.append((f"{cfg.problem}/{method}/{budget}", *errors[cell]))
            continue
        for rep, (value, pairs_used, perturbation) in enumerate(rows[cell]):
            detail_rows.append([cfg.problem, method, budget, rep, value, pairs_used, perturbation])
        if truth is not None:
            s = summarize([row[0] for row in rows[cell]], truth)
            summary_rows.append([cfg.problem, method, budget, s.reps, s.bias, s.variance, s.mse])
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
