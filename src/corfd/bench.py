"""Replicated-experiment harness: runs estimator grids over seeded
replications and emits tidy CSV summaries.

Replication ``i`` of grid cell ``j`` always consumes the stream addressed by
``(seed, j, i)``, so results are identical whether cells run serially or
across processes.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
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
from .sampling import stream

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
    """Bias, variance and mean squared error of the replication values."""
    values = np.asarray(estimates, dtype=float).ravel()
    if values.size < 1:
        raise ValueError("need at least one replication")
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


def _run_one(problem, method: str, budget: int, cfg: ExperimentConfig, rng):
    if method == "tra":
        h = cfg.tra_perturbation
        if h is None:
            h = optimal_perturbation(cfg.tra_noise_var, cfg.tra_bias_const, budget)
        return tra_cfd(problem.oracle, problem.theta0, 0, budget, h, rng)
    if method == "opt":
        return opt_cfd(problem.oracle, problem.theta0, 0, budget, problem.truth, rng)
    if method == "boot":
        return boot_cfd(problem.oracle, problem.theta0, 0, budget, cfg.estimator, rng)
    if method == "cor":
        return cor_cfd(problem.oracle, problem.theta0, 0, budget, cfg.estimator, rng)
    raise ValueError(f"unknown method {method!r}")


def _run_cell_chunk(cfg: ExperimentConfig, method: str, budget: int, cell_index: int, reps):
    """Run a block of replications of one cell (worker entry point)."""
    problem = parse_problem(cfg.problem, cfg.kappa)
    out = []
    for rep in reps:
        est = _run_one(problem, method, budget, cfg, stream(cfg.seed, cell_index, rep))
        out.append((rep, est.value, est.pairs_used, est.perturbation))
    return out


def _thread_count() -> int:
    raw = os.environ.get("CORFD_THREADS") or "1"
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"CORFD_THREADS must be a positive integer, got {raw!r}")
    return count


def run_replications(cfg: ExperimentConfig):
    """Run the experiment grid.

    Returns ``(detail_rows, summary_rows, failures)``: one detail row per
    replication, one summary row per feasible cell when the truth is known,
    and one ``(cell, error type, message)`` entry per cell that is
    infeasible or whose constant estimation fails.  Such cells are reported and skipped; the rest
    of the grid still runs.  Each cell's replications run as one chunk, or,
    with ``CORFD_THREADS`` above one, as up to that many contiguous chunks on
    one process pool shared by all cells.  Chunks come back in replication
    order, and a failing chunk cancels the cell's queued ones.
    """
    detail_rows: list[list] = []
    summary_rows: list[list] = []
    failures: list[tuple[str, str, str]] = []
    truth = cfg.truth()
    workers = _thread_count()
    cells = [(m, n) for m in cfg.methods for n in cfg.budgets]
    parallel = workers > 1 and cfg.reps > 1
    splits = np.array_split(np.arange(cfg.reps), workers if parallel else 1)
    chunks = [c.tolist() for c in splits if c.size]
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        run_map = pool.map if pool is not None else map
        for cell_index, (method, budget) in enumerate(cells):
            run_chunk = partial(_run_cell_chunk, cfg, method, budget, cell_index)
            try:
                results = [row for rows in run_map(run_chunk, chunks) for row in rows]
            except ValueError as exc:
                cell = f"{cfg.problem}/{method}/{budget}"
                failures.append((cell, type(exc).__name__, str(exc)))
                continue
            for rep, value, pairs_used, perturbation in results:
                detail_rows.append([cfg.problem, method, budget, rep, value, pairs_used, perturbation])
            if truth is not None:
                stats = summarize([r[1] for r in results], truth)
                summary_rows.append(
                    [cfg.problem, method, budget, stats.reps, stats.bias, stats.variance, stats.mse]
                )
    return detail_rows, summary_rows, failures


def _format_field(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_csv(rows, header, path) -> None:
    """Write rows under a header; floats carry 17 significant digits so they
    round-trip exactly, and re-running with the same inputs is byte-identical."""
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
    lines = [",".join(header)] + [",".join(_quote(_format_field(v)) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _quote(field_text: str) -> str:
    if any(ch in field_text for ch in ',"\n\r'):
        return '"' + field_text.replace('"', '""') + '"'
    return field_text
