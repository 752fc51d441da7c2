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
from .oracle import parse_problem
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
    kappa: float = 10.0
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
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; expected {METHODS}")

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
    and one ``(cell, message)`` entry per cell that is infeasible or whose
    constant estimation fails.  Such cells are reported and skipped; the rest
    of the grid still runs.  With ``CORFD_THREADS`` above one, the cells share
    one process pool.
    """
    detail_rows: list[list] = []
    summary_rows: list[list] = []
    failures: list[tuple[str, str]] = []
    truth = cfg.truth()
    workers = _thread_count()
    cells = [(m, n) for m in cfg.methods for n in cfg.budgets]
    parallel = workers > 1 and cfg.reps > 1
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        for cell_index, (method, budget) in enumerate(cells):
            label = f"{cfg.problem}/{method}/{budget}"
            try:
                # Preflight a single replication so configuration errors
                # surface once per cell instead of once per worker chunk.
                results = _run_cell_chunk(cfg, method, budget, cell_index, [0])
                rest = range(1, cfg.reps)
                if pool is not None:
                    # ``map`` cancels the cell's queued chunks if one fails.
                    chunks = [c.tolist() for c in np.array_split(np.asarray(rest), workers) if c.size]
                    run_chunk = partial(_run_cell_chunk, cfg, method, budget, cell_index)
                    for chunk_results in pool.map(run_chunk, chunks):
                        results.extend(chunk_results)
                elif rest:
                    results.extend(_run_cell_chunk(cfg, method, budget, cell_index, rest))
            except ValueError as exc:
                failures.append((label, str(exc)))
                continue
            results.sort(key=lambda r: r[0])
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
