"""The four benchmark workloads.

Each workload is a closed loop of operations: the next operation starts when
the previous one has returned.  Operation ``i`` of a run with seed ``s`` is
fully determined by ``(s, i)``, so a traced rerun of the same operations must
reproduce the untraced outputs bit for bit.

Every operation reports the sample pairs and oracle evaluations it spent and
the derivative estimates it produced; ``finish`` turns the collected outputs
into the workload's accuracy figures and correctness checks.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import corfd.cli
import corfd.dfo
import corfd.estimators
import corfd.oracle
from corfd.sampling import stream

HERE = os.path.dirname(os.path.abspath(__file__))

# Published comparison grid, copied from the acceptance suite
# (tests/test_acceptance.py, criterion 3): (budget, theta0) -> (bias_cor,
# bias_opt, var_cor, var_opt, mse_cor, mse_opt), each from 1000 replications.
PUBLISHED_GRID = {
    (100, 0): (-0.3034, -0.1851, 0.0711, 0.0655, 0.1631, 0.0997),
    (100, 1): (-0.2616, -0.1581, 0.0679, 0.0489, 0.1362, 0.0739),
    (100, 2): (0.0351, 0.1501, 0.0658, 0.0474, 0.0670, 0.0699),
    (100, 3): (0.1673, 0.2340, 0.0750, 0.1313, 0.1030, 0.1861),
    (1000, 0): (-0.1256, -0.0865, 0.0111, 0.0131, 0.0269, 0.0205),
    (1000, 1): (-0.1169, -0.0670, 0.0099, 0.0100, 0.0235, 0.0145),
    (1000, 2): (0.0345, 0.0757, 0.0099, 0.0098, 0.0111, 0.0155),
    (1000, 3): (0.0889, 0.1150, 0.0117, 0.0291, 0.0196, 0.0423),
    (10000, 0): (-0.0559, -0.0380, 0.0018, 0.0034, 0.0049, 0.0048),
    (10000, 1): (-0.0487, -0.0352, 0.0016, 0.0023, 0.0040, 0.0035),
    (10000, 2): (0.0157, 0.0309, 0.0017, 0.0023, 0.0019, 0.0033),
    (10000, 3): (0.0414, 0.0521, 0.0021, 0.0061, 0.0038, 0.0088),
}
PUBLISHED_REPS = 1000

# Units of the accuracy figures that ``finish`` returns.
QUALITY_UNITS = {"mse_ratio": "ratio", "rel_rmse": "ratio", "og_p50": "gap"}

# Standard errors a statistical check allows before it fails.  Ten or more
# such checks run per result, so the family-wise false-failure rate stays
# below 1e-4 per run.
Z = 5.0


@dataclass
class OpResult:
    """What one operation did and produced."""

    output: bytes  # compared bit for bit between traced and untraced runs
    pairs: int
    evals: int
    estimates: int
    ok: bool
    data: object = None
    seconds: float = 0.0  # CPU seconds rescaled to the probe's reference speed
    wall_s: float = 0.0
    speed: float = 0.0  # reference probe time over the probe times around the operation


@dataclass
class Workload:
    name: str
    threads: int  # CORFD_THREADS
    cycle: int  # operations per balanced round; runs stop on a round boundary
    trace_ops: int  # operations a traced run replays, a fixed number so counts repeat exactly
    setup_code: str  # what a fresh interpreter runs before its first operation
    stress: tuple[str, ...]  # layers this workload must record spans for
    probe: str = "python"  # kind of host-speed probe, the one closest to the hot path
    probe_reps: int = 1  # probe runs after each operation, about a tenth of its time
    cpus: int | None = None  # pin the run to this many CPUs; None leaves it unpinned

    def prepare(self, tmp: str) -> None:
        self.tmp = tmp

    def op(self, seed: int, i: int) -> OpResult:
        raise NotImplementedError

    def finish(self, results: list[OpResult]):
        """Return ({quality metric: value}, [(check, ok, detail)])."""
        raise NotImplementedError


def op_seed(seed: int, i: int) -> int:
    """Seed of operation ``i``, for calls that take an integer seed."""
    return seed * 1_000_000 + i


def _bench_op(tmp: str, settings: dict[str, str], seed: int, i: int, cells: int, reps: int) -> OpResult:
    """One ``corfd bench`` call through the CLI entry point."""
    summary = os.path.join(tmp, "summary.csv")
    detail = os.path.join(tmp, "detail.csv")
    for path in (summary, detail):
        if os.path.exists(path):
            os.remove(path)
    argv = ["bench"]
    for key, value in {**settings, "reps": str(reps), "seed": str(op_seed(seed, i)),
                       "out": summary, "detail_out": detail}.items():
        argv += ["--set", f"{key}={value}"]
    code = corfd.cli.main(argv)
    with open(summary, "rb") as fh:
        summary_bytes = fh.read()
    with open(detail, "rb") as fh:
        detail_bytes = fh.read()
    rows = list(csv.DictReader(io.StringIO(detail_bytes.decode())))
    estimates = [float(r["estimate"]) for r in rows]
    pairs = sum(int(r["pairs_used"]) for r in rows)
    ok = (
        code == 0
        and len(rows) == cells * reps
        and summary_bytes.count(b"\n") == cells + 1
        and all(math.isfinite(x) for x in estimates)
    )
    cells_out = {}
    for r in rows:
        cells_out.setdefault((r["problem"], r["method"], int(r["pairs"])), []).append(float(r["estimate"]))
    return OpResult(summary_bytes + detail_bytes, pairs, 2 * pairs, len(rows), ok, cells_out)


def _merge_cells(results: list[OpResult]) -> dict:
    merged: dict = {}
    for res in results:
        if res.ok:
            for key, values in res.data.items():
                merged.setdefault(key, []).extend(values)
    return merged


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def _within(got: float, want: float, se: float, rel: float) -> bool:
    """``got`` matches ``want`` within Z standard errors plus a relative allowance."""
    return abs(got - want) <= Z * se + rel * abs(want)


class Grid(Workload):
    """The paper's comparison grid through ``corfd bench``."""

    BUDGETS = (100, 1000, 10000)
    REPS = 1

    def __init__(self):
        super().__init__(
            name="grid", threads=1, cycle=4, trace_ops=48, probe="bootstrap", probe_reps=1,
            setup_code="import corfd.cli as c; c.build_parser(); [c.parse_problem(f'poly@{t}') for t in range(4)]",
            stress=("bootstrap", "cli", "bench"),
        )

    def op(self, seed, i):
        settings = {"problem": f"poly@{i % 4}", "methods": "cor,opt",
                    "budgets": ",".join(map(str, self.BUDGETS))}
        return _bench_op(self.tmp, settings, seed, i, 2 * len(self.BUDGETS), self.REPS)

    def finish(self, results):
        cells = _merge_cells(results)
        mse_ratios, worst, ok = [], [], True
        for (budget, theta0), pub in PUBLISHED_GRID.items():
            truth = corfd.oracle.parse_problem(f"poly@{theta0}").truth.deriv
            mse = {}
            for m, method in enumerate(("cor", "opt")):
                x = np.asarray(cells.get((f"poly@{theta0}", method, budget), []))
                if x.size < 2:
                    ok = False
                    worst.append(f"{method}/{budget}/{theta0}: {x.size} reps")
                    continue
                bias, var = x.mean() - truth, x.var(ddof=1)
                mse[method] = float(np.mean((x - truth) ** 2))
                pub_bias, pub_var = pub[m], pub[2 + m]
                # Either within Z standard errors of the published value, or
                # within the factor-2 band that acceptance criterion 3 allows.
                bias_se = math.sqrt(pub_var / x.size + pub_var / PUBLISHED_REPS)
                bias_ok = _within(bias, pub_bias, bias_se, 0.0) or 0.5 <= bias / pub_bias <= 2.0
                log_var_se = math.sqrt(2.0 / (x.size - 1) + 2.0 / (PUBLISHED_REPS - 1))
                var_ok = abs(math.log(var / pub_var)) <= max(Z * log_var_se, math.log(2.0))
                if not (bias_ok and var_ok):
                    ok = False
                    worst.append(f"{method}/{budget}/{theta0}: bias {bias:.4f} var {var:.4f}")
            if len(mse) == 2:
                mse_ratios.append(mse["cor"] / mse["opt"])
        reps = min((len(v) for v in cells.values()), default=0)
        detail = f"24 cells, >= {reps} reps each" if ok else "; ".join(worst)
        quality = {"mse_ratio": _geomean(mse_ratios)} if mse_ratios else {}
        return quality, [("published_grid", ok, detail)]


class GridPar(Workload):
    """``corfd bench`` with a two-worker process pool on the sine problems."""

    PROBLEMS = ("sin1", "sin2")
    METHODS = ("tra", "opt", "boot", "cor")
    BUDGETS = (100, 300, 1000, 3000)
    REPS = 32
    # Finite-budget bias allowance: the assumed-constants baseline and the
    # pilot-based methods are biased at small budgets by a few percent of the
    # derivative.
    BIAS_REL = 0.1

    def __init__(self):
        super().__init__(
            name="grid-par", threads=2, cycle=2, trace_ops=6, probe="bootstrap", probe_reps=20,
            setup_code="import corfd.cli as c; import concurrent.futures.process; c.build_parser(); c.parse_problem('sin1'); c.parse_problem('sin2')",
            stress=("bench", "cli"),
            # The host intermittently takes most of one of the two CPUs
            # away: unpinned, the two-worker pool's operations ranged from
            # 1.3 s to 2.7 s between runs.  On one CPU the pool is still
            # created, fed and shut down per cell, and its cost is measured
            # without the parallel speed-up that the host cannot guarantee.
            cpus=1,
        )

    def op(self, seed, i):
        settings = {"problem": self.PROBLEMS[i % 2], "methods": ",".join(self.METHODS),
                    "budgets": ",".join(map(str, self.BUDGETS)), "r": "0.5"}
        cells = len(self.METHODS) * len(self.BUDGETS)
        return _bench_op(self.tmp, settings, seed, i, cells, self.REPS)

    def finish(self, results):
        cells = _merge_cells(results)
        bad, ratios = [], []
        for problem in self.PROBLEMS:
            truth = corfd.oracle.parse_problem(problem).truth.deriv
            for budget in self.BUDGETS:
                mse = {}
                for method in self.METHODS:
                    x = np.asarray(cells.get((problem, method, budget), []))
                    if x.size < 2 or not _within(x.mean(), truth, x.std(ddof=1) / math.sqrt(x.size), self.BIAS_REL):
                        bad.append(f"{problem}/{method}/{budget}: n={x.size} mean={x.mean() if x.size else float('nan'):.4f}")
                        continue
                    mse[method] = float(np.mean((x - truth) ** 2))
                if "cor" in mse and "opt" in mse:
                    ratios.append(mse["cor"] / mse["opt"])
        reps = min((len(v) for v in cells.values()), default=0)
        detail = "; ".join(bad) if bad else f"32 cells within {Z:g} SE + {self.BIAS_REL:g} x truth, >= {reps} reps each"
        quality = {"mse_ratio": _geomean(ratios)} if ratios else {}
        return quality, [("sine_truth", not bad, detail)]


class Queue(Workload):
    """Single ``cor`` estimates on the M/M/1 queue, called directly."""

    PROBLEM = "queue@3,5,500,service"
    PAIRS = 1000
    # Allowance for the estimator's finite-budget bias against the reference.
    # At this budget the mean estimate sits about 6% below the reference:
    # the estimates have a heavy left tail (see perfbench/README.md).
    BIAS_REL = 0.1

    def __init__(self):
        super().__init__(
            name="queue", threads=1, cycle=1, trace_ops=64, probe_reps=3,
            setup_code=f"from corfd.oracle import parse_problem; from corfd.estimators import EstimatorConfig; parse_problem('{self.PROBLEM}'); EstimatorConfig()",
            stress=("oracle", "estimators", "sampling", "bootstrap", "regression"),
        )

    def prepare(self, tmp):
        super().prepare(tmp)
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)
        self.cfg = corfd.estimators.EstimatorConfig()

    def op(self, seed, i):
        problem = corfd.oracle.parse_problem(self.PROBLEM)
        est = corfd.estimators.cor_cfd(problem.oracle, problem.theta0, 0, self.PAIRS, self.cfg, stream(seed, i))
        return OpResult(float(est.value).hex().encode(), self.PAIRS, 2 * self.PAIRS, 1,
                        math.isfinite(est.value), est.value)

    def finish(self, results):
        x = np.array([r.data for r in results if r.ok])
        ref, ref_se = self.reference["deriv"], self.reference["stderr"]
        if x.size < 2:
            return {}, [("queue_reference", False, f"{x.size} estimates")]
        rel_rmse = float(np.sqrt(np.mean((x - ref) ** 2)) / abs(ref))
        se = math.sqrt(x.var(ddof=1) / x.size + ref_se**2)
        ok = _within(x.mean(), ref, se, self.BIAS_REL)
        detail = f"mean {x.mean():.5f} vs reference {ref:.5f} +/- {ref_se:.5f}, rel_rmse {rel_rmse:.4f} over {x.size}"
        return {"rel_rmse": rel_rmse}, [("queue_reference", ok, detail)]


class Dfo(Workload):
    """The optimizer on ``zakharov@10`` at 1e5 pairs, one seeded run per operation."""

    PROBLEM = "zakharov@10"
    BUDGET = 100_000
    # Acceptance criterion 8's targets for the medians over seeded runs.
    MAX_OG = 1.0
    MAX_SG = 0.5

    def __init__(self):
        super().__init__(
            name="dfo", threads=1, cycle=1, trace_ops=8, probe_reps=25,
            setup_code=f"from corfd.oracle import parse_problem; from corfd.dfo import DfoConfig; parse_problem('{self.PROBLEM}'); DfoConfig(budget={self.BUDGET})",
            stress=("dfo", "estimators", "sampling", "regression"),
        )

    def prepare(self, tmp):
        super().prepare(tmp)
        self.cfg = corfd.dfo.DfoConfig(budget=self.BUDGET)

    def op(self, seed, i):
        problem = corfd.oracle.parse_problem(self.PROBLEM)
        oracle = problem.oracle
        trace = corfd.dfo.corcfd_lbfgs(oracle, problem.theta0, self.cfg, stream(seed, i))
        theta = trace.theta_final
        ls_evals = sum(row.get("ls_evals", 0) for row in trace.iterations)
        og = oracle.mean(theta) - oracle.mean(oracle.argmin)
        sg = float(np.linalg.norm(theta - oracle.argmin))
        ok = bool(np.all(np.isfinite(theta))) and trace.evals_total >= 2 * self.BUDGET
        # One gradient per recorded row, one estimate per coordinate.
        estimates = len(trace.iterations) * oracle.dim
        output = theta.tobytes() + str(trace.evals_total).encode()
        return OpResult(output, (trace.evals_total - ls_evals) // 2, trace.evals_total, estimates, ok, (og, sg))

    def finish(self, results):
        done = [r.data for r in results if r.ok]
        if not done:
            return {}, [("criterion_8_target", False, "no finished runs")]
        og = float(np.median([d[0] for d in done]))
        sg = float(np.median([d[1] for d in done]))
        ok = og <= self.MAX_OG and sg <= self.MAX_SG
        detail = f"median OG {og:.5f} <= {self.MAX_OG}, median SG {sg:.5f} <= {self.MAX_SG} over {len(done)} runs"
        return {"og_p50": og}, [("criterion_8_target", ok, detail)]


WORKLOADS = {w.name: w for w in (Grid(), Queue(), Dfo(), GridPar())}
