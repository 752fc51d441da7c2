"""Command-line interface.

Subcommands: ``estimate`` (replicated gradient estimates on one problem),
``dfo`` (run the optimizer and dump its trace), ``bench`` (experiment grid
from a flat key=value config file), ``diag`` (regression diagnostics for a
coefficient vector).  Exit codes: 0 success, 1 configuration or usage
error, 2 when some grid cells failed while others ran.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields

import numpy as np

from .bench import (
    DETAIL_HEADER,
    METHODS,
    SUMMARY_HEADER,
    ExperimentConfig,
    emit_csv,
    run_replications,
)
from .dfo import GRADIENT_METHODS, DfoConfig, corcfd_lbfgs
from .estimators import EstimatorConfig
from .oracle import DEFAULT_KAPPA, parse_problem
from .regression import projection_diagnostics, theory_constants
from .sampling import PerturbationGenerator, stream

DFO_TRACE_HEADER = ["k", "t", "a_k", "T_k", "f_noisy", "f_true"]
DIAG_HEADER = ["quantity", "value"]


# Settings that ``estimate`` and ``dfo`` take as flags and ``bench`` takes as
# config keys: key -> (dataclass field, type, help).  Every key starts unset,
# so each default lives only in the dataclass that owns the field.
_KEYS = {
    # EstimatorConfig
    "K": ("K", int, "number of pilot perturbations"),
    "r": ("pilot_fraction", float, "budget fraction spent on pilots"),
    "n_b": ("pilot_size", int, "pairs per pilot perturbation (overrides --r)"),
    "I": ("bootstrap_reps", int,
          "Monte Carlo bootstrap resamples per column (unset: closed-form moments)"),
    "gamma": ("pilot_exponent", float, "pilot perturbation exponent: h_k = c_k * n_b**gamma"),
    "clamp_scale": (
        "clamp_scale", float,
        "least magnitude of the fitted bias constant, relative to the fitted derivative",
    ),
    # PerturbationGenerator
    "mu0": ("mu0", float, "mean of the normal the pilot coefficients c_k are drawn from"),
    "sigma0": ("sigma0", float,
               "standard deviation of the normal the pilot coefficients are drawn from"),
    "L": ("lower", float, "lower end of the pilot coefficients' truncation interval"),
    "U": ("upper", float, "upper end of the pilot coefficients' truncation interval"),
    # ExperimentConfig
    "seed": ("seed", int, "root seed of every random stream"),
    "kappa": ("kappa", float, "amplitude of the sine problems' mean response kappa*sin(theta)"),
    "truth": ("truth_override", float, "override the reference derivative"),
    "tra_B": ("tra_bias_const", float, "bias constant that tra assumes"),
    "tra_sigma2": ("tra_noise_var", float, "noise variance that tra assumes"),
    "tra_h": ("tra_perturbation", float,
              "explicit perturbation of tra (overrides --tra-B and --tra-sigma2)"),
    # DfoConfig
    "T0": ("batch_init", int, "starting pair batch per coordinate"),
    "l1": ("l1", float, "line search: sufficient-decrease constant"),
    "l2": ("l2", float, "line search: factor that shrinks a rejected step"),
    "a0": ("step_init", float, "line search: initial step"),
    "sigma": ("noise_bound", float,
              "line search: slack, a bound on the response's standard deviation"),
    "memory": ("memory_depth", int,
               "L-BFGS memory: displacement / gradient-difference pairs kept"),
    "gradient_method": (
        "gradient_method", str,
        "gradient estimator: the full cor pipeline or one tra pair per coordinate",
    ),
}
_GENERATOR_KEYS = ("mu0", "sigma0", "L", "U")
_ESTIMATE_KEYS = (
    "seed", "kappa", "truth", "tra_B", "tra_sigma2", "tra_h",
    "K", "r", "n_b", "I", "gamma", "clamp_scale",
) + _GENERATOR_KEYS
_DFO_KEYS = (
    "K", "T0", "l1", "l2", "a0", "sigma", "memory", "gradient_method",
) + _GENERATOR_KEYS
_CHOICES = {"gradient_method": GRADIENT_METHODS}
_PROBLEM_HELP = (
    "problem id: sin1, sin2, poly@<theta0>, rosenbrock, zakharov@<d> or "
    "queue@<lam>,<mu>,<N>,<param>[,<measure>]"
)


def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        _, kind, text = _KEYS[key]
        parser.add_argument(
            "--" + key.replace("_", "-"), type=kind, choices=_CHOICES.get(key), help=text
        )


def _read(kind, field: str, name: str):
    """``kind(field)`` for the setting ``name``; a field that ``kind`` cannot
    read raises a ValueError naming the setting."""
    try:
        return kind(field)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name}: {field!r} is not {what}") from None


def _kwargs(cls, settings: dict) -> dict:
    """Keyword arguments of dataclass ``cls`` for the keys set in ``settings``;
    a ``coeff_gen`` field is built from the generator keys."""
    names = {f.name for f in fields(cls)}
    kwargs = {
        _KEYS[key][0]: value
        for key, value in settings.items()
        if key in _KEYS and value is not None and _KEYS[key][0] in names
    }
    generator = _kwargs(PerturbationGenerator, settings) if "coeff_gen" in names else {}
    if generator:
        kwargs["coeff_gen"] = PerturbationGenerator(**generator)
    return kwargs


def _estimator_config(settings: dict) -> EstimatorConfig:
    return EstimatorConfig(**_kwargs(EstimatorConfig, settings))


def _cmd_estimate(ns) -> int:
    settings = vars(ns)
    cfg = ExperimentConfig(
        problem=ns.problem,
        methods=(ns.method,),
        budgets=(ns.pairs,),
        reps=ns.reps,
        estimator=_estimator_config(settings),
        **_kwargs(ExperimentConfig, settings),
    )
    detail, summary, failures = run_replications(cfg)
    for label, kind, message in failures:
        print(f"error: {label}: {kind}: {message}", file=sys.stderr)
    if failures:
        return 1
    emit_csv([row[3:] for row in detail], DETAIL_HEADER[3:], ns.out)
    if summary:
        emit_csv(summary, SUMMARY_HEADER, ns.summary_out)
    return 0


def _cmd_dfo(ns) -> int:
    problem = parse_problem(ns.problem, ns.kappa)
    theta0 = problem.theta0
    if ns.start:
        theta0 = np.array([_read(float, x, "--start") for x in ns.start.split(",")])
        if not np.all(np.isfinite(theta0)):
            raise ValueError(f"--start coordinates must be finite, got {ns.start!r}")
        if theta0.size != problem.oracle.dim:
            raise ValueError(
                f"--start has {theta0.size} coordinates, problem needs {problem.oracle.dim}"
            )
    cfg = DfoConfig(budget=ns.budget, **_kwargs(DfoConfig, vars(ns)))
    trace = corcfd_lbfgs(problem.oracle, theta0, cfg, stream(ns.seed))
    rows = [
        [row["k"], row["t"], row.get("step", np.nan), row["batch"],
         row.get("y_accepted", row.get("y_start", np.nan)), row.get("f_true", np.nan)]
        for row in trace.iterations
    ]
    emit_csv(rows, DFO_TRACE_HEADER, ns.out)
    oracle = problem.oracle
    if oracle.argmin is not None and oracle.mean is not None:
        sg = float(np.linalg.norm(trace.theta_final - oracle.argmin))
        og = oracle.mean(trace.theta_final) - oracle.mean(oracle.argmin)
        print(f"SG={sg:.17g},OG={og:.17g},evals={trace.evals_total}")
    else:
        print(f"theta={trace.theta_final.tolist()},evals={trace.evals_total}")
    return 0


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


# Keys only ``bench`` has, with their defaults.
_BENCH_DEFAULTS = {
    "problem": "poly@0",
    "methods": "cor,opt",
    "budgets": "100,1000,10000",
    "reps": "1000",
    "out": "bench_summary.csv",
    "detail_out": "",
}


def _bench_config(values: dict[str, str]) -> tuple[ExperimentConfig, str, str]:
    unknown = set(values) - set(_BENCH_DEFAULTS) - set(_ESTIMATE_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    merged = {**_BENCH_DEFAULTS, **values}
    # An empty value leaves the key unset.
    settings = {
        key: _read(_KEYS[key][1], merged[key], key) for key in _ESTIMATE_KEYS if merged.get(key)
    }
    cfg = ExperimentConfig(
        problem=merged["problem"],
        methods=tuple(m.strip() for m in merged["methods"].split(",") if m.strip()),
        budgets=tuple(_read(int, b, "budgets") for b in merged["budgets"].split(",") if b.strip()),
        reps=_read(int, merged["reps"], "reps"),
        estimator=_estimator_config(settings),
        **_kwargs(ExperimentConfig, settings),
    )
    return cfg, merged["out"], merged["detail_out"]


def _cmd_bench(ns) -> int:
    values: dict[str, str] = {}
    if ns.config:
        values.update(_parse_config_file(ns.config))
    for item in ns.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        values[key.strip()] = value.strip()
    cfg, out, detail_out = _bench_config(values)
    detail, summary, failures = run_replications(cfg)
    for label, kind, message in failures:
        print(f"error: {label}: {kind}: {message}", file=sys.stderr)
    emit_csv(summary, SUMMARY_HEADER, out)
    if detail_out:
        emit_csv(detail, DETAIL_HEADER, detail_out)
    if failures:
        return 2 if detail or summary else 1
    return 0


def _cmd_diag(ns) -> int:
    c = np.array([_read(float, x, "--c") for x in ns.c.split(",") if x.strip()])
    try:
        proj = projection_diagnostics(c)
        const = theory_constants(c, ns.fifth_const, ns.noise_slope)
    except ValueError as exc:
        # A float-range error chains the arithmetic error it replaced.
        if not isinstance(exc.__cause__, ArithmeticError):
            raise
        raise ValueError(
            f"--c {ns.c!r} leaves the float range of the diagnostics: {exc.__cause__}"
        ) from None
    p = proj.residual_projector
    rows = [
        ["projector_idempotency_gap", float(np.max(np.abs(p @ p - p)))],
        ["projector_annihilates_ones", float(np.max(np.abs(p @ np.ones(c.size))))],
        ["projector_annihilates_squares", float(np.max(np.abs(p @ (c * c))))],
        ["bias_shift", proj.bias_shift],
        ["variance_factor", proj.variance_factor],
        ["slope_bias_coeff", const.slope_bias],
        ["slope_var_coeff", const.slope_var],
        ["intercept_bias_coeff", const.intercept_bias],
        ["intercept_var_coeff", const.intercept_var],
        ["noise_bias_coeff", const.noise_bias],
        ["noise_var_coeff", const.noise_var_coeff],
    ]
    emit_csv(rows, DIAG_HEADER, ns.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the configuration-error
    code 1; argparse's own code 2 means a partial grid failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Cached for speed: without it, a process that runs main per grid cell loses ~27% pairs/s.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``corfd`` parser, built on first use and shared by every later
    call in the process: parsing leaves it unchanged, and each parse starts
    from a fresh namespace."""
    parser = _Parser(prog="corfd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="replicated gradient estimates on one problem")
    p_est.add_argument("--problem", required=True, help=_PROBLEM_HELP)
    p_est.add_argument("--method", choices=METHODS, required=True, help="estimator")
    p_est.add_argument("--pairs", type=int, required=True, help="sample-pair budget n")
    p_est.add_argument("--reps", type=int, default=1, help="independent replications")
    p_est.add_argument("--h", dest="tra_h", metavar="H", type=float, help=_KEYS["tra_h"][2])
    p_est.add_argument("--out", default="estimates.csv", help="CSV of one row per replication")
    p_est.add_argument("--summary-out", dest="summary_out", default="estimates_summary.csv",
                       help="CSV of bias, variance and MSE, when the truth is known")
    _add_flags(p_est, [key for key in _ESTIMATE_KEYS if key != "tra_h"])
    p_est.set_defaults(func=_cmd_estimate)

    p_dfo = sub.add_parser("dfo", help="run the derivative-free optimizer")
    p_dfo.add_argument("--problem", required=True, help=_PROBLEM_HELP)
    p_dfo.add_argument("--budget", type=int, required=True, help="total sample-pair budget T")
    p_dfo.add_argument("--seed", type=int, default=0, help=_KEYS["seed"][2])
    p_dfo.add_argument("--kappa", type=float, default=DEFAULT_KAPPA, help=_KEYS["kappa"][2])
    p_dfo.add_argument("--start", default=None, help="comma-separated starting point")
    p_dfo.add_argument("--out", default="dfo_trace.csv", help="CSV of one row per iteration")
    _add_flags(p_dfo, _DFO_KEYS)
    p_dfo.set_defaults(func=_cmd_dfo)

    p_bench = sub.add_parser("bench", help="experiment grid from a config file")
    p_bench.add_argument("--config", default=None, help="flat key=value config file")
    p_bench.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
    p_bench.set_defaults(func=_cmd_bench)

    p_diag = sub.add_parser("diag", help="regression diagnostics for a coefficient vector")
    p_diag.add_argument("--c", required=True, help="comma-separated coefficients")
    p_diag.add_argument("--fifth-const", dest="fifth_const", type=float, default=1.0,
                        help="the problem's quartic-bias (fifth-derivative) constant")
    p_diag.add_argument("--noise-slope", dest="noise_slope", type=float, default=0.0,
                        help="derivative of the response's standard deviation at the point")
    p_diag.add_argument("--out", default="diag.csv", help="CSV of the diagnostics")
    p_diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises a MemoryError subclass for an array too large to allocate.
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
