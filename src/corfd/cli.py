"""Command-line interface.

Subcommands: ``estimate`` (replicated gradient estimates on one problem),
``dfo`` (run the optimizer and dump its trace), ``bench`` (experiment grid
from a flat key=value config file), ``diag`` (regression diagnostics for a
coefficient vector).  Exit codes: 0 success, 1 configuration or usage
error, 2 when some grid cells failed while others ran.
"""
from __future__ import annotations

import argparse
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
# config keys: key -> (dataclass field, type).  Every key starts unset, so
# each default lives only in the dataclass that owns the field.
_KEYS = {
    # EstimatorConfig
    "K": ("K", int),
    "r": ("pilot_fraction", float),
    "n_b": ("pilot_size", int),
    "I": ("bootstrap_reps", int),
    "gamma": ("pilot_exponent", float),
    "clamp_scale": ("clamp_scale", float),
    # PerturbationGenerator
    "mu0": ("mu0", float),
    "sigma0": ("sigma0", float),
    "L": ("lower", float),
    "U": ("upper", float),
    # ExperimentConfig
    "seed": ("seed", int),
    "kappa": ("kappa", float),
    "truth": ("truth_override", float),
    "tra_B": ("tra_bias_const", float),
    "tra_sigma2": ("tra_noise_var", float),
    "tra_h": ("tra_perturbation", float),
    # DfoConfig
    "T0": ("batch_init", int),
    "l1": ("l1", float),
    "l2": ("l2", float),
    "a0": ("step_init", float),
    "sigma": ("noise_bound", float),
    "memory": ("memory_depth", int),
    "gradient_method": ("gradient_method", str),
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
_HELP = {
    "K": "number of pilot perturbations",
    "r": "budget fraction spent on pilots",
    "n_b": "pairs per pilot perturbation (overrides --r)",
    "I": "Monte Carlo bootstrap resamples per column (unset: closed-form moments)",
    "gamma": "pilot perturbation exponent",
    "truth": "override the reference derivative",
}


def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        parser.add_argument(
            "--" + key.replace("_", "-"), type=_KEYS[key][1],
            choices=_CHOICES.get(key), help=_HELP.get(key),
        )


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
        theta0 = np.array([float(x) for x in ns.start.split(",")])
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
    settings = {key: _KEYS[key][1](merged[key]) for key in _ESTIMATE_KEYS if merged.get(key)}
    cfg = ExperimentConfig(
        problem=merged["problem"],
        methods=tuple(m.strip() for m in merged["methods"].split(",") if m.strip()),
        budgets=tuple(int(b) for b in merged["budgets"].split(",") if b.strip()),
        reps=int(merged["reps"]),
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
    c = np.array([float(x) for x in ns.c.split(",") if x.strip()])
    proj = projection_diagnostics(c)
    const = theory_constants(c, ns.fifth_const, ns.noise_slope)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corfd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="replicated gradient estimates on one problem")
    p_est.add_argument("--problem", required=True)
    p_est.add_argument("--method", choices=METHODS, required=True)
    p_est.add_argument("--pairs", type=int, required=True, help="sample-pair budget n")
    p_est.add_argument("--reps", type=int, default=1)
    p_est.add_argument("--h", dest="tra_h", metavar="H", type=float, help="explicit perturbation (tra)")
    p_est.add_argument("--out", default="estimates.csv")
    p_est.add_argument("--summary-out", dest="summary_out", default="estimates_summary.csv")
    _add_flags(p_est, [key for key in _ESTIMATE_KEYS if key != "tra_h"])
    p_est.set_defaults(func=_cmd_estimate)

    p_dfo = sub.add_parser("dfo", help="run the derivative-free optimizer")
    p_dfo.add_argument("--problem", required=True)
    p_dfo.add_argument("--budget", type=int, required=True, help="total sample-pair budget T")
    p_dfo.add_argument("--seed", type=int, default=0)
    p_dfo.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p_dfo.add_argument("--start", default=None, help="comma-separated starting point")
    p_dfo.add_argument("--out", default="dfo_trace.csv")
    _add_flags(p_dfo, _DFO_KEYS)
    p_dfo.set_defaults(func=_cmd_dfo)

    p_bench = sub.add_parser("bench", help="experiment grid from a config file")
    p_bench.add_argument("--config", default=None, help="flat key=value config file")
    p_bench.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
    p_bench.set_defaults(func=_cmd_bench)

    p_diag = sub.add_parser("diag", help="regression diagnostics for a coefficient vector")
    p_diag.add_argument("--c", required=True, help="comma-separated coefficients")
    p_diag.add_argument("--fifth-const", dest="fifth_const", type=float, default=1.0)
    p_diag.add_argument("--noise-slope", dest="noise_slope", type=float, default=0.0)
    p_diag.add_argument("--out", default="diag.csv")
    p_diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
