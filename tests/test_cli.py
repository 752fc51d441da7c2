import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from corfd.bench import DETAIL_HEADER, ExperimentConfig, run_replications
from corfd.cli import (
    _BENCH_DEFAULTS,
    _DFO_KEYS,
    _ESTIMATE_KEYS,
    _KEYS,
    _bench_config,
    _estimator_config,
    _kwargs,
    build_parser,
    main,
)
from corfd.dfo import DfoConfig
from corfd.estimators import EstimatorConfig
from corfd.regression import projection_diagnostics
from corfd.sampling import PerturbationGenerator


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestEstimateCommand:
    def test_rows_and_summary(self, tmp_path):
        out = tmp_path / "rows.csv"
        summary = tmp_path / "summary.csv"
        code = main([
            "estimate", "--problem", "poly@3", "--method", "cor", "--pairs", "100",
            "--reps", "5", "--seed", "3", "--K", "5", "--I", "100",
            "--out", str(out), "--summary-out", str(summary),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["rep", "estimate", "pairs_used", "perturbation"]
        assert len(rows) == 5 and [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
        sheader, srows = read_csv(summary)
        assert sheader == ["problem", "method", "pairs", "reps", "bias", "variance", "mse"]
        assert len(srows) == 1 and srows[0][3] == "5"

    def test_matches_library_path(self, tmp_path):
        out = tmp_path / "rows.csv"
        main([
            "estimate", "--problem", "sin1", "--method", "opt", "--pairs", "50",
            "--reps", "3", "--seed", "9", "--out", str(out),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        _, rows = read_csv(out)
        cfg = ExperimentConfig(
            problem="sin1", methods=("opt",), budgets=(50,), reps=3, seed=9,
            estimator=EstimatorConfig(),
        )
        detail, _, _ = run_replications(cfg)
        for row, expected in zip(rows, detail):
            assert float(row[1]) == expected[4]

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "estimate", "--problem", "sin1", "--method", "cor", "--pairs", "100",
            "--reps", "4", "--seed", "1", "--K", "5", "--I", "100",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a), "--summary-out", str(tmp_path / "sa.csv")])
        main(args + ["--out", str(b), "--summary-out", str(tmp_path / "sb.csv")])
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_is_an_error(self, tmp_path):
        code = main([
            "estimate", "--problem", "sin1", "--method", "boot", "--pairs", "100",
            "--reps", "2", "--r", "1.0",
            "--out", str(tmp_path / "x.csv"), "--summary-out", str(tmp_path / "y.csv"),
        ])
        assert code == 1

    def test_default_boot_names_the_pilot_settings(self, tmp_path, capsys):
        # The default r = 1 spends the budget on pilots, which boot discards:
        # a configuration error, reported before any cell runs.
        code = main([
            "estimate", "--problem", "poly@3", "--method", "boot", "--pairs", "5000",
            "--reps", "5", "--out", str(tmp_path / "x.csv"),
            "--summary-out", str(tmp_path / "y.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: boot discards its pilots, so it needs pilot_fraction (r) below 1 or "
            "pilot_size (n_b) set: at r = 1 the pilots leave fewer than K fresh pairs\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_estimation_error_is_a_cell_failure(self, tmp_path, capsys):
        # Waiting times at a lightly loaded queue are mostly zero, so some
        # pilot columns are constant and others are not.
        problem = "queue@1,100,2,service,wait"
        code = main([
            "estimate", "--problem", problem, "--method", "cor", "--pairs", "40",
            "--reps", "3", "--out", str(tmp_path / "x.csv"),
            "--summary-out", str(tmp_path / "y.csv"),
        ])
        assert code == 1
        assert f"error: {problem}/cor/40: EstimationError: a pilot column" in capsys.readouterr().err
        code = main([
            "bench", "--set", f"problem={problem}", "--set", "methods=cor,tra",
            "--set", "budgets=40", "--set", "reps=3", "--set", f"out={tmp_path / 's.csv'}",
        ])
        assert code == 2  # tra ran

    def test_degenerate_generator_is_config_error(self, tmp_path, capsys):
        # Coefficients confined to a sliver of [4, 6] tie on every redraw.
        code = main([
            "estimate", "--problem", "sin1", "--method", "cor", "--pairs", "1000",
            "--mu0", "5", "--sigma0", "1e-13", "--L", "4", "--U", "6",
            "--out", str(tmp_path / "x.csv"), "--summary-out", str(tmp_path / "y.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert ("error: sin1/cor/1000: DegenerateRegionError: "
                "perturbation generator is nearly degenerate") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["--problem", "sin1", "--kappa", "1e300", "--method", "cor"],
         "kappa is out of range: the square of its bias constant kappa/6 overflows, got 1e+300"),
        (["--problem", "sin2", "--kappa", "1e300", "--method", "opt"],
         "kappa is out of range: the square of its bias constant kappa/6 overflows, got 1e+300"),
        (["--problem", "poly@1e62", "--method", "cor"],
         "poly@1e62/cor/100: NonFiniteResponseError: oracle poly returned a non-finite "
         "response at theta=[1e+62]"),
        (["--problem", "poly@1e100", "--method", "cor"],
         "poly point must keep its ground truth within the float range, got 'poly@1e100'"),
        (["--problem", "sin1", "--method", "cor", "--gamma", "1e10"],
         "sin1/cor/100: EstimationError: pilot perturbations c * n_b**gamma overflow: "
         "n_b = 10, pilot_exponent (gamma) = 10000000000.0"),
    ], ids=["sin1_kappa", "sin2_kappa_opt", "poly_mean", "poly_truth", "gamma"])
    def test_overflow_is_a_typed_error(self, argv, message, tmp_path, capsys):
        code = main(["estimate", *argv, "--pairs", "100", "--out", str(tmp_path / "x.csv"),
                     "--summary-out", str(tmp_path / "y.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err


class TestDfoCommand:
    def test_trace_and_summary_line(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main([
            "dfo", "--problem", "zakharov@1", "--budget", "500", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["k", "t", "a_k", "T_k", "f_noisy", "f_true"]
        assert len(rows) >= 2
        line = capsys.readouterr().out.strip()
        assert line.startswith("SG=") and ",OG=" in line

    def test_tra_variant_runs(self, tmp_path, capsys):
        code = main([
            "dfo", "--problem", "rosenbrock", "--budget", "200", "--seed", "4",
            "--gradient-method", "tra", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 0
        assert "OG=" in capsys.readouterr().out

    def test_start_point(self, tmp_path, capsys):
        args = ["dfo", "--problem", "zakharov@2", "--budget", "200",
                "--out", str(tmp_path / "t.csv")]
        assert main(args + ["--start", "0.5,-0.5"]) == 0
        assert capsys.readouterr().out.startswith("SG=")
        assert main(args + ["--start", "1,2,3"]) == 1
        assert "error: --start has 3 coordinates, problem needs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,start,label", [
        ("zakharov@2", "1e100,1", "zakharov@2"), ("rosenbrock", "1e200,1", "rosenbrock@2"),
    ], ids=["zakharov", "rosenbrock"])
    def test_overflowing_start_is_a_typed_error(self, problem, start, label, tmp_path, capsys):
        code = main(["dfo", "--problem", problem, "--budget", "100", "--start", start,
                     "--out", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        point = float(start.split(",")[0])
        assert err.startswith(f"error: oracle {label} returned a non-finite response "
                              f"at theta=[{point}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_problem_without_minimizer_prints_final_point(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["dfo", "--problem", "queue@3,5,10,service", "--budget", "500",
                     "--out", str(out)])
        assert code == 0
        assert re.fullmatch(r"theta=\[[^,\]]+\],evals=\d+\n", capsys.readouterr().out)
        header, rows = read_csv(out)
        assert header == ["k", "t", "a_k", "T_k", "f_noisy", "f_true"] and len(rows) >= 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--sigma", "nan", "noise bound (sigma) must be finite and nonnegative, got nan"),
        ("--a0", "nan", "initial step (a0) must be finite and positive, got nan"),
        ("--sigma", "inf", "noise bound (sigma) must be finite and nonnegative, got inf"),
        ("--start", "nan,1", "--start coordinates must be finite, got 'nan,1'"),
    ], ids=["sigma", "a0", "sigma_inf", "start"])
    def test_non_finite_setting_rejected(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["dfo", "--problem", "zakharov@2", "--budget", "2000", flag, value,
                     "--out", str(out)])
        assert code == 1 and not out.exists()
        assert f"error: {message}" in capsys.readouterr().err


class TestBenchCommand:
    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# comment line\n"
            "problem = poly@0\n"
            "methods = cor,opt\n"
            "budgets = 100\n"
            "reps = 4\n"
            "K = 5\n"
        )
        out = tmp_path / "summary.csv"
        code = main([
            "bench", "--config", str(cfg),
            "--set", f"out={out}", "--set", "seed=5",
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["problem", "method", "pairs", "reps", "bias", "variance", "mse"]
        assert {r[1] for r in rows} == {"cor", "opt"}

    def test_detail_out(self, tmp_path):
        summary, detail = tmp_path / "summary.csv", tmp_path / "detail.csv"
        code = main([
            "bench", "--set", "problem=sin1", "--set", "methods=tra,cor",
            "--set", "budgets=100,200", "--set", "reps=3",
            "--set", f"out={summary}", "--set", f"detail_out={detail}",
        ])
        assert code == 0
        header, rows = read_csv(detail)
        assert header == DETAIL_HEADER and len(rows) == 2 * 2 * 3
        assert [r[3] for r in rows[:3]] == ["0", "1", "2"]
        assert len(read_csv(summary)[1]) == 4

    def test_malformed_config_line_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("reps = 2\nproblem poly@0\n")
        assert main(["bench", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}:2: expected key=value, got 'problem poly@0'" in err

    def test_set_without_equals_is_config_error(self, capsys):
        assert main(["bench", "--set", "reps"]) == 1
        assert "error: --set expects key=value, got 'reps'" in capsys.readouterr().err

    def test_partial_failure_exit_code(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = main([
            "bench", "--set", "problem=sin1", "--set", "methods=cor,boot",
            "--set", "budgets=100", "--set", "reps=3", "--set", "K=5",
            "--set", "I=100", "--set", "n_b=20",
            "--set", f"out={out}",
        ])
        assert code == 2  # boot infeasible with 5 x 20 pilot pairs, cor ran

    def test_bad_key_is_config_error(self, tmp_path):
        code = main(["bench", "--set", "bogus_key=1"])
        assert code == 1

    def test_bad_problem_is_config_error(self):
        assert main(["bench", "--set", "problem=sphere@3"]) == 1

    @pytest.mark.parametrize("key,value,message", [
        ("K", "1", "K must be >= 2, got 1"),
        ("r", "0", "pilot_fraction (r) must be in (0, 1], got 0.0"),
        ("n_b", "1", "pilot_size (n_b) must be >= 2, got 1"),
        ("I", "1", "bootstrap_reps (I) must be >= 2, got 1"),
        ("clamp_scale", "-1", "clamp_scale must be finite and positive, got -1.0"),
        ("clamp_scale", "inf", "clamp_scale must be finite and positive, got inf"),
        ("mu0", "nan", "mu0 must be finite, got nan"),
        ("mu0", "inf", "mu0 must be finite, got inf"),
        ("sigma0", "inf", "sigma0 must be finite and positive, got inf"),
        ("problem", "poly@nan", "poly point must be finite, got 'poly@nan'"),
        ("gamma", "nan", "pilot_exponent (gamma) must be finite, got nan"),
        ("L", "40", "truncation interval [40.0, inf] has acceptance probability 0.000e+00"),
        ("methods", "cor,opt,boot", "boot discards its pilots, so it needs pilot_fraction (r) "
         "below 1 or pilot_size (n_b) set"),
        ("kappa", "nan", "kappa must be finite and nonzero, got nan"),
        ("methods", "", "methods must name at least one method"),
        ("budgets", "", "budgets must be one or more values >= 1, got []"),
        ("budgets", "100,0", "budgets must be one or more values >= 1, got [100, 0]"),
        ("tra_h", "nan", "tra_perturbation (tra_h) must be finite and nonzero, got nan"),
        ("tra_h", "0", "tra_perturbation (tra_h) must be finite and nonzero, got 0.0"),
        ("truth", "nan", "truth_override (truth) must be finite, got nan"),
        ("tra_B", "0", "tra_bias_const (tra_B) must be finite and nonzero, got 0.0"),
        ("tra_sigma2", "nan", "tra_noise_var (tra_sigma2) must be finite and positive, got nan"),
    ], ids=["K", "r", "n_b", "I", "clamp_scale", "clamp_scale_inf", "mu0_nan", "mu0_inf",
            "sigma0_inf", "poly_nan", "gamma", "massless_L", "default_r_boot", "kappa",
            "methods", "budgets",
            "budget_zero", "tra_h_nan", "tra_h_zero", "truth", "tra_B", "tra_sigma2"])
    def test_bad_setting_rejected_before_any_cell(self, key, value, message, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        code = main([
            "bench", "--set", "problem=sin1", "--set", "reps=2", "--set", "budgets=100",
            "--set", f"out={out}", "--set", f"{key}={value}",
        ])
        assert code == 1 and not out.exists()
        assert f"error: {message}" in capsys.readouterr().err

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = readme.split("Keys:", 1)[1].split(".", 1)[0]
        assert set(re.findall(r"`(\w+)`", listed)) == set(_BENCH_DEFAULTS) | set(_ESTIMATE_KEYS)

    def test_cell_failure_names_the_error_type(self, tmp_path, capsys):
        # boot needs fresh pairs, which 10 pilots of 10 pairs leave none of.
        code = main([
            "bench", "--set", "problem=sin1", "--set", "methods=boot,cor", "--set", "budgets=100",
            "--set", "n_b=10", "--set", "reps=2", "--set", f"out={tmp_path / 's.csv'}",
        ])
        assert code == 2  # cor ran
        err = capsys.readouterr().err
        assert "error: sin1/boot/100: BudgetError: budget 100 leaves no fresh pairs" in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["dfo", "--problem", "sin1", "--budget", "10", "--gradient-method", "foo"],
        ["dfo", "--problem", "sin1", "--budget", "10", "--bogus"],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: corfd") and "error:" in err
        assert "Traceback" not in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dfo", "--help"])
        assert exc.value.code == 0
        assert "--budget" in capsys.readouterr().out


class TestSettings:
    FLAGS = [
        "--K", "6", "--r", "0.5", "--n-b", "40", "--I", "200", "--gamma", "-0.2",
        "--clamp-scale", "1e-3",
        "--mu0", "0.5", "--sigma0", "2", "--L", "0.2", "--U", "5",
    ]
    ESTIMATE = ["estimate", "--problem", "sin1", "--method", "cor", "--pairs", "100"]

    def test_estimate_flags_and_bench_keys_agree(self):
        ns = build_parser().parse_args(self.ESTIMATE + self.FLAGS)
        keys = {f[2:].replace("-", "_"): v for f, v in zip(self.FLAGS[::2], self.FLAGS[1::2])}
        estimator = _bench_config(keys)[0].estimator
        assert _estimator_config(vars(ns)) == estimator
        assert estimator.coeff_gen.upper == 5.0 and estimator.bootstrap_reps == 200

    def test_no_settings_give_dataclass_defaults(self):
        ns = build_parser().parse_args(self.ESTIMATE)
        assert _estimator_config(vars(ns)) == EstimatorConfig()
        cfg = _bench_config({})[0]
        assert cfg.estimator == EstimatorConfig()
        assert cfg == ExperimentConfig(cfg.problem, cfg.methods, cfg.budgets, cfg.reps)
        ns = build_parser().parse_args(["dfo", "--problem", "sin1", "--budget", "10"])
        assert DfoConfig(budget=10, **_kwargs(DfoConfig, vars(ns))) == DfoConfig(budget=10)

    def test_every_key_names_a_field(self):
        # ``_kwargs`` drops keys whose field does not exist, so a key left
        # behind by a deleted field would be accepted and silently ignored.
        def names(*classes):
            return {f.name for cls in classes for f in fields(cls)}

        estimate = names(EstimatorConfig, ExperimentConfig, PerturbationGenerator)
        dfo = names(DfoConfig, PerturbationGenerator)
        assert {key: _KEYS[key][0] for key in _ESTIMATE_KEYS if _KEYS[key][0] not in estimate} == {}
        assert {key: _KEYS[key][0] for key in _DFO_KEYS if _KEYS[key][0] not in dfo} == {}

    def test_bad_thread_count_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CORFD_THREADS", "two")
        assert main(["bench", "--set", "reps=2", "--set", f"out={tmp_path / 's.csv'}"]) == 1
        assert "CORFD_THREADS" in capsys.readouterr().err


class TestDiagCommand:
    def test_values_match_library(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = main([
            "diag", "--c", "1,1.5,2,2.5,3,3.5,4,4.5,5,5.5",
            "--fifth-const", "0.1", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        values = {r[0]: float(r[1]) for r in rows}
        d = projection_diagnostics(np.arange(1.0, 5.6, 0.5))
        assert values["bias_shift"] == d.bias_shift
        assert values["variance_factor"] == d.variance_factor
        assert values["projector_idempotency_gap"] <= 1e-10

    def test_bad_vector_is_error(self):
        assert main(["diag", "--c", "1.0"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["--c", "1,inf,2"], "coefficients must be finite and nonzero, got inf"),
        (["--c", "1,nan,2"], "coefficients must be finite and nonzero, got nan"),
        (["--c", "1,2,3", "--fifth-const", "nan"], "fifth_const must be finite, got nan"),
        (["--c", "1,2,3", "--noise-slope", "nan"], "noise_slope must be finite, got nan"),
    ], ids=["c_inf", "c_nan", "fifth_const_nan", "noise_slope_nan"])
    def test_bad_value_is_named(self, argv, message, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        assert main(["diag", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
