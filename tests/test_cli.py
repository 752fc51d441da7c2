import argparse
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import corfd
from corfd import bench
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

    def test_opt_without_known_constants_is_config_error(self, tmp_path, capsys):
        # A queue's bias constant and noise variance are unknown: opt is
        # refused before any replication runs.
        code = main([
            "estimate", "--problem", "queue@3,5,50,service", "--method", "opt", "--pairs", "100",
            "--out", str(tmp_path / "x.csv"), "--summary-out", str(tmp_path / "y.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: opt needs the true bias constant and noise variance, which problem "
            "queue@3,5,50,service does not know\n"
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

    @pytest.mark.parametrize("args, message", [
        # The bias constant's square underflows to zero.
        (["--method", "opt", "--kappa", "1e-200"], "square overflows or underflows"),
        # A denormal square, or a huge noise variance, gives an infinite perturbation.
        (["--method", "opt", "--kappa", "1e-160"], "perturbation inf, which is not finite"),
        (["--method", "tra", "--tra-sigma2", "1e300", "--tra-B", "1e-10"],
         "perturbation inf, which is not finite"),
        # The quotients overflow; 2 * 1e308 overflows the divisor.
        *((["--method", "tra", "--h", h],
           f"perturbation h = {h} along coordinate 0 gives non-finite difference quotients")
          for h in ("1e-310", "1e+308")),
    ])
    def test_perturbation_out_of_range_is_one_error_line(self, tmp_path, capsys, args, message):
        code = main([
            "estimate", "--problem", "sin1", "--pairs", "100", *args,
            "--out", str(tmp_path / "x.csv"), "--summary-out", str(tmp_path / "y.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: sin1/")
        assert "EstimationError" in err and message in err

    def test_degenerate_generator_is_config_error(self, tmp_path, capsys):
        # Coefficients confined to a sliver of [4, 6] would tie: the generator
        # fails when it is built, before any cell runs.
        code = main([
            "estimate", "--problem", "sin1", "--method", "cor", "--pairs", "1000",
            "--mu0", "5", "--sigma0", "1e-13", "--L", "4", "--U", "6",
            "--out", str(tmp_path / "x.csv"), "--summary-out", str(tmp_path / "y.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: perturbation generator mu0 = 5.0, sigma0 = 1e-13, L = 4.0, U = 6.0 has "
            "too little spread: the squares of its quartiles differ by 5.4e-14 relative, "
            "at most 1e-06"
        ]
        assert not (tmp_path / "x.csv").exists()

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
        # Pilots near 1e120 and 1e155 overflow the bias fit's products; near
        # 1e200 a pilot column's variance underflows to zero.
        *((["--problem", "sin1", "--method", "cor", "--mu0", f"1e{e}", "--sigma0", f"1e{e - 1}"],
           f"sin1/cor/100: EstimationError: constant fits fail at pilot perturbations up to "
           f"9.2822e+{e - 1} (n_b = 10, pilot_exponent (gamma) = -0.1): {cause}")
          for e, cause in ((120, "overflow"), (155, "overflow"),
                           (200, "a pilot column of distinct samples has zero variance"))),
        # Two resamples of two samples tie, so a column's variance is zero.
        (["--problem", "sin1", "--method", "cor", "--n-b", "2", "--I", "2"],
         "sin1/cor/100: EstimationError: constant fits fail at pilot perturbations up to "
         "1.83556 (n_b = 2, pilot_exponent (gamma) = -0.1): a pilot column of distinct "
         "samples has zero variance"),
    ], ids=["sin1_kappa", "sin2_kappa_opt", "poly_mean", "poly_truth", "gamma",
            "mu0_1e120", "mu0_1e155", "mu0_1e200", "I_tie"])
    def test_overflow_is_a_typed_error(self, argv, message, tmp_path, capsys):
        code = main(["estimate", *argv, "--pairs", "100", "--out", str(tmp_path / "x.csv"),
                     "--summary-out", str(tmp_path / "y.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_small_correctly_scaled_pilots_estimate(self, tmp_path):
        # Pilots near 1e-6 on a derivative of 1e18: the bias design's
        # collinearity test does not depend on the pilots' size.
        summary = tmp_path / "y.csv"
        code = main(["estimate", "--problem", "sin1", "--kappa", "1e18", "--mu0", "1e-6",
                     "--sigma0", "1e-7", "--L", "1e-8", "--method", "cor", "--pairs", "1000",
                     "--reps", "20", "--out", str(tmp_path / "x.csv"),
                     "--summary-out", str(summary)])
        assert code == 0
        header, rows = read_csv(summary)
        assert np.sqrt(float(rows[0][header.index("mse")])) < 1e-12 * 1e18

    def test_out_of_memory_is_a_cell_failure(self, tmp_path, monkeypatch, capsys):
        # A budget whose arrays cannot be allocated fails its cell.  numpy
        # raises a subclass of MemoryError, reported under the builtin name.
        class ArrayMemoryError(MemoryError):
            pass

        def cor_cfd(*args):
            raise ArrayMemoryError("Unable to allocate 1.46 TiB for an array")

        monkeypatch.setattr(bench, "cor_cfd", cor_cfd)
        code = main(["estimate", "--problem", "poly@0", "--method", "cor", "--pairs", "100",
                     "--out", str(tmp_path / "x.csv"), "--summary-out", str(tmp_path / "y.csv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: poly@0/cor/100: MemoryError: Unable to allocate 1.46 TiB for an array"
        ]
        code = main(["bench", "--set", "problem=poly@0", "--set", "methods=cor,tra",
                     "--set", "budgets=100", "--set", "reps=2",
                     "--set", f"out={tmp_path / 's.csv'}"])
        assert code == 2  # tra ran

    @pytest.mark.parametrize("argv", [
        ["dfo", "--problem", "zakharov@1000000000000000", "--budget", "1"],
        ["estimate", "--problem", "zakharov@1000000000000000", "--method", "cor", "--pairs", "10"],
        ["bench", "--set", "problem=zakharov@1000000000000000"],
    ], ids=["dfo", "estimate", "bench"])
    def test_problem_too_large_to_build_is_one_error_line(self, argv, tmp_path, monkeypatch,
                                                          capsys):
        # Zakharov at d = 10^15 needs a 7.11 PiB start point, whose allocation
        # fails at once, before any estimate runs.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: MemoryError: Unable to allocate")
        assert os.listdir(tmp_path) == []

    def test_out_of_range_mse_is_inf_without_a_warning(self, tmp_path):
        # The estimates at poly@1e40 are finite, their squared error is not.
        summary = tmp_path / "y.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "corfd.cli", "estimate", "--problem", "poly@1e40",
             "--method", "cor", "--pairs", "100", "--out", str(tmp_path / "x.csv"),
             "--summary-out", str(summary)],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(corfd.__file__))},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        _, rows = read_csv(summary)
        assert rows[0][-1] == "inf"


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
        # Squaring 1e200 overflows in numpy, which must not warn.
        ("zakharov@2", "1e200,1", "zakharov@2"),
    ], ids=["zakharov", "rosenbrock", "zakharov-far"])
    def test_overflowing_start_is_a_typed_error(self, problem, start, label, tmp_path, capsys):
        code = main(["dfo", "--problem", problem, "--budget", "100", "--start", start,
                     "--out", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        point = float(start.split(",")[0])
        assert err.startswith(f"error: oracle {label} returned a non-finite response "
                              f"at theta=[{point}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_trial_outside_the_domain_is_rejected(self, tmp_path, capsys):
        # The first trial steps of 1e3 give negative service rates.
        code = main(["dfo", "--problem", "queue@3,5,10,service", "--budget", "2000",
                     "--a0", "1e3", "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert re.fullmatch(r"theta=\[[^,\]]+\],evals=\d+\n", capsys.readouterr().out)

    def test_line_search_that_gives_up_stays_at_its_point(self, tmp_path, capsys):
        # Every trial from 1e100 down overflows Zakharov's quartic term, so
        # each search gives up with step 0 and the run stays at the start.
        out = tmp_path / "t.csv"
        code = main(["dfo", "--problem", "zakharov@10", "--budget", "20000", "--a0", "1e100",
                     "--out", str(out)])
        assert code == 0
        # The distance from ones(10) to the minimizer at zero is sqrt(10).
        assert capsys.readouterr().out.startswith("SG=3.1622776601683795,")
        _, rows = read_csv(out)
        assert len(rows) >= 2 and all(row[2] == "0" for row in rows[1:])

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
        ("reps", "abc", "reps: 'abc' is not an integer"),
        ("budgets", "1e3", "budgets: '1e3' is not an integer"),
        ("K", "2.5", "K: '2.5' is not an integer"),
        ("seed", "x", "seed: 'x' is not an integer"),
    ], ids=["K", "r", "n_b", "I", "clamp_scale", "clamp_scale_inf", "mu0_nan", "mu0_inf",
            "sigma0_inf", "poly_nan", "gamma", "massless_L", "default_r_boot", "kappa",
            "methods", "budgets",
            "budget_zero", "tra_h_nan", "tra_h_zero", "truth", "tra_B", "tra_sigma2",
            "reps_text", "budgets_float", "K_float", "seed_text"])
    def test_bad_setting_rejected_before_any_cell(self, key, value, message, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        code = main([
            "bench", "--set", "problem=sin1", "--set", "reps=2", "--set", "budgets=100",
            "--set", f"out={out}", "--set", f"{key}={value}",
        ])
        assert code == 1 and not out.exists()
        assert f"error: {message}" in capsys.readouterr().err

    def test_opt_without_known_constants_is_one_config_error(self, tmp_path, capsys):
        # One line for the whole grid, not one failed cell per budget.
        out = tmp_path / "summary.csv"
        assert main(["bench", "--set", "problem=zakharov@2", "--set", f"out={out}"]) == 1
        assert capsys.readouterr().err == (
            "error: opt needs the true bias constant and noise variance, which problem "
            "zakharov@2 does not know\n"
        )
        assert not out.exists()

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = readme.split("Keys:", 1)[1].split(".", 1)[0]
        assert set(re.findall(r"`(\w+)`", listed)) == set(_BENCH_DEFAULTS) | set(_ESTIMATE_KEYS)

    def test_perturbation_out_of_range_fails_only_its_cell(self, tmp_path, capsys):
        # tra's assumed bias constant squares to zero; the cor cell still runs.
        code = main([
            "bench", "--set", "problem=sin1", "--set", "methods=tra,cor", "--set", "budgets=100",
            "--set", "reps=2", "--set", "tra_B=1e-200", "--set", f"out={tmp_path / 's.csv'}",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sin1/tra/100: EstimationError: bias constant 1e-200 is out of range: "
            "its square overflows or underflows\n"
        )
        header, rows = read_csv(tmp_path / "s.csv")
        assert [row[header.index("method")] for row in rows] == ["cor"]

    def test_non_finite_quotient_fails_only_its_cell(self, tmp_path, capsys):
        code = main([
            "bench", "--set", "problem=sin1", "--set", "methods=tra,cor", "--set", "budgets=100",
            "--set", "reps=2", "--set", "tra_h=1e-310", "--set", f"out={tmp_path / 's.csv'}",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sin1/tra/100: EstimationError: perturbation h = 1e-310 along coordinate 0 "
            "gives non-finite difference quotients\n"
        )
        header, rows = read_csv(tmp_path / "s.csv")
        assert [row[header.index("method")] for row in rows] == ["cor"]

    def test_cell_failure_names_the_error_type(self, tmp_path, capsys):
        # boot needs fresh pairs, which 10 pilots of 10 pairs leave none of.
        code = main([
            "bench", "--set", "problem=sin1", "--set", "methods=boot,cor", "--set", "budgets=100",
            "--set", "n_b=10", "--set", "reps=2", "--set", f"out={tmp_path / 's.csv'}",
        ])
        assert code == 2  # cor ran
        err = capsys.readouterr().err
        assert "error: sin1/boot/100: BudgetError: budget 100 leaves no fresh pairs" in err


def readme_commands() -> dict[str, list[str]]:
    """The ``corfd`` lines of the README's CLI block, continuations joined,
    as argument lists keyed by subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [x for x in block.replace("\\\n", " ").splitlines() if x.startswith("corfd ")]
    return {line.split()[1]: line.split()[1:] for line in lines}


class TestReadmeCommands:
    def test_block_holds_every_subcommand(self):
        assert sorted(readme_commands()) == ["bench", "dfo", "diag", "estimate"]

    @pytest.mark.parametrize("command", ["estimate", "bench", "dfo", "diag"])
    def test_command_runs(self, command, tmp_path, monkeypatch):
        argv = readme_commands()[command]
        if command == "bench":
            config = argv.index("--config") + 1
            argv[config] = str(Path(__file__).parents[1] / argv[config])
            argv += ["--set", "reps=2"]
        named = {value for flag, value in zip(argv, argv[1:]) if flag in ("--out", "--summary-out")}
        named |= {value.split("=", 1)[1] for flag, value in zip(argv, argv[1:])
                  if flag == "--set" and value.split("=", 1)[0] in ("out", "detail_out")}
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert {p.name for p in tmp_path.iterdir()} == named
        if command == "bench":
            # A header and one row per cell: {cor, opt} x three budgets.
            assert len((tmp_path / "table.csv").read_text().splitlines()) == 7


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

    @pytest.mark.parametrize("argv,message", [
        (["dfo", "--problem", "rosenbrock", "--budget", "1000", "--start", "1,,2"],
         "--start: '' is not a number"),
        (["diag", "--c", "1,x"], "--c: 'x' is not a number"),
    ], ids=["start", "c"])
    def test_unreadable_number_names_its_flag(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_calls_in_one_process_are_independent(self, tmp_path, capsys):
        # The parser is built once and shared: a call leaves nothing behind
        # for the next one.
        assert build_parser() is build_parser()
        estimate = ["estimate", "--problem", "poly@3", "--method", "cor", "--pairs", "1000",
                    "--reps", "3", "--summary-out", str(tmp_path / "s.csv")]
        assert main([*estimate, "--out", str(tmp_path / "first.csv")]) == 0
        assert main(["bench", "--set", "K=6", "--set", "reps=2", "--set", "budgets=100",
                     "--set", f"out={tmp_path / 'bench.csv'}"]) == 0
        assert main([*estimate, "--out", str(tmp_path / "second.csv")]) == 0
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--problem", "poly@3"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: corfd estimate") and "required" in err
        assert build_parser().parse_args(["bench"]).set is None

    @pytest.mark.parametrize("argv,seed", [
        (["estimate", "--problem", "sin1", "--method", "cor", "--pairs", "100", "--seed", "-1"],
         -1),
        (["dfo", "--problem", "sin1", "--budget", "1000", "--seed", "-1"], -1),
        (["bench", "--set", "seed=-5", "--set", "reps=2"], -5),
    ], ids=["estimate", "dfo", "bench"])
    def test_negative_seed_names_the_setting(self, argv, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: seed must be a non-negative integer, got {seed}\n"
        assert os.listdir(tmp_path) == []

    def test_overflowing_generator_is_one_error_line(self, tmp_path):
        # Coefficients mu0 + sigma0 * z overflow: refused when the generator
        # is built, without numpy's RuntimeWarnings.
        proc = subprocess.run(
            [sys.executable, "-m", "corfd.cli", "estimate", "--problem", "sin1", "--method", "cor",
             "--pairs", "1000", "--mu0", "1e308", "--sigma0", "1e308"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(corfd.__file__))},
        )
        assert proc.returncode == 1 and "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: perturbation generator mu0 = 1e+308, sigma0 = 1e+308 overflows: mu0 + "
            "sigma0 * z leaves the float range for a standard normal |z| <= 38.5"
        ]
        assert os.listdir(tmp_path) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dfo", "--help"])
        assert exc.value.code == 0
        assert "--budget" in capsys.readouterr().out


    def test_every_option_has_help_text(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        missing = [
            f"{name} {action.option_strings[0]}"
            for name, command in sub.choices.items()
            for action in command._actions
            if not isinstance(action, argparse._HelpAction) and not action.help
        ]
        assert sorted(sub.choices) == ["bench", "dfo", "diag", "estimate"]
        assert missing == []


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
        # Well spread, but the squares or the moment sums leave the float range.
        (["--c", "1e200,2e200"], "--c '1e200,2e200' leaves the float range of the "
         "diagnostics: overflow encountered in multiply"),
        (["--c", "1e-60,2e-60,3e-60"], "--c '1e-60,2e-60,3e-60' leaves the float range of "
         "the diagnostics: overflow encountered in power"),
        (["--c", "1e40,2e40,3e40"], "--c '1e40,2e40,3e40' leaves the float range of the "
         "diagnostics: overflow in a power of a moment sum"),
    ], ids=["c_inf", "c_nan", "fifth_const_nan", "noise_slope_nan", "c_huge", "c_tiny",
            "c_moment_power"])
    def test_bad_value_is_named(self, argv, message, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        assert main(["diag", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestSimdLevels:
    """numpy's AVX-512 ``log`` and ``exp`` round some values differently from
    its AVX2 ones, so the queue's draws and ``sin2``'s noise scale move in
    the last bits with the dispatch level; ``poly`` takes neither."""

    AVX2_ONLY = "AVX512_SPR AVX512_ICL X86_V4"

    @staticmethod
    def run(argv, work, disabled):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(corfd.__file__))}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        work.mkdir()
        proc = subprocess.run([sys.executable, "-m", "corfd.cli", *argv, "--out", "out.csv"],
                              cwd=work, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, (work / "out.csv").read_text()

    @pytest.mark.parametrize("argv,exact", [
        (["estimate", "--problem", "queue@3,5,50,service", "--method", "cor", "--pairs", "1000",
          "--reps", "3", "--seed", "5", "--I", "100", "--L", "0.5", "--U", "0.7"], False),
        (["dfo", "--problem", "sin2", "--budget", "20000", "--seed", "1"], False),
        (["estimate", "--problem", "poly@3", "--method", "cor", "--pairs", "10000", "--reps", "5",
          "--seed", "3"], True),
    ], ids=["queue", "sin2", "poly"])
    def test_avx2_level_agrees_with_the_default(self, argv, exact, tmp_path):
        default = self.run(argv, tmp_path / "default", "")
        avx2 = self.run(argv, tmp_path / "avx2", self.AVX2_ONLY)
        if exact:
            assert avx2 == default
            return
        for text, other in zip(default, avx2):
            fields, others = re.split(r"[,=\[\]\n]", text), re.split(r"[,=\[\]\n]", other)
            assert len(fields) == len(others)
            for x, y in zip(fields, others):
                if x != y:
                    assert abs(float(x) - float(y)) <= 1e-12 * abs(float(x)), (x, y)
