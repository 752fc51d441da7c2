import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corfd import bench, cli
from corfd.bench import (
    DETAIL_HEADER,
    SUMMARY_HEADER,
    ExperimentConfig,
    emit_csv,
    run_replications,
    summarize,
)
from corfd.estimators import EstimationError, EstimatorConfig, cor_cfd
from corfd.oracle import parse_problem
from corfd.sampling import spawn, stream


class TestSummarize:
    def test_constant_estimates(self):
        s = summarize([1.0, 1.0, 1.0], 1.0)
        assert (s.bias, s.variance, s.mse) == (0.0, 0.0, 0.0)

    def test_symmetric_pair(self):
        s = summarize([0.0, 2.0], 1.0)
        assert (s.bias, s.variance, s.mse) == (0.0, 1.0, 1.0)

    def test_hand_arithmetic(self):
        s = summarize([0.0, 1.0, 2.0], 0.0)
        assert s.bias == pytest.approx(1.0, abs=1e-15)
        assert s.variance == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert s.mse == pytest.approx(5.0 / 3.0, abs=1e-15)
        assert s.mse == pytest.approx(s.bias**2 + s.variance, rel=1e-12)

    def test_single_replication_has_zero_variance(self):
        s = summarize([3.7], 1.0)
        assert s.variance == 0.0 and s.mse == pytest.approx(s.bias**2, rel=1e-12)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40), st.floats(-1e3, 1e3))
    def test_decomposition_identity(self, values, truth):
        s = summarize(values, truth)
        assert s.mse == pytest.approx(s.bias**2 + s.variance, rel=1e-9, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], 0.0)

    def test_out_of_range_statistics_are_inf(self):
        # Squared errors of 1e200 overflow; no RuntimeWarning is raised.
        s = summarize([1e200, -1e200], 0.0)
        assert s.bias == 0.0
        assert s.variance == float("inf") and s.mse == float("inf")


class TestEmitCsv:
    def test_header_contract_and_roundtrip(self, tmp_path):
        path = tmp_path / "s.csv"
        emit_csv([["poly@0", "cor", 100, 3, -0.25, 0.125, 0.1875]], SUMMARY_HEADER, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "problem,method,pairs,reps,bias,variance,mse"
        fields = lines[1].split(",")
        assert float(fields[4]) == -0.25 and float(fields[6]) == 0.1875

    def test_seventeen_digit_roundtrip(self, tmp_path):
        value = 0.1 + 0.2  # not representable exactly
        path = tmp_path / "v.csv"
        emit_csv([[value]], ["v"], path)
        back = float(path.read_text().splitlines()[1])
        assert back == value

    def test_empty_rows_is_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        emit_csv([], ["a", "b"], path)
        assert path.read_text() == "a,b\n"

    def test_quoting(self, tmp_path):
        path = tmp_path / "q.csv"
        emit_csv([['with,comma', 'with"quote']], ["x", "y"], path)
        assert path.read_text() == 'x,y\n"with,comma","with""quote"\n'

    def test_each_field_type_keeps_its_bytes(self, tmp_path):
        # Floats of any numpy width in 17 digits, ints and bools as str
        # writes them, and only text is ever quoted.
        row = [True, np.bool_(False), 7, np.int64(-3), 2**70, 0.1, np.float32(0.1),
               float("inf"), float("-inf"), float("nan"), 1e-300, -0.0, "a\r\nb", "plain", None]
        path = tmp_path / "t.csv"
        emit_csv([row], [f"c{i}" for i in range(len(row))], path)
        assert path.read_bytes().split(b"\n", 1)[1] == (
            b"True,False,7,-3,1180591620717411303424,0.10000000000000001,0.10000000149011612,"
            b'inf,-inf,nan,1e-300,-0,"a\r\nb",plain,None\n'
        )

    def test_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([[1, 2, 3]], ["a", "b"], tmp_path / "w.csv")


def small_config(**overrides):
    base = dict(
        problem="poly@0",
        methods=("cor", "opt"),
        budgets=(100,),
        reps=8,
        seed=11,
        # A Monte Carlo bootstrap, so that the rerun and schedule tests also cover
        # the bootstrap stream.
        estimator=EstimatorConfig(K=5, pilot_fraction=1.0, bootstrap_reps=100),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Pilots of 5 x 20 pairs spend a budget of 100 pairs, which leaves boot none.
ALL_PILOTS = EstimatorConfig(K=5, pilot_size=20, bootstrap_reps=100)


def count_forks(monkeypatch):
    """Wrap ``os.fork``; the returned list gains one entry per child forked."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


class Log:
    """A file that this process and its forked children append lines to."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def add(self, *fields):
        with open(self.path, "a") as fh:
            fh.write(" ".join(map(str, fields)) + "\n")

    def lines(self):
        return [line.split() for line in self.path.read_text().splitlines()]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunReplications:
    def test_detail_and_summary_shapes(self):
        detail, summary, failures = run_replications(small_config())
        assert not failures
        assert len(detail) == 16  # 2 cells x 8 reps
        assert len(summary) == 2
        for row in summary:
            assert row[3] == 8
            bias, var, mse = row[4], row[5], row[6]
            assert mse == pytest.approx(bias**2 + var, rel=1e-12)

    def test_rerun_is_identical(self, tmp_path):
        a = run_replications(small_config())
        b = run_replications(small_config())
        assert a[0] == b[0] and a[1] == b[1]
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(a[0], DETAIL_HEADER, pa)
        emit_csv(b[0], DETAIL_HEADER, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_parallel_schedule_matches_serial(self, monkeypatch):
        # An infeasible cell (boot with every pair a pilot) sits between two
        # feasible ones, so the grid's one child keeps running cells after a
        # failed cell.
        cfg = small_config(methods=("cor", "boot", "opt"), estimator=ALL_PILOTS)
        serial = run_replications(cfg)
        forks = count_forks(monkeypatch)
        monkeypatch.setenv("CORFD_THREADS", "2")
        parallel = run_replications(cfg)
        assert len(forks) == 1
        assert len(serial[2]) == 1 and parallel[2] == serial[2]
        assert serial[0] == parallel[0]
        assert serial[1] == parallel[1]

    def test_pool_forks_no_idle_workers(self, monkeypatch):
        forks = count_forks(monkeypatch)
        monkeypatch.setenv("CORFD_THREADS", "4")
        # Two batches of one replication need this process and one child;
        # one batch runs without a fork.
        run_replications(small_config(methods=("cor",), reps=2))
        assert len(forks) == 1
        run_replications(small_config(methods=("cor",), reps=1))
        assert len(forks) == 1

    def test_first_share_runs_in_the_calling_process(self, tmp_path, monkeypatch):
        # Three workers deal six batches into three shares: share 0 runs
        # here, shares 1 and 2 each in a child of its own.
        log, run_share = Log(tmp_path / "shares"), bench._run_share

        def spy(cfg, problem, jobs):
            log.add(os.getpid(), bytes(jobs[0][3].pools[0]).hex())
            return run_share(cfg, problem, jobs)

        monkeypatch.setattr(bench, "_run_share", spy)
        monkeypatch.setenv("CORFD_THREADS", "3")
        cfg = small_config(methods=("cor", "opt"), reps=3)
        detail, _, failures = run_replications(cfg)
        assert not failures and len(detail) == 6
        level = spawn(stream(cfg.seed), 2)[0].spawn(cfg.reps)
        pids = {first: int(pid) for pid, first in log.lines()}
        assert len(log.lines()) == 3
        assert pids.keys() == {bytes(level.pools[rep]).hex() for rep in range(3)}
        assert pids[bytes(level.pools[0]).hex()] == os.getpid()
        assert len(set(pids.values())) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_caller_parses_the_problem_once(self, workers, tmp_path, monkeypatch):
        # Six cells of one batch each: the caller parses the grid's problem
        # once, and a forked share runs on the caller's problem without
        # parsing it again.
        log, parse = Log(tmp_path / "parses"), bench.parse_problem

        def spy(*args):
            log.add(os.getpid())
            return parse(*args)

        monkeypatch.setattr(bench, "parse_problem", spy)
        forks = count_forks(monkeypatch)
        monkeypatch.setenv("CORFD_THREADS", str(workers))
        cfg = small_config(methods=("tra", "opt", "cor"), budgets=(100, 1000))
        detail, summary, failures = run_replications(cfg)
        assert not failures and len(detail) == 6 * 8 and len(summary) == 6
        assert len(forks) == workers - 1
        assert log.lines() == [[str(os.getpid())]]

    @pytest.mark.parametrize("in_caller", [True, False], ids=["caller", "pool"])
    def test_other_errors_propagate_after_the_pool_shuts_down(self, in_caller, monkeypatch):
        here, cor = os.getpid(), bench.cor_cfd

        def broken(*args):
            if (os.getpid() == here) == in_caller:
                raise RuntimeError("estimator broke")
            return cor(*args)

        monkeypatch.setattr(bench, "cor_cfd", broken)
        monkeypatch.setenv("CORFD_THREADS", "2")
        with pytest.raises(RuntimeError, match="estimator broke"):
            run_replications(small_config(methods=("cor",), reps=2))
        assert_no_child_left()

    @pytest.mark.parametrize("methods", [("cor", "opt"), ("boot", "cor")],
                             ids=["grid", "failing-cell"])
    def test_no_child_outlives_the_grid(self, methods, monkeypatch):
        # boot on ALL_PILOTS fails its cell in both shares.
        monkeypatch.setenv("CORFD_THREADS", "2")
        _, _, failures = run_replications(small_config(methods=methods, estimator=ALL_PILOTS))
        assert len(failures) == methods.count("boot")
        assert_no_child_left()

    def test_without_fork_the_grid_runs_as_one_share(self, monkeypatch):
        cfg = small_config(methods=("cor", "boot", "opt"), estimator=ALL_PILOTS)
        serial = run_replications(cfg)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setenv("CORFD_THREADS", "3")
        assert run_replications(cfg) == serial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the grid runs as one share")
    def test_dead_worker_is_a_one_line_error(self, tmp_path, monkeypatch, capsys):
        # Two threads deal each cell's two replications into two shares, so
        # the worker's share holds a batch of both cells.
        here, run_batch = os.getpid(), bench._run_batch

        def dying(*args):
            if os.getpid() != here:
                os._exit(7)
            return run_batch(*args)

        monkeypatch.setattr(bench, "_run_batch", dying)
        monkeypatch.setenv("CORFD_THREADS", "2")
        with pytest.raises(ChildProcessError, match="ended abruptly"):
            run_replications(small_config(reps=2))
        assert_no_child_left()
        monkeypatch.chdir(tmp_path)
        code = cli.main(["bench", "--set", "problem=poly@0", "--set", "methods=cor,opt",
                         "--set", "budgets=100", "--set", "reps=2"])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.splitlines() == [
            "error: a bench worker process ended abruptly running cells "
            "poly@0/cor/100, poly@0/opt/100"
        ]
        assert_no_child_left()

    @pytest.mark.parametrize("raw", ["two", "0", "-1"])
    def test_bad_thread_count_rejected(self, raw, monkeypatch):
        monkeypatch.setenv("CORFD_THREADS", raw)
        with pytest.raises(ValueError, match=f"CORFD_THREADS.*{raw}"):
            run_replications(small_config())

    def test_infeasible_cell_reported_others_run(self):
        cfg = small_config(methods=("boot", "cor"), estimator=ALL_PILOTS)  # boot needs fresh pairs
        detail, summary, failures = run_replications(cfg)
        assert len(failures) == 1 and "boot" in failures[0][0]
        assert failures[0][1] == "BudgetError"
        assert {row[1] for row in detail} == {"cor"}

    def test_pair_accounting_matches_budget(self):
        cfg = small_config(methods=("tra", "opt", "cor"), budgets=(100,))
        detail, _, failures = run_replications(cfg)
        assert not failures
        assert all(row[5] == 100 for row in detail)

    def test_truth_override_controls_summary(self):
        cfg = small_config(methods=("cor",), truth_override=0.0)
        _, summary, _ = run_replications(cfg)
        (row,) = summary
        # bias against 0 is the raw mean
        assert row[4] == pytest.approx(row[4])
        cfg2 = small_config(problem="queue@4,4,10,service", methods=("cor",), budgets=(100,))
        _, summary2, _ = run_replications(cfg2)
        assert summary2 == []  # no truth known, detail only

    def test_estimator_calls_keep_to_the_pair_cap(self, tmp_path, monkeypatch):
        log, forks = Log(tmp_path / "calls"), count_forks(monkeypatch)

        def spy(fn):
            def call(oracle, theta0, coord, n, *args):
                log.add(fn.__name__, len(coord), n)
                return fn(oracle, theta0, coord, n, *args)
            return call

        for name in ("tra_cfd", "opt_cfd", "boot_cfd", "cor_cfd"):
            monkeypatch.setattr(bench, name, spy(getattr(bench, name)))
        cap = bench._BATCH_PAIRS
        budgets = (100, cap // 2 - 1, cap + 1)
        cfg = small_config(methods=bench.METHODS, budgets=budgets, reps=5,
                           estimator=EstimatorConfig(K=5, pilot_fraction=0.5))
        # Five replications on one worker: one batch at 100 pairs, batches of
        # 2, 2 and 1 below half the cap, and batches of one above it.  On
        # three, a batch also holds at most ceil(5 / 3) = 2 replications.
        cor_rows = {1: {100: [5], cap // 2 - 1: [2, 2, 1], cap + 1: [1] * 5},
                    3: {100: [2, 2, 1], cap // 2 - 1: [2, 2, 1], cap + 1: [1] * 5}}
        for workers, expected in cor_rows.items():
            log.path.write_text("")
            monkeypatch.setenv("CORFD_THREADS", str(workers))
            detail, _, failures = run_replications(cfg)
            calls = [(name, int(rows), int(n)) for name, rows, n in log.lines()]
            assert not failures and len(detail) == 4 * 3 * 5
            assert {name for name, _, _ in calls} == {"tra_cfd", "opt_cfd", "boot_cfd", "cor_cfd"}
            assert all(rows * n <= cap or rows == 1 for _, rows, n in calls)
            # Shares interleave the cells, so compare each cell's batch sizes.
            per_cell = {n: sorted(rows for name, rows, m in calls if name == "cor_cfd" and m == n)
                        for n in budgets}
            assert per_cell == {n: sorted(sizes) for n, sizes in expected.items()}
        assert max(rows for _, rows, _ in calls) == 2
        # Only the three-worker run forks: one child for each share but the
        # first, which this process runs itself.
        assert len(forks) == 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("failing", [{2}, {2, 4}], ids=["second", "second-third"])
    def test_failing_batch_fails_only_its_cell(self, failing, workers, monkeypatch):
        # A 100-pair cell's 5 replications run in batches of 2, 2 and 1 at
        # any of these worker counts.  The estimator fails in the batches of
        # cell 2 (opt/100) that start at the replications in ``failing``;
        # the cell reports its earliest failing batch, and the other cells
        # are as without the failure.
        monkeypatch.setattr(bench, "_BATCH_PAIRS", 200)
        cfg = small_config(methods=("cor", "opt", "tra"), budgets=(100, 200), reps=5)
        reference = run_replications(cfg)
        level = spawn(stream(cfg.seed), 6)[2].spawn(cfg.reps)
        starts = {pool.tobytes(): i for i, pool in enumerate(level.pools)}
        opt_cfd, called = bench.opt_cfd, []

        def failing_opt(oracle, theta0, coords, n, truth, rngs):
            start = starts.get(rngs.pools[0].tobytes())
            if n == 100:
                called.append(start)
                if start in failing:
                    raise EstimationError(f"batch from replication {start}")
            return opt_cfd(oracle, theta0, coords, n, truth, rngs)

        monkeypatch.setattr(bench, "opt_cfd", failing_opt)
        monkeypatch.setenv("CORFD_THREADS", str(workers))
        detail, summary, failures = run_replications(cfg)
        assert failures == [("poly@0/opt/100", "EstimationError", "batch from replication 2")]
        assert detail == [row for row in reference[0] if row[1:3] != ["opt", 100]]
        assert summary == [row for row in reference[1] if row[1:3] != ["opt", 100]]
        if workers == 1:
            assert called == [0, 2]  # the batch after the failing one is skipped

    def test_replication_runs_on_its_addressed_stream(self, monkeypatch):
        # Replication i of cell j runs on stream (seed, j, i), also in a
        # batch that starts mid-cell: batches of 2 replications over three
        # workers cut each cell's 7 replications unevenly.
        monkeypatch.setattr(bench, "_BATCH_PAIRS", 200)
        monkeypatch.setenv("CORFD_THREADS", "3")
        cfg = small_config(methods=("cor",), budgets=(100, 200), reps=7)
        problem = parse_problem(cfg.problem)
        detail, _, failures = run_replications(cfg)
        assert not failures and len(detail) == 2 * 7
        for row in detail:
            cell, rep, n = cfg.budgets.index(row[2]), row[3], row[2]
            single = cor_cfd(problem.oracle, problem.theta0, 0, n, cfg.estimator,
                             stream(cfg.seed, cell, rep))
            assert row[4] == single.value

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            small_config(methods=("em",))

    def test_boot_under_default_r_rejected(self):
        with pytest.raises(ValueError, match=r"pilot_fraction \(r\).*pilot_size \(n_b\)"):
            small_config(methods=("cor", "boot"))
        small_config(methods=("boot",), estimator=EstimatorConfig(K=5, pilot_fraction=0.5))


class TestStartup:
    def test_import_leaves_the_pool_unloaded(self):
        # Importing corfd and its CLI loads none of the pool's modules, and
        # the module attribute, which the benchmark's tracer patches, still
        # resolves to the real class.
        pool_modules = ["concurrent.futures", "multiprocessing", "logging", "socket",
                        "subprocess"]
        code = (
            "import sys\n"
            "import corfd, corfd.cli\n"
            f"print(sorted(m for m in {pool_modules!r} if m in sys.modules))\n"
            "import concurrent.futures\n"
            "print(corfd.bench.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)\n"
        )
        src = os.path.dirname(os.path.dirname(bench.__file__))
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines() == ["[]", "True"]

    def test_two_share_bench_loads_no_pool_modules(self, tmp_path):
        # A grid on two shares forks its worker: it loads none of the
        # process pool's modules, nor subprocess.
        pool_modules = ["concurrent.futures", "multiprocessing", "subprocess"]
        code = (
            "import os, sys\n"
            "from corfd import cli\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "status = cli.main(['bench', '--set', 'problem=poly@0', '--set', 'methods=cor,opt',\n"
            "                   '--set', 'budgets=100', '--set', 'reps=2'])\n"
            f"print(status, len(forks), sorted(m for m in {pool_modules!r} if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(bench.__file__))
        env = {**os.environ, "PYTHONPATH": src, "CORFD_THREADS": "2"}
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines() == ["0 1 []"]
