import pytest
from hypothesis import given
from hypothesis import strategies as st

from corfd import bench
from corfd.bench import (
    DETAIL_HEADER,
    SUMMARY_HEADER,
    ExperimentConfig,
    emit_csv,
    run_replications,
    summarize,
)
from corfd.estimators import EstimatorConfig


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
        # feasible ones, so the grid's one pool keeps serving cells after a
        # failed cell.
        cfg = small_config(methods=("cor", "boot", "opt"), estimator=ALL_PILOTS)
        serial = run_replications(cfg)
        pools = []

        class CountingPool(bench.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setenv("CORFD_THREADS", "2")
        parallel = run_replications(cfg)
        assert len(pools) == 1
        assert len(serial[2]) == 1 and parallel[2] == serial[2]
        assert serial[0] == parallel[0]
        assert serial[1] == parallel[1]

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

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            small_config(methods=("em",))

    def test_boot_under_default_r_rejected(self):
        with pytest.raises(ValueError, match=r"pilot_fraction \(r\).*pilot_size \(n_b\)"):
            small_config(methods=("cor", "boot"))
        small_config(methods=("boot",), estimator=EstimatorConfig(K=5, pilot_fraction=0.5))
