import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corfd import dfo
from corfd.dfo import (
    DfoConfig,
    LbfgsMemory,
    batch_schedule,
    corcfd_lbfgs,
    gradient_via_corcfd,
    stochastic_armijo,
    two_loop_direction,
)
from corfd.estimators import EstimatorConfig, cor_cfd, optimal_perturbation, tra_cfd
from corfd.oracle import noisy_bench_oracle, parse_problem
from corfd.sampling import stream
from helpers import deterministic_oracle


def dense_bfgs_apply(memory: LbfgsMemory, g: np.ndarray) -> np.ndarray:
    """Independent oracle: build the inverse-Hessian approximation as a dense
    matrix via the recursive update and multiply."""
    d = g.size
    s_new, y_new = memory.s[-1], memory.y[-1]
    H = np.eye(d) * (s_new @ y_new) / (y_new @ y_new)
    for s, y in zip(memory.s, memory.y):
        rho = 1.0 / (s @ y)
        V = np.eye(d) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    return H @ g


class TestTwoLoop:
    def test_empty_memory_is_identity(self):
        g = np.array([3.0, -1.0])
        np.testing.assert_array_equal(two_loop_direction(LbfgsMemory(10), g), g)

    def test_secant_equation_single_pair(self):
        mem = LbfgsMemory(10)
        s = np.zeros(4)
        s[0] = 1.0
        assert mem.push(s, s)
        np.testing.assert_allclose(two_loop_direction(mem, s), s, atol=1e-14)

    def test_matches_dense_update(self):
        rng = stream(0)
        for trial in range(20):
            d = int(rng.integers(2, 8))
            mem = LbfgsMemory(depth=10)
            for _ in range(int(rng.integers(1, 6))):
                s = rng.standard_normal(d)
                y = rng.standard_normal(d)
                if s @ y <= 1e-8:
                    y = s + 0.1 * rng.standard_normal(d)
                    if s @ y <= 1e-8:
                        continue
                mem.push(s, y)
            if len(mem) == 0:
                continue
            g = rng.standard_normal(d)
            np.testing.assert_allclose(
                two_loop_direction(mem, g), dense_bfgs_apply(mem, g), atol=1e-10
            )

    def test_positive_definiteness_through_memory(self):
        rng = stream(1)
        mem = LbfgsMemory(10)
        for _ in range(8):
            s = rng.standard_normal(5)
            y = rng.standard_normal(5)
            mem.push(s, y)
        for _ in range(50):
            g = rng.standard_normal(5)
            if len(mem):
                assert g @ two_loop_direction(mem, g) > 0


class TestMemory:
    def test_curvature_guard_rejects(self):
        mem = LbfgsMemory(10)
        s = np.array([1.0, 0.0])
        assert not mem.push(s, -s)
        assert not mem.push(s, np.array([0.0, 1.0]))  # orthogonal: zero curvature
        assert len(mem) == 0

    def test_depth_eviction(self):
        mem = LbfgsMemory(depth=3)
        for i in range(5):
            v = np.array([1.0 + i, 0.0])
            mem.push(v, v)
        assert len(mem) == 3
        assert mem.s[0][0] == 3.0  # two oldest evicted


class TestBatchSchedule:
    @pytest.mark.parametrize("batch, k, K, expected", [(20, 0, 5, 20), (20, 4, 5, 25), (1, 0, 5, 5)])
    def test_examples(self, batch, k, K, expected):
        assert batch_schedule(batch, k, K) == expected

    @given(st.integers(1, 500), st.integers(0, 200), st.integers(1, 30))
    def test_positive_multiple_of_k(self, batch, k, K):
        out = batch_schedule(batch, k, K)
        assert out >= K and out % K == 0

    def test_nondecreasing_along_iterations(self):
        batch = 20
        seq = []
        for k in range(50):
            batch = batch_schedule(batch, k, 5)
            seq.append(batch)
        assert all(b2 >= b1 for b1, b2 in zip(seq, seq[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_schedule(0, 0, 5)


class TestStochasticArmijo:
    def test_large_noise_accepts_immediately(self):
        orc = noisy_bench_oracle("zakharov", 2)
        res = stochastic_armijo(
            orc, np.ones(2), -np.ones(2), 1.0, 1.0, 1e-4, 0.5, 1e6, stream(2)
        )
        assert res.step == 1.0 and res.evals == 2 and not res.gave_up

    def test_hand_computed_backtracking_on_square(self):
        # f(x) = x^2 at 1 with direction -2 and rate 4: the full step lands at
        # f(-1)=1 > 1 - 4e-4 (reject), the halved step at f(0)=0 (accept).
        orc = deterministic_oracle(lambda t: float(t[0]) ** 2)
        res = stochastic_armijo(
            orc, np.array([1.0]), np.array([-2.0]), 4.0, 1.0, 1e-4, 0.5, 0.0, stream(3)
        )
        assert res.step == 0.5
        assert res.evals == 3  # start draw + two trials
        assert not res.gave_up

    def test_give_up_returns_smallest_step_flagged(self):
        # Ascent direction on a noise-free parabola never satisfies the test.
        orc = deterministic_oracle(lambda t: float(t[0]) ** 2)
        res = stochastic_armijo(
            orc, np.array([1.0]), np.array([2.0]), 4.0, 1.0, 1e-4, 0.5, 0.0, stream(4)
        )
        assert res.gave_up
        assert res.step == pytest.approx(0.5**50)
        assert res.evals == 52  # start draw + 51 trials


class TestGradient:
    def test_single_coordinate_reduces_to_one_estimator_call(self):
        orc = noisy_bench_oracle("zakharov", 1)
        cfg = EstimatorConfig(K=5, pilot_fraction=1.0)
        g = gradient_via_corcfd(orc, np.ones(1), 50, cfg, stream(6))
        direct = cor_cfd(orc, np.ones(1), 0, 50, cfg, stream(6).spawn(1)[0]).value
        assert g.shape == (1,) and g[0] == direct

    def test_noise_free_quadratic_gradient(self):
        bowl = deterministic_oracle(lambda t: float(np.sum(np.asarray(t) ** 2)), dim=4)
        cfg = EstimatorConfig(K=5, pilot_fraction=1.0)
        theta = np.ones(4)
        g = gradient_via_corcfd(bowl, theta, 20, cfg, stream(7))
        # No cubic term: the only error is the clamped slope floor times the
        # squared fallback perturbation.  Replay the per-coordinate streams to
        # recover the drawn perturbations and the implied bound.
        from corfd.regression import clamp_floor
        from corfd.sampling import draw_perturbation_set

        coords = stream(7).spawn(4)
        for i, gi in enumerate(g):
            coeff_rng = coords[i].spawn(2)[0].spawn(3)[0]
            h = draw_perturbation_set(5, cfg.coeff_gen, coeff_rng) * 4.0**cfg.pilot_exponent
            bound = clamp_floor(2.0, cfg.clamp_scale) * float(np.max(h)) ** 2
            assert gi == pytest.approx(2.0, abs=bound + 1e-9)

    def test_steep_noisy_start_is_not_noise_free(self):
        # At the 100-d Zakharov start the derivatives are about 3e12, so a
        # noise-free test scaled by the derivative would flag some honestly
        # noisy pilot columns and reject the estimate.  This is the first
        # gradient of ``corfd dfo --problem zakharov@100 --seed 0``.
        orc = noisy_bench_oracle("zakharov", 100)
        cfg = DfoConfig(budget=1).estimator_config()
        g = gradient_via_corcfd(orc, np.ones(100), 20, cfg, stream(0).spawn(2)[0])
        assert g.shape == (100,) and np.all(np.isfinite(g))

    def test_default_bootstrap_is_exact(self):
        assert EstimatorConfig().bootstrap_reps is None
        assert DfoConfig(budget=10).estimator_config().bootstrap_reps is None

    @pytest.mark.parametrize(
        "pid", ["zakharov@10", "zakharov@100", "rosenbrock", "queue@3,5,10,service"]
    )
    def test_tra_gradient_matches_per_coordinate_estimates(self, pid):
        # One batched oracle call must give what one ``tra_cfd`` call per
        # coordinate gave, on the same per-coordinate streams, bit for bit.
        problem = parse_problem(pid)
        h = optimal_perturbation(dfo._TRA_NOISE_VAR, dfo._TRA_BIAS_CONST, 1)
        g = dfo._gradient_tra(problem.oracle, problem.theta0, stream(9))
        rngs = stream(9).spawn(problem.theta0.size)
        expected = [
            tra_cfd(problem.oracle, problem.theta0, i, 1, h, rng).value
            for i, rng in enumerate(rngs)
        ]
        np.testing.assert_array_equal(g, expected)

    def test_seeded_reproducibility(self):
        orc = noisy_bench_oracle("zakharov", 10)
        for reps in (100, None):
            cfg = EstimatorConfig(K=5, pilot_fraction=1.0, bootstrap_reps=reps)
            a = gradient_via_corcfd(orc, np.ones(10), 100, cfg, stream(8))
            b = gradient_via_corcfd(orc, np.ones(10), 100, cfg, stream(8))
            np.testing.assert_array_equal(a, b)


class TestOptimizer:
    def test_noise_free_quadratic_converges_fast(self):
        # Strongly convex quadratic, zero noise slack: classical behavior.
        scales = np.array([1.0, 2.5, 4.0])
        bowl = deterministic_oracle(
            lambda t: float(np.sum(scales * np.asarray(t) ** 2)), dim=3
        )
        cfg = DfoConfig(budget=200_000, noise_bound=0.0, batch_init=20, K=5)
        trace = corcfd_lbfgs(bowl, np.array([2.0, -1.0, 1.5]), cfg, stream(9))
        assert np.linalg.norm(trace.theta_final) <= 1e-4
        first_converged = next(
            row["k"] for row in trace.iterations[1:]
            if np.linalg.norm(row["theta"]) <= 1e-4
        )
        assert first_converged <= 30

    def test_noise_free_accepted_steps_strictly_decrease(self):
        bowl = deterministic_oracle(lambda t: float(np.sum(np.asarray(t) ** 2)), dim=2)
        # Budget short enough that the run ends before the floating-point
        # floor, where sufficient-decrease terms fall below one ulp.
        cfg = DfoConfig(budget=600, noise_bound=0.0)
        trace = corcfd_lbfgs(bowl, np.array([3.0, -2.0]), cfg, stream(10))
        accepted = [row for row in trace.iterations[1:] if not row["ls_gave_up"]]
        assert accepted
        for row in accepted:
            assert row["y_accepted"] < row["y_start"]

    def test_evaluation_accounting_is_exact(self):
        orc = noisy_bench_oracle("zakharov", 3)
        cfg = DfoConfig(budget=2000)
        trace = corcfd_lbfgs(orc, np.ones(3), cfg, stream(11))
        d = 3
        total = 2 * d * trace.iterations[0]["batch"]
        for row in trace.iterations[1:]:
            total += row["ls_evals"] + 2 * d * row["batch"]
        assert total == trace.evals_total
        assert trace.iterations[-1]["t"] == trace.evals_total
        # Entry guard: every iteration entered below the cap.
        for prev, _ in zip(trace.iterations, trace.iterations[1:]):
            assert prev["t"] < 2 * cfg.budget

    def test_batches_nondecreasing_multiples_of_k(self):
        orc = noisy_bench_oracle("zakharov", 2)
        cfg = DfoConfig(budget=3000, K=5)
        trace = corcfd_lbfgs(orc, np.ones(2), cfg, stream(12))
        batches = [row["batch"] for row in trace.iterations]
        assert all(b % 5 == 0 and b > 0 for b in batches)
        assert all(b2 >= b1 for b1, b2 in zip(batches[1:], batches[2:]))

    def test_descent_rate_positive_every_iteration(self):
        orc = noisy_bench_oracle("zakharov", 4)
        trace = corcfd_lbfgs(orc, np.ones(4), DfoConfig(budget=3000), stream(13))
        for row in trace.iterations[1:]:
            assert row["decrease_rate"] > 0

    def test_seeded_runs_reproduce(self):
        orc = noisy_bench_oracle("zakharov", 10)
        cfg = DfoConfig(budget=5000)
        a = corcfd_lbfgs(orc, np.ones(10), cfg, stream(14))
        b = corcfd_lbfgs(orc, np.ones(10), cfg, stream(14))
        np.testing.assert_array_equal(a.theta_final, b.theta_final)
        assert a.evals_total == b.evals_total

    def test_tra_gradient_variant_runs(self):
        orc = noisy_bench_oracle("rosenbrock", 2)
        cfg = DfoConfig(budget=500, gradient_method="tra")
        trace = corcfd_lbfgs(orc, np.array([-1.2, 1.0]), cfg, stream(15))
        assert trace.evals_total >= 2 * cfg.budget
        assert all(row["batch"] == 1 for row in trace.iterations)

    def test_start_row_reports_true_value(self):
        zak = parse_problem("zakharov@2")
        trace = corcfd_lbfgs(zak.oracle, zak.theta0, DfoConfig(budget=200), stream(16))
        assert trace.iterations[0]["k"] == -1
        assert trace.iterations[0]["f_true"] == zak.oracle.mean(zak.theta0)
        queue = parse_problem("queue@3,5,10,service")  # mean unknown
        trace = corcfd_lbfgs(queue.oracle, queue.theta0, DfoConfig(budget=500), stream(17))
        assert np.isnan(trace.iterations[0]["f_true"])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DfoConfig(budget=0)
        with pytest.raises(ValueError):
            DfoConfig(budget=10, l1=0.5, l2=0.1)
        with pytest.raises(ValueError):
            DfoConfig(budget=10, batch_init=5, K=5)  # below 2 pilot pairs per column
        with pytest.raises(ValueError, match="gradient_method must be one of cor, tra"):
            DfoConfig(budget=10, gradient_method="spsa")
