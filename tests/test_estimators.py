import numpy as np
import pytest

from corfd.estimators import (
    BudgetError,
    EstimationError,
    EstimatorConfig,
    _pilot_stage,
    boot_cfd,
    cor_cfd,
    opt_cfd,
    optimal_perturbation,
    tra_cfd,
    transform_pilot_sample,
)
from corfd.oracle import GroundTruth, SimulationOracle, poly_oracle, sin_oracle
from corfd.sampling import difference_samples, stream
from helpers import deterministic_oracle


def pilot_stage(oracle, n, cfg, rng, budget=None):
    """The pilot stage of one coordinate at ``theta0 = 0``: its constants,
    its perturbations (K,) and its samples (K, n_b)."""
    stage = _pilot_stage(oracle, [0.0], [0], n, cfg, [rng], n if budget is None else budget)
    return stage.constants()[0], stage.h[0], stage.samples[0]


def cubic_oracle():
    # Mean 2t + t^3: derivative 2, quadratic-bias constant 1, no quartic term.
    return deterministic_oracle(lambda t: 2.0 * float(t[0]) + float(t[0]) ** 3)


class TestOptimalPerturbation:
    def test_unit_case(self):
        assert optimal_perturbation(4.0, 1.0, 1) == pytest.approx(1.0, rel=1e-12)

    def test_poly_at_ten_thousand_pairs(self):
        # Direct evaluation: (1 / (4e4 * 6.25))**(1/6).
        expected = np.exp(np.log(1.0 / 2.5e5) / 6.0)
        assert expected == pytest.approx(0.125992, abs=1e-6)
        assert optimal_perturbation(1.0, -2.5, 10_000) == pytest.approx(expected, rel=1e-12)

    def test_overflowing_bias_constant_is_an_estimation_error(self):
        with pytest.raises(EstimationError, match="bias constant 1e[+]200 is out of range"):
            optimal_perturbation(1.0, 1e200, 100)

    def test_zero_bias_rejected(self):
        with pytest.raises(ValueError):
            optimal_perturbation(1.0, 0.0, 10)


class TestTraCfd:
    def test_noise_free_cubic(self):
        est = tra_cfd(cubic_oracle(), [0.0], 0, 7, 0.5, stream(0))
        assert est.value == pytest.approx(2.25, abs=1e-14)  # 2 + 0.5^2
        assert est.method == "tra" and est.pairs_used == 7 and est.perturbation == 0.5

    def test_single_pair_is_one_difference_sample(self):
        orc = sin_oracle(10.0, 1)
        est = tra_cfd(orc, [0.0], 0, 1, 0.3, stream(1))
        expected = difference_samples(orc, [0.0], 0, 0.3, stream(1), 1)[0]
        assert est.value == expected

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            tra_cfd(cubic_oracle(), [0.0], 0, 0, 0.5, stream(2))


class TestOptCfd:
    def test_uses_true_constants(self):
        truth = poly_oracle().truth([0.0])
        est = opt_cfd(poly_oracle(), [0.0], 0, 10_000, truth, stream(3))
        assert est.method == "opt"
        assert est.perturbation == pytest.approx(optimal_perturbation(1.0, -2.5, 10_000))

    def test_missing_truth_refused(self):
        with pytest.raises(ValueError):
            opt_cfd(poly_oracle(), [0.0], 0, 100, None, stream(4))
        with pytest.raises(ValueError):
            opt_cfd(poly_oracle(), [0.0], 0, 100, GroundTruth(deriv=1.0), stream(4))
        with pytest.raises(ValueError):
            opt_cfd(
                poly_oracle(), [0.0], 0, 100,
                GroundTruth(deriv=1.0, bias_const=0.0, noise_var=1.0), stream(4),
            )

    def test_mean_near_truth(self):
        truth = sin_oracle(10.0, 1).truth([0.0])
        values = [
            opt_cfd(sin_oracle(10.0, 1), [0.0], 0, 1000, truth, r).value
            for r in stream(5).spawn(300)
        ]
        assert np.mean(values) == pytest.approx(10.0, abs=0.1)


class TestTransform:
    def test_identity_at_equal_perturbations(self):
        got = transform_pilot_sample(np.array([[2.7, -1.3]]), [0.3], 0.3, 1.0, 5.0)
        np.testing.assert_allclose(got, [[2.7, -1.3]], rtol=0, atol=1e-14)

    def test_worked_example(self):
        # Row 0: 2 * (2.2 - 2.12) + 2.03 = 2.19; row 1 sits at the target.
        got = transform_pilot_sample(np.array([[2.2], [2.5]]), [0.2, 0.1], 0.1, 2.0, 3.0)
        np.testing.assert_allclose(got, [[2.19], [2.5]], rtol=0, atol=1e-12)

    def test_on_model_sample_maps_to_target_fit(self):
        deriv, b = -1.0, 4.0
        h, h_n = np.array([0.5, 0.3, 0.1]), 0.2
        on_model = np.repeat((deriv + b * h * h)[:, None], 4, axis=1)
        got = transform_pilot_sample(on_model, h, h_n, deriv, b)
        np.testing.assert_allclose(got, deriv + b * h_n * h_n, rtol=0, atol=1e-12)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            transform_pilot_sample(np.ones((1, 2)), [0.1], 0.0, 0.0, 1.0)


class TestEstimateConstants:
    def test_recovers_poly_constants_roughly(self):
        cfg = EstimatorConfig(pilot_size=200, K=10)
        constants, _, samples = pilot_stage(poly_oracle(), 2000, cfg, stream(6))
        assert samples.shape == (10, 200)
        assert constants.deriv == pytest.approx(-6.0, abs=0.5)
        assert constants.bias_const == pytest.approx(-2.5, rel=0.6)
        assert constants.noise_var == pytest.approx(1.0, rel=0.3)
        assert constants.perturbation == pytest.approx(
            optimal_perturbation(constants.noise_var, constants.bias_const, 2000), rel=1e-12
        )

    def test_exact_mode_matches_seeded_mc_in_distribution(self):
        # The bootstrap has its own stream, so both modes fit the same pilot
        # samples.  At I=1000 the Monte Carlo variances scatter about 4.5%
        # around the closed form, and the means by about 0.01 here.
        exact, _, samples_exact = pilot_stage(
            poly_oracle(), 500, EstimatorConfig(pilot_size=100, K=5), stream(7)
        )
        cfg_mc = EstimatorConfig(pilot_size=100, K=5, bootstrap_reps=1000)
        mc, _, samples_mc = pilot_stage(poly_oracle(), 500, cfg_mc, stream(7))
        np.testing.assert_array_equal(samples_exact, samples_mc)
        assert exact.noise_var > 0
        assert mc.noise_var == pytest.approx(exact.noise_var, rel=0.2)
        assert mc.deriv == pytest.approx(exact.deriv, abs=0.05)

    def test_budget_override_changes_perturbation_only(self):
        cfg = EstimatorConfig(pilot_size=50, K=5)
        a, _, _ = pilot_stage(sin_oracle(10, 1), 1000, cfg, stream(8))
        b, _, _ = pilot_stage(sin_oracle(10, 1), 1000, cfg, stream(8), budget=300)
        assert (a.deriv, a.bias_const, a.noise_var) == (b.deriv, b.bias_const, b.noise_var)
        assert b.perturbation == pytest.approx(
            optimal_perturbation(b.noise_var, b.bias_const, 300), rel=1e-12
        )
        assert b.budget == 300

    def test_noise_free_pilots_fall_back_gracefully(self):
        cfg = EstimatorConfig(pilot_size=5, K=4)
        constants, h, _ = pilot_stage(cubic_oracle(), 20, cfg, stream(9))
        assert constants.noise_var == 0.0
        assert constants.perturbation == float(np.max(h))
        # Derivative and bias constant are exact on a noise-free cubic.
        assert constants.deriv == pytest.approx(2.0, abs=1e-9)
        assert constants.bias_const == pytest.approx(1.0, abs=1e-9)


class TestBootCfd:
    def test_budget_exhausted_by_pilots_rejected(self):
        cfg = EstimatorConfig(K=10, pilot_fraction=1.0)
        with pytest.raises(BudgetError):
            boot_cfd(sin_oracle(10, 1), [0.0], 0, 1000, cfg, stream(10))

    def test_fresh_budget_and_perturbation(self):
        cfg = EstimatorConfig(K=10, pilot_size=10)
        est = boot_cfd(sin_oracle(10, 1), [0.0], 0, 1000, cfg, stream(11))
        assert est.pairs_used == 1000
        assert est.constants.budget == 900  # 1000 - 10*10 fresh pairs
        assert est.perturbation == pytest.approx(
            optimal_perturbation(est.constants.noise_var, est.constants.bias_const, 900),
            rel=1e-12,
        )

    def test_seeded_reproducibility(self):
        for reps in (100, None):
            cfg = EstimatorConfig(K=5, pilot_size=20, bootstrap_reps=reps)
            a = boot_cfd(sin_oracle(10, 1), [0.0], 0, 500, cfg, stream(12))
            b = boot_cfd(sin_oracle(10, 1), [0.0], 0, 500, cfg, stream(12))
            assert a.value == b.value


class TestCorCfd:
    def test_noise_free_collapse(self):
        # Noise-free on-model pilots fit the constants exactly and all map
        # to the fitted value at the target perturbation, so the estimate is
        # that value up to rounding.
        for reps in (100, None):
            cfg = EstimatorConfig(K=3, pilot_size=10, bootstrap_reps=reps)
            for seed in range(5):
                est = cor_cfd(cubic_oracle(), [0.0], 0, 60, cfg, stream(13, seed))
                assert est.value == pytest.approx(2.0 + est.perturbation**2, abs=1e-12)
                assert est.pairs_used == 60 and est.constants.noise_var == 0.0


    def test_full_budget_pilot_mode_uses_no_fresh_draws(self):
        # With r=1 the estimate must be reproducible from the pilot stage
        # alone: a fresh-draw stream that is never touched.
        cfg = EstimatorConfig(K=10, pilot_fraction=1.0)
        n = 200
        est = cor_cfd(sin_oracle(10, 1), [0.0], 0, n, cfg, stream(14))
        assert est.pairs_used == n
        # Reconstruct: same stream layout, stop before fresh sampling.
        est_rng, _ = stream(14).spawn(2)
        constants, h, samples = pilot_stage(sin_oracle(10, 1), n, cfg, est_rng)
        fitted = constants.deriv + constants.bias_const * h * h
        fitted_n = constants.deriv + constants.bias_const * constants.perturbation**2
        transformed = (np.abs(h) / abs(constants.perturbation))[:, None] * (
            samples - fitted[:, None]
        ) + fitted_n
        assert est.value == pytest.approx(float(transformed.sum()) / n, abs=1e-14)
        assert est.constants == constants

    def test_partial_pilot_average_identity(self):
        # The estimate equals (sum of transformed + sum of fresh) / n with
        # n2 = n - K*n_b fresh pairs; verified by replaying the streams.
        cfg = EstimatorConfig(K=5, pilot_size=20)
        n = 260
        est = cor_cfd(sin_oracle(10, 1), [0.0], 0, n, cfg, stream(15))
        est_rng, fresh_rng = stream(15).spawn(2)
        constants, h, samples = pilot_stage(sin_oracle(10, 1), n, cfg, est_rng)
        fitted = constants.deriv + constants.bias_const * h * h
        fitted_n = constants.deriv + constants.bias_const * constants.perturbation**2
        transformed = (np.abs(h) / abs(constants.perturbation))[:, None] * (
            samples - fitted[:, None]
        ) + fitted_n
        fresh = difference_samples(
            sin_oracle(10, 1), [0.0], 0, constants.perturbation, fresh_rng, n - 100
        )
        expected = (float(transformed.sum()) + float(fresh.sum())) / n
        assert est.value == pytest.approx(expected, abs=1e-14)

    def test_budget_too_small_rejected(self):
        cfg = EstimatorConfig(K=10, pilot_fraction=1.0)
        with pytest.raises(BudgetError):
            cor_cfd(sin_oracle(10, 1), [0.0], 0, 19, cfg, stream(16))

    def test_ratio_config_resolves_pilot_size(self):
        cfg = EstimatorConfig(K=10, pilot_fraction=0.5)
        est = cor_cfd(sin_oracle(10, 1), [0.0], 0, 1000, cfg, stream(17))
        assert est.pairs_used == 1000  # 500 pilot + 500 fresh

    def test_seeded_reproducibility(self):
        for reps in (100, None):
            cfg = EstimatorConfig(K=5, pilot_size=10, bootstrap_reps=reps)
            a = cor_cfd(poly_oracle(), [1.0], 0, 100, cfg, stream(18))
            b = cor_cfd(poly_oracle(), [1.0], 0, 100, cfg, stream(18))
            assert a.value == b.value and a.perturbation == b.perturbation


class TestMethodComparison:
    def test_variance_ordering_at_matched_budget(self):
        # Replicated variance of the pilot-recycling estimator stays below
        # the true-constants baseline (full-scale check in acceptance).
        orc = poly_oracle()
        truth = orc.truth([3.0])
        n, reps = 1000, 300
        cor_vals = np.array(
            [cor_cfd(orc, [3.0], 0, n, EstimatorConfig(), r).value
             for r in stream(19).spawn(reps)]
        )
        opt_vals = np.array(
            [opt_cfd(orc, [3.0], 0, n, truth, r).value for r in stream(20).spawn(reps)]
        )
        assert cor_vals.var(ddof=0) < opt_vals.var(ddof=0)
        assert cor_vals.mean() == pytest.approx(truth.deriv, abs=0.2)


class TestQueueComparison:
    def test_assumed_constants_baseline_loses_on_the_queue(self):
        # At a 60-pair budget on the critically loaded queue, the pipeline's
        # MSE sits near 0.011 while the no-information baseline (assumed
        # bias constant 5, unit noise) does clearly worse.
        from corfd.oracle import parse_problem

        problem = parse_problem("queue@4,4,10,service")
        truth = -0.2501
        n, reps = 60, 300
        h_assumed = optimal_perturbation(1.0, 5.0, n)
        cfg = EstimatorConfig(K=20, pilot_fraction=1.0)
        tra_vals = np.array(
            [tra_cfd(problem.oracle, problem.theta0, 0, n, h_assumed, r).value
             for r in stream(25).spawn(reps)]
        )
        cor_vals = np.array(
            [cor_cfd(problem.oracle, problem.theta0, 0, n, cfg, r).value
             for r in stream(26).spawn(reps)]
        )
        mse_tra = float(np.mean((tra_vals - truth) ** 2))
        mse_cor = float(np.mean((cor_vals - truth) ** 2))
        assert mse_cor < mse_tra
        assert mse_cor <= 0.022  # factor 2 of the published 0.011


class TestErrorPaths:
    def test_mixed_zero_variance_columns_rejected(self):
        # One deterministic column among noisy ones breaks the weighting.
        def sample(theta, rng, size):
            t = float(np.atleast_1d(theta)[0])
            if abs(t) > 0.55:  # only the largest perturbation is noisy
                return rng.normal(t, 1.0, size)
            return np.full(size, t)

        half_noisy = SimulationOracle(dim=1, label="half", sample=sample)

        pert_gen_cfg = EstimatorConfig(K=3, pilot_size=10)
        with pytest.raises(EstimationError):
            # Perturbation draws under the default generator at n_b=10 span
            # [0.1, ...]; seed chosen so at least one column is deterministic
            # and one noisy.
            for seed in range(5):
                pilot_stage(half_noisy, 30, pert_gen_cfg, stream(23, seed))
