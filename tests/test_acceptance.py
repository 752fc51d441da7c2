"""Acceptance suite: one seeded test per criterion, each printing a PASS line
with its measured values (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here.  The statistical checks use fixed seeds, so
they are deterministic; the replication counts and budgets are the stated
desk-scale settings.
"""

import numpy as np
import pytest

from corfd import (
    DfoConfig,
    EstimatorConfig,
    ExperimentConfig,
    boot_cfd,
    cor_cfd,
    corcfd_lbfgs,
    parse_problem,
    run_replications,
    stream,
    theory_constants,
)
from corfd.bootstrap import column_moments
from corfd.estimators import _pilot_stage
from corfd.oracle import QueueSpec, poly_oracle, sin_oracle
from corfd.regression import fit_bias_wls, projection_diagnostics
from corfd.sampling import difference_samples
from helpers import deterministic_oracle, fit_var_unweighted, lr_derivative


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


# -------------------------------------------------------------------------
# 1. Exact-bootstrap identity and Monte Carlo convergence
# -------------------------------------------------------------------------

def test_criterion_1_bootstrap_identities():
    rng = stream(1001)
    worst = 0.0
    for _ in range(1000):
        n_b = int(rng.integers(2, 60))
        col = rng.standard_normal(n_b) * rng.uniform(0.5, 3) + rng.uniform(-5, 5)
        (mean,), (variance,) = column_moments(col[None, :], None, None)
        mean_ref = col.mean()
        var_ref = (n_b - 1) / n_b**2 * col.var(ddof=1)
        scale = max(1.0, abs(mean_ref), var_ref)
        worst = max(worst, abs(mean - mean_ref) / scale, abs(variance - var_ref) / scale)
    assert worst <= 1e-12

    I = 1000
    mean_misses = 0
    var_misses = 0
    for seed in range(200):
        col = stream(1002, seed).standard_normal(30)
        (exact_mean,), (exact_var,) = column_moments(col[None, :], None, None)
        (mc_mean,), (mc_var,) = column_moments(col[None, :], I, [stream(1003, seed)])
        if abs(mc_mean - exact_mean) > 3 * np.sqrt(exact_var / I):
            mean_misses += 1
        if abs(mc_var - exact_var) > 3 * exact_var * np.sqrt(2.0 / (I - 1)):
            var_misses += 1
    assert mean_misses <= 3
    assert var_misses <= 3
    report(
        "criterion 1",
        f"exact closed form to 1e-12 on 1000 columns (worst {worst:.2e}); "
        f"MC within 3 SE at I=1000 ({mean_misses}/200 mean, {var_misses}/200 variance exceptions)",
    )


# -------------------------------------------------------------------------
# 2. Noise-free difference exactness
# -------------------------------------------------------------------------

def test_criterion_2_noise_free_exactness():
    orc = poly_oracle()
    truth = orc.truth([0.0])
    worst = 0.0
    for h in np.arange(0.05, 1.0001, 0.05):
        surrogate = (orc.mean([h]) - orc.mean([-h])) / (2 * h)
        bias = surrogate - truth.deriv
        predicted = truth.bias_const * h * h + truth.fifth_const * h**4
        worst = max(worst, abs(bias - predicted) / max(1.0, abs(predicted)))
    assert worst <= 1e-12

    cube = deterministic_oracle(lambda t: float(t[0]) ** 3)
    for h in (0.1, 0.5, 1.0):
        quotient = (cube.mean([h]) - cube.mean([-h])) / (2 * h)
        assert quotient == pytest.approx(h * h, rel=1e-13)  # bias is exactly h^2
    report("criterion 2", f"degree-5 surrogate bias matches to 1e-12 (worst {worst:.2e}); cubic bias = h^2")


# -------------------------------------------------------------------------
# 3. Published comparison grid (bias/variance/MSE of cor vs opt)
# -------------------------------------------------------------------------

# Published grid: (budget, theta0) -> (bias_cor, bias_opt, var_cor, var_opt,
# mse_cor, mse_opt).  The two MSE cells at (100, 3) are internally
# inconsistent in the source (they do not equal bias^2 + variance of the same
# row); the identity values are used instead.
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


def test_criterion_3_comparison_grid():
    reps = 1000
    results = {}
    for theta0 in (0, 1, 2, 3):
        cfg = ExperimentConfig(
            problem=f"poly@{theta0}", methods=("cor", "opt"),
            budgets=(100, 1000, 10000), reps=reps, seed=2024,
        )
        _, summary, failures = run_replications(cfg)
        assert not failures
        for row in summary:
            results[(row[1], row[2], theta0)] = (row[4], row[5], row[6])

    # (a) variance ordering at the largest budget, every point
    for theta0 in (0, 1, 2, 3):
        assert results[("cor", 10000, theta0)][1] < results[("opt", 10000, theta0)][1]

    # (b) bias-magnitude ordering at the largest budget with significant gaps:
    # cor below opt where the bias and quartic constants share a sign (2, 3),
    # above where they oppose (0, 1).
    for theta0, cor_smaller in ((0, False), (1, False), (2, True), (3, True)):
        b_cor, v_cor, _ = results[("cor", 10000, theta0)]
        b_opt, v_opt, _ = results[("opt", 10000, theta0)]
        gap = abs(b_opt) - abs(b_cor) if cor_smaller else abs(b_cor) - abs(b_opt)
        half_width = 1.96 * np.sqrt(v_cor / reps + v_opt / reps)
        assert gap - half_width > 0, (theta0, gap, half_width)

    # (c) every cell within a factor 2 of the published value
    worst = 1.0
    for (budget, theta0), targets in PUBLISHED_GRID.items():
        ours = results[("cor", budget, theta0)] + results[("opt", budget, theta0)]
        ordered = (ours[0], ours[3], ours[1], ours[4], ours[2], ours[5])
        for got, want in zip(ordered, targets):
            ratio = got / want
            assert 0.5 <= ratio <= 2.0, (budget, theta0, got, want)
            worst = max(worst, ratio, 1 / ratio)

    # Monotone error decay: each tenfold budget increase at least halves the
    # pipeline's MSE, consistent with the n**(-2/3) rate.
    for theta0 in (0, 1, 2, 3):
        for small, large in ((100, 1000), (1000, 10000)):
            assert results[("cor", small, theta0)][2] >= 2 * results[("cor", large, theta0)][2]
    report(
        "criterion 3",
        f"72 grid cells within factor 2 (worst ratio {worst:.2f}); orderings (a),(b) hold; MSE decays monotonically",
    )


# -------------------------------------------------------------------------
# 4. Constant estimation on the scaled sine
# -------------------------------------------------------------------------

def test_criterion_4_sine_constant_estimation():
    orc = sin_oracle(10.0, 1)
    cfg = EstimatorConfig(K=10, pilot_size=20)
    bias_consts, noise_vars, perturbations = [], [], []
    for rep in stream(41).spawn(1000):
        (constants,) = _pilot_stage(orc, [0.0], [0], 200, cfg, rep, 200).constants()
        bias_consts.append(constants.bias_const)
        noise_vars.append(constants.noise_var)
        perturbations.append(constants.perturbation)
    med_b = float(np.median(bias_consts))
    med_s2 = float(np.median(noise_vars))
    med_h = float(np.median(perturbations))
    b_true = -10.0 / 6.0
    h_true = (1.0 / (4 * 200 * b_true**2)) ** (1.0 / 6.0)
    assert abs(med_b - b_true) <= 0.25 * abs(b_true)
    assert abs(med_s2 - 1.0) <= 0.15
    assert abs(med_h - h_true) <= 0.30 * h_true
    report(
        "criterion 4",
        f"medians over 1000 runs: slope {med_b:.3f} (true {b_true:.3f} +/-25%), "
        f"noise {med_s2:.3f} (true 1 +/-15%), perturbation {med_h:.3f} (true {h_true:.3f} +/-30%)",
    )


# -------------------------------------------------------------------------
# 5. Queue validation
# -------------------------------------------------------------------------

def test_criterion_5_queue():
    targets = [(QueueSpec(4, 4, 10), -0.2501), (QueueSpec(3, 5, 10), -0.1136)]
    diffs = []
    for spec, target in targets:
        est = lr_derivative(spec, "service", 1_000_000, stream(51))
        assert abs(est - target) <= 0.01, (spec, est)
        diffs.append(abs(est - target))

    problem = parse_problem("queue@4,4,10,service")
    cfg = EstimatorConfig(K=20, pilot_fraction=1.0)
    values = np.array(
        [cor_cfd(problem.oracle, problem.theta0, 0, 1000, cfg, rep).value
         for rep in stream(52).spawn(300)]
    )
    mse = float(np.mean((values - (-0.2501)) ** 2))
    assert mse <= 0.02
    report(
        "criterion 5",
        f"score-function derivative within 0.01 of both targets (gaps {diffs[0]:.4f}, {diffs[1]:.4f}); "
        f"pipeline MSE {mse:.5f} <= 0.02 at n=1000, K=20, full-pilot budget",
    )


# -------------------------------------------------------------------------
# 6. Rate checks of the constant estimators
# -------------------------------------------------------------------------

def test_criterion_6_constant_estimator_rates():
    orc = poly_oracle()
    c_fixed = np.arange(1.0, 5.6, 0.5)
    sigma2 = 1.0
    nu4 = 3.0 * sigma2**2 / 4.0  # limiting fourth moment, Gaussian noise
    tc = theory_constants(c_fixed, 0.1, 0.0)
    reps = 2000
    measured = {}
    for n_b in (200, 800):
        h = c_fixed * float(n_b) ** -0.1
        slopes = np.empty(reps)
        noise_fits = np.empty(reps)
        for i, rep in enumerate(stream(61).spawn(reps)):
            pilot = difference_samples(orc, [0.0], [0] * h.size, h, rep.spawn(h.size), n_b)
            means, variances = column_moments(pilot, None, None)
            slopes[i] = fit_bias_wls(h, means, np.ones(c_fixed.size)).slope
            noise_fits[i] = fit_var_unweighted(h, variances, n_b)
        bias_b = slopes.mean() - (-2.5)
        var_b = slopes.var(ddof=1)
        bias_s = noise_fits.mean() - sigma2
        var_s = noise_fits.var(ddof=1)
        pred_bias_b = tc.slope_bias * n_b ** (-0.2)
        pred_var_b = tc.slope_var * sigma2 / (2 * n_b**0.4)
        pred_var_s = tc.noise_var_coeff * (4 * nu4 * (n_b - 1) - sigma2**2 * (n_b - 3)) / (n_b * (n_b - 1))
        assert 0.5 <= bias_b / pred_bias_b <= 2.0
        assert 0.5 <= var_b / pred_var_b <= 2.0
        assert 0.5 <= var_s / pred_var_s <= 2.0
        # noise-slope is zero here, so the noise-fit bias prediction is zero:
        # the measured bias must be statistically indistinguishable from it.
        assert abs(bias_s) <= 5 * np.sqrt(var_s / reps)
        measured[n_b] = (bias_b, var_b, var_s)
    for idx, predicted in ((0, 4 ** (-0.2)), (1, 4 ** (-0.4)), (2, 199.0 / 799.0)):
        empirical = measured[800][idx] / measured[200][idx]
        assert 0.5 <= empirical / predicted <= 2.0, (idx, empirical, predicted)
    report(
        "criterion 6",
        "slope and noise estimator moments within factor 2 of closed forms at n_b=200/800; "
        "all three rate ratios within factor 2 of the predicted exponents",
    )


# -------------------------------------------------------------------------
# 7. Projection diagnostics
# -------------------------------------------------------------------------

def test_criterion_7_projection_diagnostics():
    c = np.arange(1.0, 5.6, 0.5)
    d = projection_diagnostics(c)
    P = d.residual_projector
    cos_c = float(np.linalg.norm(c - P @ c) / np.linalg.norm(c))
    cos_c4 = float(np.linalg.norm(c**4 - P @ c**4) / np.linalg.norm(c**4))
    assert cos_c >= 0.9693
    assert cos_c4 >= 0.9595
    assert np.max(np.abs(P @ P - P)) <= 1e-10
    assert np.max(np.abs(P @ np.ones(c.size))) <= 1e-10
    assert np.max(np.abs(P @ (c * c))) <= 1e-10

    rng = stream(71)
    worst_q = 0.0
    for _ in range(1000):
        K = int(rng.integers(2, 16))
        lo = rng.uniform(0.1, 3.0)
        cc = rng.uniform(lo, lo * np.sqrt(2) * 0.9999, size=K)
        while np.unique(np.round(cc * cc, 13)).size < K:
            cc = rng.uniform(lo, lo * np.sqrt(2) * 0.9999, size=K)
        q = projection_diagnostics(cc).variance_factor
        worst_q = max(worst_q, q - K)
        assert q <= K
    report(
        "criterion 7",
        f"cos angles {cos_c:.4f} >= 0.9693 and {cos_c4:.4f} >= 0.9595; projector invariants to 1e-10; "
        f"variance factor <= K on 1000 bounded-spread draws (max slack {worst_q:.2e})",
    )


# -------------------------------------------------------------------------
# 8. Optimizer on the Zakharov function
# -------------------------------------------------------------------------

def test_criterion_8_zakharov():
    problem = parse_problem("zakharov@10")
    ogs, sgs = [], []
    for seed in range(10):
        trace = corcfd_lbfgs(problem.oracle, problem.theta0, DfoConfig(budget=100_000), stream(81, seed))
        ogs.append(problem.oracle.mean(trace.theta_final))
        sgs.append(float(np.linalg.norm(trace.theta_final)))
    med_og, med_sg = float(np.median(ogs)), float(np.median(sgs))
    assert med_og <= 1.0
    assert med_sg <= 0.5

    problem1 = parse_problem("zakharov@1")
    ogs1 = [
        problem1.oracle.mean(
            corcfd_lbfgs(problem1.oracle, problem1.theta0, DfoConfig(budget=100_000), stream(82, seed)).theta_final
        )
        for seed in range(10)
    ]
    med_og1 = float(np.median(ogs1))
    assert med_og1 <= 0.01
    report(
        "criterion 8",
        f"d=10 at 1e5 pairs: median OG {med_og:.4f} <= 1.0, median SG {med_sg:.4f} <= 0.5; "
        f"d=1 at 1e5 pairs: median OG {med_og1:.5f} <= 0.01 (10 seeded runs each)",
    )


# -------------------------------------------------------------------------
# 9. Optimizer on the Rosenbrock function
# -------------------------------------------------------------------------

def test_criterion_9_rosenbrock():
    problem = parse_problem("rosenbrock")
    og_cor, og_tra = [], []
    for seed in range(10):
        tr_cor = corcfd_lbfgs(problem.oracle, problem.theta0, DfoConfig(budget=2000), stream(91, seed))
        og_cor.append(problem.oracle.mean(tr_cor.theta_final))
        tr_tra = corcfd_lbfgs(
            problem.oracle, problem.theta0,
            DfoConfig(budget=2000, gradient_method="tra"), stream(92, seed),
        )
        og_tra.append(problem.oracle.mean(tr_tra.theta_final))
    med_cor, med_tra = float(np.median(og_cor)), float(np.median(og_tra))
    assert med_cor < med_tra

    og_big = [
        problem.oracle.mean(
            corcfd_lbfgs(problem.oracle, problem.theta0, DfoConfig(budget=200_000), stream(93, seed)).theta_final
        )
        for seed in range(10)
    ]
    med_big = float(np.median(og_big))
    assert med_big <= 0.6
    report(
        "criterion 9",
        f"2e3 pairs: median OG {med_cor:.3f} (pipeline) < {med_tra:.3f} (one-pair baseline); "
        f"2e5 pairs: median OG {med_big:.3f} <= 0.6 (10 seeded runs each)",
    )


# -------------------------------------------------------------------------
# 10. Budget-split robustness
# -------------------------------------------------------------------------

def test_criterion_10_budget_split_robustness():
    orc = sin_oracle(10.0, 1)
    n, reps = 1000, 500
    mses = {}
    for method, fn, r in (("cor", cor_cfd, 0.2), ("cor", cor_cfd, 1.0),
                          ("boot", boot_cfd, 0.2), ("boot", boot_cfd, 0.8)):
        cfg = EstimatorConfig(K=10, pilot_fraction=r)
        values = np.array(
            [fn(orc, [0.0], 0, n, cfg, rep).value for rep in stream(101).spawn(reps)]
        )
        mses[(method, r)] = float(np.mean((values - 10.0) ** 2))
    cor_ratio = mses[("cor", 1.0)] / mses[("cor", 0.2)]
    boot_ratio = mses[("boot", 0.8)] / mses[("boot", 0.2)]
    assert 1.0 / 1.5 <= cor_ratio <= 1.5
    assert boot_ratio >= 1.5
    report(
        "criterion 10",
        f"full-pilot vs 20%-pilot MSE ratio {cor_ratio:.2f} (within 1.5x) for the pipeline; "
        f"pilot-heavy baseline degrades {boot_ratio:.2f}x (>= 1.5x)",
    )
