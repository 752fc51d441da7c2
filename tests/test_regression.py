import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corfd.regression import (
    SingularDesignError,
    clamp_bias_constant,
    clamp_floor,
    fit_bias_wls,
    fit_var_wls,
    projection_diagnostics,
    theory_constants,
)
from corfd.sampling import stream
from helpers import fit_var_unweighted


def accepts(fn, *args) -> bool:
    """Whether ``fn(*args)`` returns without a SingularDesignError."""
    try:
        fn(*args)
    except SingularDesignError:
        return False
    return True


class TestBiasFit:
    def test_noise_free_linear_model_recovered(self):
        h = np.array([0.1, 0.25, 0.4, 0.8])
        means = 2.0 + 3.0 * h * h
        for sds in (np.ones(4), np.array([0.5, 1.0, 2.0, 0.1])):
            fit = fit_bias_wls(h, means, sds)
            assert fit.intercept == pytest.approx(2.0, abs=1e-10)
            assert fit.slope == pytest.approx(3.0, abs=1e-10)
            residuals = means - (fit.intercept + fit.slope * h * h)
            np.testing.assert_allclose(residuals, 0.0, atol=1e-10)

    def test_two_point_system_interpolates(self):
        # Independent oracle: solve the 2x2 linear system directly.
        h = np.array([0.1, 0.2])
        means = np.array([2.03, 2.12])
        expected = np.linalg.solve(np.array([[1.0, 0.01], [1.0, 0.04]]), means)
        np.testing.assert_allclose(expected, [2.0, 3.0], atol=1e-12)
        fit = fit_bias_wls(h, means, np.ones(2))
        assert fit.intercept == pytest.approx(2.0, abs=1e-10)
        assert fit.slope == pytest.approx(3.0, abs=1e-10)
        residuals = means - (fit.intercept + fit.slope * h * h)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-12)

    def test_quartic_contamination_matches_theory_slope_bias(self):
        # With a quartic term D*h^4 the slope fit is off by exactly the
        # closed-form coefficient times n_b**(2*gamma).
        c = np.array([0.5, 0.9, 1.3, 1.8, 2.4])
        D = 0.1
        for n_b in (100, 400):
            h = c * n_b ** (-0.1)
            means = 2.0 + 3.0 * h * h + D * h**4
            fit = fit_bias_wls(h, means, np.ones(c.size))
            predicted = theory_constants(c, D, 0.0).slope_bias * n_b ** (-0.2)
            assert fit.slope - 3.0 == pytest.approx(predicted, rel=1e-10)

    def test_weights_are_inverse_variances(self):
        # Three columns with sds (1, 2, 1) carry weights 1/sd^2 = (1, 1/4, 1).
        # At x = h^2 = (1, 4, 9) and means (1, 3, 2) the normal equations are
        # 9/4 a + 11 b = 15/4 and 11 a + 86 b = 22, so a = 161/145 and
        # b = 33/290; weights 1/sd would give b = 17/162.
        fit = fit_bias_wls(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0]),
                           np.array([1.0, 2.0, 1.0]))
        assert fit.intercept == pytest.approx(161 / 145, rel=1e-12)
        assert fit.slope == pytest.approx(33 / 290, rel=1e-12)

    def test_wls_equals_ols_under_equal_weights(self):
        rng = stream(0)
        h = np.array([0.1, 0.2, 0.3, 0.5, 0.7])
        means = 1.0 - 2.0 * h * h + 0.01 * rng.standard_normal(5)
        a = fit_bias_wls(h, means, np.ones(5))
        b = fit_bias_wls(h, means, np.full(5, 3.7))
        assert a.intercept == pytest.approx(b.intercept, abs=1e-10)
        assert a.slope == pytest.approx(b.slope, abs=1e-10)

    def test_perturbation_scaling_invariance(self):
        # Noise-free inputs regenerated from the same constants at scaled h
        # recover identical constants.
        base = np.array([0.05, 0.12, 0.31, 0.44])
        for t in (0.5, 2.0, 10.0):
            h = t * base
            fit = fit_bias_wls(h, -1.5 + 0.75 * h * h, np.ones(4))
            assert fit.intercept == pytest.approx(-1.5, abs=1e-9)
            assert fit.slope == pytest.approx(0.75, abs=1e-9)

    def test_singular_design_rejected(self):
        h = np.array([0.2, 0.2, 0.2])
        with pytest.raises(SingularDesignError):
            fit_bias_wls(h, np.ones(3), np.ones(3))

    @pytest.mark.parametrize("h, accepted", [
        ([0.1, 0.25, 0.4, 0.8], True),
        ([0.3, 0.3 * (1 + 1e-5), 0.3 * (1 + 2e-5)], True),
        ([0.3, 0.3 * (1 + 1e-9), 0.3 * (1 + 2e-9)], False),
        ([0.2, 0.2, 0.2], False),
    ], ids=["spread", "near_tie_1e-5", "near_tie_1e-9", "coincident"])
    def test_verdict_does_not_depend_on_scale(self, h, accepted):
        # The collinearity test compares the weighted spread of h^2 with its
        # weighted size, so neither rescaling h nor the sds moves it.
        h = np.asarray(h)
        sds = np.linspace(0.5, 2.0, h.size)
        for k in range(-40, 41):
            hk = h * 10.0**k
            for sd_scale in (1e-20, 1.0, 1e20):
                verdict = accepts(fit_bias_wls, hk, 2.0 + 3.0 * hk * hk, sds * sd_scale)
                assert verdict == accepted, (k, sd_scale)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_bias_wls([0.1], [1.0], [1.0])
        with pytest.raises(ValueError):
            fit_bias_wls([0.1, 0.2], [1.0, 2.0], [1.0, 0.0])


class TestVarFit:
    def test_exact_inversion(self):
        n_b = 50
        h = np.array([0.3, 0.6, 1.2])
        s2 = (n_b - 1) * 1.0 / (2 * n_b**2 * h * h)
        assert fit_var_wls(h, s2, n_b) == pytest.approx(1.0, rel=1e-12)

    def test_single_perturbation_arithmetic(self):
        # 2 * 100^2 / 99 * (0.25 * 0.0396) = 2.0
        assert fit_var_wls([0.5], [0.0396], 100) == pytest.approx(2.0, rel=1e-12)

    def test_single_point_accepted(self):
        assert fit_var_wls([0.7], [1.0], 10) > 0

    def test_unweighted_form_matches_direct_least_squares(self):
        n_b = 30
        h = np.array([0.2, 0.5, 0.9, 1.5])
        s2 = np.array([0.9, 0.2, 0.05, 0.02])
        x = (n_b - 1) / (2 * n_b**2 * h * h)
        expected = float(np.linalg.lstsq(x[:, None], s2, rcond=None)[0][0])
        assert fit_var_unweighted(h, s2, n_b) == pytest.approx(expected, rel=1e-12)

    def test_weighted_and_unweighted_agree_on_model(self):
        n_b = 20
        h = np.array([0.1, 0.4, 0.8])
        s2 = (n_b - 1) * 2.5 / (2 * n_b**2 * h * h)
        assert fit_var_wls(h, s2, n_b) == pytest.approx(2.5, rel=1e-12)
        assert fit_var_unweighted(h, s2, n_b) == pytest.approx(2.5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_var_wls([], [], 10)
        with pytest.raises(ValueError):
            fit_var_wls([0.1], [1.0], 1)


class TestClamp:
    @pytest.mark.parametrize(
        "b, eps, expected",
        [(5.0, 0.01, 5.0), (0.0, 0.01, 0.01), (-0.004, 0.01, -0.01), (0.004, 0.01, 0.01), (-5.0, 0.01, -5.0)],
    )
    def test_examples(self, b, eps, expected):
        assert clamp_bias_constant(b, eps) == expected

    @given(st.floats(-1e6, 1e6), st.floats(1e-8, 10.0))
    def test_magnitude_floor_and_sign(self, b, eps):
        out = clamp_bias_constant(b, eps)
        assert abs(out) >= eps
        if b >= 0:
            assert out > 0
        else:
            assert out < 0
        if abs(b) >= eps:
            assert out == b

    def test_floor_scales_with_intercept(self):
        assert clamp_floor(0.5, 1e-4) == 1e-4
        assert clamp_floor(-30.0, 1e-4) == pytest.approx(3e-3)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            clamp_bias_constant(1.0, 0.0)


def brute_force_diagnostics(c):
    """Independent path: residual of regressing v on {1, c^2} via lstsq."""
    c = np.abs(np.asarray(c, dtype=float))
    X = np.column_stack([np.ones(c.size), c * c])

    def residual(v):
        coef, *_ = np.linalg.lstsq(X, v, rcond=None)
        return v - X @ coef

    lam = float(residual(c) @ c**4)
    q = float(np.sum((residual(c) / c) ** 2))
    return lam, q


class TestProjection:
    def test_two_coefficients_project_to_zero(self):
        d = projection_diagnostics([1.0, 2.0])
        np.testing.assert_allclose(d.residual_projector, 0.0, atol=1e-12)
        assert abs(d.bias_shift) < 1e-12 and abs(d.variance_factor) < 1e-24

    def test_matches_brute_force_path(self):
        c = np.array([1.0, 2.0, 3.0])
        lam, q = brute_force_diagnostics(c)
        d = projection_diagnostics(c)
        assert d.bias_shift == pytest.approx(lam, abs=1e-10)
        assert d.variance_factor == pytest.approx(q, abs=1e-10)

    def test_invariants_on_random_coefficients(self):
        rng = stream(1)
        for _ in range(50):
            c = rng.uniform(0.1, 5.0, size=rng.integers(3, 12))
            c[0], c[1] = c[0], c[0] + 1.0  # keep squares distinct
            d = projection_diagnostics(c)
            P = d.residual_projector
            assert np.max(np.abs(P @ P - P)) <= 1e-10
            assert np.max(np.abs(P - P.T)) <= 1e-10
            assert np.max(np.abs(P @ np.ones(c.size))) <= 1e-10
            assert np.max(np.abs(P @ (c * c))) <= 1e-9
            assert d.variance_factor >= 0

    def test_bounded_spread_gives_variance_reduction(self):
        rng = stream(2)
        for _ in range(200):
            K = int(rng.integers(3, 15))
            lo = rng.uniform(0.1, 3.0)
            c = rng.uniform(lo, lo * np.sqrt(2) * 0.999, size=K)
            if np.unique(np.round(c * c, 12)).size < K:
                continue
            assert projection_diagnostics(c).variance_factor <= K

    def test_rank_deficient_design_rejected(self):
        # A duplicated coefficient keeps the design rank 2; only an
        # all-coincident set collapses it.
        assert projection_diagnostics([1.0, 1.0, 2.0]).variance_factor >= 0
        with pytest.raises(SingularDesignError):
            projection_diagnostics([1.5, 1.5, 1.5])
        with pytest.raises(ValueError):
            projection_diagnostics([0.5])


class TestTheoryConstants:
    def test_two_point_slope_bias_reduces_to_square_sum(self):
        # Algebraic simplification checked numerically: (2*65-5*17)/(2*17-25) = 5.
        tc = theory_constants([1.0, 2.0], 1.0, 0.0)
        assert tc.slope_bias == pytest.approx(5.0, rel=1e-12)
        rng = stream(3)
        for _ in range(20):
            a, b = rng.uniform(0.2, 3.0, 2)
            if abs(a - b) < 1e-3:
                continue
            tc = theory_constants([a, b], 1.0, 0.0)
            assert tc.slope_bias == pytest.approx(a * a + b * b, rel=1e-9)

    def test_linear_in_fifth_const(self):
        c = [1.0, 2.0, 3.5]
        assert theory_constants(c, 0.0, 1.0).slope_bias == 0.0
        assert theory_constants(c, 2.0, 0.0).slope_bias == pytest.approx(
            2 * theory_constants(c, 1.0, 0.0).slope_bias, rel=1e-12
        )

    def test_noise_bias_zero_when_slope_zero(self):
        assert theory_constants([1.0, 2.0], 1.0, 0.0).noise_bias == 0.0
        assert theory_constants([1.0, 2.0], 1.0, 2.0).noise_bias > 0

    def test_noise_var_coeff_direct_arithmetic(self):
        inv4 = 1 + 1 / 16
        inv8 = 1 + 1 / 256
        tc = theory_constants([1.0, 2.0], 1.0, 0.0)
        assert tc.noise_var_coeff == pytest.approx(inv8 / inv4**2, rel=1e-12)

    def test_collinear_design_rejected(self):
        with pytest.raises(SingularDesignError):
            theory_constants([1.5, 1.5, 1.5], 1.0, 0.0)


@pytest.mark.parametrize("eps, accepted", [(1e-9, False), (1e-7, False), (1e-5, True)])
def test_fit_and_diagnostics_share_one_verdict(eps, accepted):
    # Equal-weight relative spread of c^2 is about (8/3) eps^2, against a
    # threshold of 1e-12.
    c = 1.5 * np.array([1.0, 1.0 + eps, 1.0 + 2.0 * eps])
    verdicts = [
        accepts(projection_diagnostics, c),
        accepts(theory_constants, c, 1.0, 0.0),
        accepts(fit_bias_wls, c, 2.0 + 3.0 * c * c, np.ones(3)),
    ]
    assert verdicts == [accepted] * 3


@pytest.mark.parametrize("diagnostic, c", [
    (projection_diagnostics, [1e200, 2e200]),
    (projection_diagnostics, [1e100, 2e100, 3e100]),
    (lambda c: theory_constants(c, 1.0, 0.0), [1e-60, 2e-60, 3e-60]),
    (lambda c: theory_constants(c, 1.0, 0.0), [1e60, 2e60, 3e60]),
    (lambda c: theory_constants(c, 1.0, 0.0), [1e40, 2e40, 3e40]),
], ids=["projection-1e200", "projection-1e100", "theory-1e-60", "theory-1e60", "theory-1e40"])
def test_diagnostics_outside_the_float_range_name_the_coefficients(diagnostic, c):
    # Well spread, but powers of c (numpy) or the moment sums (Python
    # floats) leave the float range: one ValueError, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"coefficients {c} leave the float range of the diagnostics: ")) as info:
            diagnostic(np.array(c))
    assert isinstance(info.value.__cause__, ArithmeticError)


class TestMonteCarloConsistency:
    """Sampling moments of the fitted constants against their closed forms.

    Light-weight version (the acceptance suite runs the full-scale check):
    exact resampling moments, equal weights, fixed coefficients, unit-noise
    Gaussian columns generated directly from the difference-sample law.
    """

    def test_slope_estimator_moments(self):
        c = np.array([1.0, 1.6, 2.3, 3.1, 4.0])
        D, sigma2, n_b, reps = 0.1, 1.0, 200, 3000
        tc = theory_constants(c, D, 0.0)
        h = c * n_b ** (-0.1)
        rng = stream(4)
        slopes = np.empty(reps)
        truth_means = -6.0 + (-2.5) * h * h + D * h**4
        for i in range(reps):
            cols = truth_means[:, None] + np.sqrt(sigma2) / (2 * h[:, None]) * np.sqrt(2) * rng.standard_normal((c.size, n_b))
            means = cols.mean(axis=1)
            slopes[i] = fit_bias_wls(h, means, np.ones(c.size)).slope
        bias_pred = tc.slope_bias * n_b ** (-0.2)
        var_pred = tc.slope_var * sigma2 / (2 * n_b ** (1 - 0.6))
        assert slopes.mean() + 2.5 == pytest.approx(bias_pred, rel=0.5)
        assert slopes.var(ddof=1) == pytest.approx(var_pred, rel=0.25)
