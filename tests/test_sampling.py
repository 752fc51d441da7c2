import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from corfd.oracle import poly_oracle, sin_oracle
from corfd.sampling import (
    DegenerateRegionError,
    PerturbationGenerator,
    difference_samples,
    draw_perturbation_set,
    stream,
)
from helpers import deterministic_oracle


class TestStream:
    def test_same_address_same_sequence(self):
        a = stream(7, 1, 2).standard_normal(8)
        b = stream(7, 1, 2).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_ids_differ(self):
        a = stream(7, 1).standard_normal(8)
        b = stream(7, 2).standard_normal(8)
        assert not np.allclose(a, b)


class TestTruncatedNormal:
    def test_draws_respect_lower_bound(self):
        gen = PerturbationGenerator(0, 1, 0.1, np.inf)
        x = gen.sample(stream(0), 100_000)
        assert x.min() >= 0.1

    def test_symmetric_truncation_mean(self):
        gen = PerturbationGenerator(5, 1, 4, 6)
        x = gen.sample(stream(1), 1_000_000)
        assert abs(x.mean() - 5) < 0.01

    def test_one_sided_mean_matches_closed_form(self):
        # Independent oracle: mean of a lower-truncated normal is
        # mu + sigma * phi(a) / (1 - Phi(a)) with a the standardized bound.
        a = 0.1
        expected = norm.pdf(a) / norm.sf(a)
        assert abs(expected - 0.8626) < 5e-4  # value computed before build
        gen = PerturbationGenerator(0, 1, 0.1, np.inf)
        x = gen.sample(stream(2), 1_000_000)
        se = x.std(ddof=1) / 1000.0
        assert abs(x.mean() - expected) < 4 * se

    def test_inverse_cdf_branch_tail_interval(self):
        gen = PerturbationGenerator(0, 1, 3.5, 4.0)
        assert gen.acceptance_probability < 0.1  # forces the inverse-CDF path
        x = gen.sample(stream(3), 200_000)
        assert x.min() >= 3.5 and x.max() <= 4.0
        # Independent oracle: truncated mean by quadrature.
        mass = norm.cdf(4.0) - norm.cdf(3.5)
        expected, _ = quad(lambda t: t * norm.pdf(t) / mass, 3.5, 4.0)
        assert abs(x.mean() - expected) < 4 * x.std(ddof=1) / np.sqrt(x.size)

    def test_degenerate_region_raises(self):
        gen = PerturbationGenerator(0, 1, 40, 41)
        with pytest.raises(DegenerateRegionError):
            gen.sample(stream(4))

    def test_scalar_draw(self):
        gen = PerturbationGenerator(0, 1, 0.1, np.inf)
        v = gen.sample(stream(5))
        assert isinstance(v, float) and v >= 0.1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            PerturbationGenerator(0, 1, -1.0, 2.0)
        with pytest.raises(ValueError):
            PerturbationGenerator(0, 1, 2.0, 1.0)
        with pytest.raises(ValueError):
            PerturbationGenerator(0, 0.0, 0.1, 1.0)


class TestPerturbationSet:
    def test_scaling_and_distinctness(self):
        gen = PerturbationGenerator()
        pert = draw_perturbation_set(10, 100, gen, stream(6))
        c, h = pert.coefficients, pert.perturbations
        assert c.size == 10 and np.all(c >= 0.1)
        # 100**(-1/10) = 10**(-1/5), evaluated directly
        np.testing.assert_allclose(h, c * 10 ** (-0.2), rtol=1e-15)
        c2 = np.sort(c * c)
        assert np.all(np.diff(c2) > 1e-6 * c2[1:])

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            draw_perturbation_set(1, 100, PerturbationGenerator(), stream(7))

    def test_pilot_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            draw_perturbation_set(5, 1, PerturbationGenerator(), stream(7))

    def test_fixed_seed_reproduces(self):
        gen = PerturbationGenerator()
        a = draw_perturbation_set(10, 50, gen, stream(8))
        b = draw_perturbation_set(10, 50, gen, stream(8))
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        np.testing.assert_array_equal(a.perturbations, b.perturbations)

    def test_near_degenerate_generator_errors_out(self):
        gen = PerturbationGenerator(5, 1e-13, 4, 6)
        with pytest.raises(DegenerateRegionError, match="degenerate"):
            draw_perturbation_set(3, 10, gen, stream(9))

    def test_custom_exponent(self):
        pert = draw_perturbation_set(4, 100, PerturbationGenerator(), stream(10), exponent=-1.0 / 6)
        np.testing.assert_allclose(
            pert.perturbations, pert.coefficients * 100 ** (-1.0 / 6), rtol=1e-15
        )


class TestDifferenceSample:
    def test_cubic_noise_free(self):
        cube = deterministic_oracle(lambda t: float(t[0]) ** 3)
        d = difference_samples(cube, [0.0], 0, 0.5, stream(0), 1)[0]
        assert d == pytest.approx(0.25, abs=1e-15)

    def test_poly_surrogate_value(self):
        # Independent oracle: evaluate the mean response at +/-0.2 directly.
        orc = poly_oracle()
        expected = (orc.mean([0.2]) - orc.mean([-0.2])) / 0.4
        assert expected == pytest.approx(-6.09984, abs=1e-12)
        noise_free = deterministic_oracle(lambda t: orc.mean(t))
        got = difference_samples(noise_free, [0.0], 0, 0.2, stream(1), 1)[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_sin_mean_matches_surrogate(self):
        orc = sin_oracle(10.0, 1)
        x = difference_samples(orc, [0.0], 0, 0.1, stream(2), 100_000)
        expected = 10.0 * np.sin(0.1) / 0.1
        assert expected == pytest.approx(9.98334, abs=1e-5)
        assert abs(x.mean() - expected) < 0.05

    def test_zero_perturbation_rejected(self):
        with pytest.raises(ValueError):
            difference_samples(poly_oracle(), [0.0], 0, 0.0, stream(3), 1)

    def test_unbiased_within_monte_carlo_band(self):
        orc = poly_oracle()
        h = 0.3
        x = difference_samples(orc, [1.0], 0, h, stream(4), 100_000)
        expected = (orc.mean([1.0 + h]) - orc.mean([1.0 - h])) / (2 * h)
        se = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - expected) < 4 * se

    def test_variance_scaling_homoscedastic(self):
        orc = sin_oracle(10.0, 1)
        h = 0.2
        x = difference_samples(orc, [0.0], 0, h, stream(5), 100_000)
        assert x.var(ddof=1) == pytest.approx(1 / (2 * h * h), rel=0.05)
        y = difference_samples(orc, [0.0], 0, h / 2, stream(6), 100_000)
        assert y.var(ddof=1) / x.var(ddof=1) == pytest.approx(4.0, rel=0.10)

    def test_heteroscedastic_variance(self):
        orc = sin_oracle(10.0, 2)
        h = 0.25
        x = difference_samples(orc, [0.0], 0, h, stream(7), 100_000)
        expected = (np.exp(-3 * h) + np.exp(3 * h)) / (4 * h * h)
        assert x.var(ddof=1) == pytest.approx(expected, rel=0.05)

    def test_coordinate_selection(self):
        quad2 = deterministic_oracle(lambda t: float(t[0] ** 2 + 10 * t[1] ** 2), dim=2)
        d0 = difference_samples(quad2, [1.0, 1.0], 0, 0.1, stream(8), 1)[0]
        d1 = difference_samples(quad2, [1.0, 1.0], 1, 0.1, stream(8), 1)[0]
        assert d0 == pytest.approx(2.0, abs=1e-12)
        assert d1 == pytest.approx(20.0, abs=1e-12)
