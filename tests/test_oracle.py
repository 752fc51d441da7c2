import dataclasses
import re

import numpy as np
import pytest

from corfd.dfo import stochastic_armijo
from corfd.estimators import EstimatorConfig, cor_cfd
from corfd.oracle import (
    GroundTruth,
    NonFiniteResponseError,
    QueueSpec,
    SimulationOracle,
    lr_derivative_oracle,
    noisy_bench_oracle,
    parse_problem,
    poly_oracle,
    queue_oracle,
    rosenbrock,
    sin_oracle,
    zakharov,
)
from corfd.oracle import _simulate_queue, draw_responses
from corfd.sampling import stream
from helpers import simulate_queue_loop


class TestSinOracle:
    def test_truth_at_origin(self):
        t = sin_oracle(10.0, 1).truth([0.0])
        assert (t.deriv, t.bias_const, t.noise_var) == (10.0, -10.0 / 6.0, 1.0)

    def test_mean_of_draws_at_origin(self):
        orc = sin_oracle(10.0, 1)
        x = orc.sample(np.zeros(1), stream(0), 1_000_000)
        assert abs(x.mean()) < 3e-3

    def test_heteroscedastic_variance_at_origin_is_one(self):
        orc = sin_oracle(10.0, 2)
        x = orc.sample(np.zeros(1), stream(1), 100_000)
        assert 0.97 < x.var(ddof=1) < 1.03

    def test_homoscedastic_variance_anywhere(self):
        orc = sin_oracle(10.0, 1)
        x = orc.sample(np.array([0.7]), stream(2), 100_000)
        assert 0.97 < x.var(ddof=1) < 1.03

    def test_heteroscedastic_variance_off_origin(self):
        orc = sin_oracle(10.0, 2)
        x = orc.sample(np.array([0.5]), stream(3), 200_000)
        assert x.var(ddof=1) == pytest.approx(np.exp(-1.5), rel=0.03)

    def test_zero_kappa_rejected(self):
        with pytest.raises(ValueError):
            sin_oracle(0.0)

    def test_kappa_whose_bias_constant_square_overflows_rejected(self):
        sin_oracle(8e154)
        with pytest.raises(ValueError, match="kappa is out of range"):
            sin_oracle(-9e154)


class TestPolyOracle:
    @pytest.mark.parametrize(
        "theta0, deriv, bias",
        [(0.0, -6.0, -2.5), (2.0, -6.0 + 24 - 30 + 8, 1.5), (3.0, -6 + 36 - 67.5 + 40.5, 6.5)],
    )
    def test_truth_values(self, theta0, deriv, bias):
        t = poly_oracle().truth([theta0])
        assert t.deriv == pytest.approx(deriv, abs=1e-12)
        assert t.bias_const == pytest.approx(bias, abs=1e-12)
        assert t.fifth_const == 0.1 and t.noise_var == 1.0

    def test_surrogate_bias_is_exactly_quadratic_plus_quartic(self):
        # Degree-5 mean: the difference surrogate has no Taylor remainder.
        orc = poly_oracle()
        truth = orc.truth([0.0])
        for h in np.arange(0.05, 1.0001, 0.05):
            surrogate = (orc.mean([h]) - orc.mean([-h])) / (2 * h)
            predicted = truth.deriv + truth.bias_const * h * h + truth.fifth_const * h**4
            assert abs(surrogate - predicted) <= 1e-12 * max(1.0, abs(predicted))


def per_point(oracle, points, seeds, size):
    """Reference for a block of points: one ``sample`` call per point, each
    from a fresh copy of its stream; rows naming the same seed share it."""
    rngs = {seed: stream(*seed) for seed in set(seeds)}
    return np.stack([oracle.sample(p, rngs[seed], size) for p, seed in zip(points, seeds)])


class TestSampleBatch:
    # Rows 0 and 1 share a stream, as the two sides of a difference pair do.
    SEEDS = [(40, 0), (40, 0), (40, 1), (40, 2), (40, 1)]

    @pytest.mark.parametrize("problem", ["queue@3,5,50,service"])
    def test_default_loop_equals_per_point_samples(self, problem):
        oracle = parse_problem(problem).oracle
        assert oracle.sample_rows is None
        points = np.array([[2.9], [3.1], [2.5], [3.5], [3.0]])
        rngs = {seed: stream(*seed) for seed in set(self.SEEDS)}
        got = draw_responses(oracle, points, [rngs[seed] for seed in self.SEEDS], 7)
        np.testing.assert_array_equal(got, per_point(oracle, points, self.SEEDS, 7))

    @pytest.mark.parametrize("problem, kappa", [("sin1", 10.0), ("sin2", 10.0), ("sin2", 3.0),
                                                ("poly", None)])
    def test_block_draws_equal_rng_normal(self, problem, kappa):
        # Row j draws loc + scale * z from the normals ``rng.normal(loc,
        # scale, size)`` takes, and leaves its generator where that call does.
        oracle = (parse_problem(problem) if kappa is None else parse_problem(problem, kappa)).oracle
        rng = stream(46)
        t = 10.0 ** rng.uniform(-3.0, np.log10(300.0), 200) * rng.choice([-1.0, 1.0], 200)
        if problem == "sin2":
            t = np.concatenate([t, np.linspace(-20.0, -1e-3, 50)])  # sd up to e^30
        seeds = [self.SEEDS[j % len(self.SEEDS)] for j in range(t.size)]
        rngs = {seed: stream(*seed) for seed in set(seeds)}
        got = draw_responses(oracle, t[:, None], [rngs[seed] for seed in seeds], 7)
        ref = {seed: stream(*seed) for seed in set(seeds)}
        want = [
            ref[seed].normal(oracle.mean([x]), np.exp(-1.5 * x) if problem == "sin2" else 1.0, 7)
            for x, seed in zip(t.tolist(), seeds)
        ]
        np.testing.assert_array_equal(got, want)
        for seed in rngs:
            assert rngs[seed].bit_generator.state == ref[seed].bit_generator.state

    @pytest.mark.parametrize("problem", ["poly", "sin2"])
    def test_blocks_draw_without_per_row_samples(self, problem):
        def refuse(theta, rng, size):
            raise AssertionError("a block drew one point at a time")

        oracle = parse_problem(problem).oracle
        blocks_only = dataclasses.replace(oracle, sample=refuse)
        points = np.array([[2.9], [3.1], [2.5], [3.5], [3.0]])
        rngs = {seed: stream(*seed) for seed in set(self.SEEDS)}
        got = draw_responses(blocks_only, points, [rngs[seed] for seed in self.SEEDS], 7)
        np.testing.assert_array_equal(got, per_point(oracle, points, self.SEEDS, 7))

    @pytest.mark.parametrize("fn, d", [("zakharov", 10), ("zakharov", 100), ("rosenbrock", 2)])
    def test_vectorized_rows_equal_per_point_samples(self, fn, d):
        oracle = noisy_bench_oracle(fn, d)
        points = stream(41).normal(0.0, 2.0, size=(5, d))
        rngs = {seed: stream(*seed) for seed in set(self.SEEDS)}
        got = draw_responses(oracle, points, [rngs[seed] for seed in self.SEEDS], 7)
        # The one-point ``sample`` the line search calls is written apart from
        # ``sample_rows``; both must equal the mean plus the stream's normals.
        np.testing.assert_array_equal(got, per_point(oracle, points, self.SEEDS, 7))
        ref = {seed: stream(*seed) for seed in set(self.SEEDS)}
        want = [oracle.mean(p) + ref[s].standard_normal(7) for p, s in zip(points, self.SEEDS)]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [10, 100])
    def test_zakharov_rows_equal_the_scalar_function(self, d):
        rng = stream(42, d)
        points = rng.standard_normal((1000, d)) * rng.uniform(0.01, 100.0, size=(1000, 1))
        np.testing.assert_array_equal(zakharov(points), [zakharov(p) for p in points])

    def test_rosenbrock_rows_equal_the_scalar_function(self):
        points = stream(43).normal(0.0, 3.0, size=(1000, 2))
        np.testing.assert_array_equal(rosenbrock(points), [rosenbrock(p) for p in points])

    def test_non_finite_row_names_its_point(self):
        def sample(theta, rng, size):
            value = np.nan if theta[0] == 2.0 else float(theta[0])
            return np.full(size, value)

        oracle = SimulationOracle(dim=1, label="holey", sample=sample)
        points = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(NonFiniteResponseError,
                           match=r"^oracle holey returned a non-finite response at theta=\[2\.0\]$"):
            draw_responses(oracle, points, [stream(44)] * 3, 4)

    def test_overflow_is_a_non_finite_response(self):
        # poly's quintic term leaves the float range near 1.8e61, on both sides.
        oracle = poly_oracle()
        for far in (1e62, -1e62):
            points = np.array([[1.0], [far], [3.0]])
            for theta, rng in ((points, [stream(45)] * 3), (points[1], stream(45))):
                message = re.escape(f"at theta={[far]}") + "$"
                with pytest.raises(NonFiniteResponseError, match=message):
                    draw_responses(oracle, theta, rng, 4)

    @pytest.mark.parametrize("f, far", [(zakharov, 1e100), (rosenbrock, 1e200)])
    def test_benchmark_functions_overflow_to_infinity(self, f, far):
        # A power past the float range, where Python raises OverflowError.
        points = np.array([[1.0, 2.0], [far, 1.0], [-3.0, 0.5]])
        values = f(points)
        assert values[1] == np.inf and f(points[1]) == np.inf
        np.testing.assert_array_equal(values[[0, 2]], [f(points[0]), f(points[2])])


class TestBenchFunctions:
    def test_zakharov_values_at_ones(self):
        assert zakharov(np.ones(1)) == pytest.approx(1.3125, abs=1e-12)
        # Independent arithmetic: sum x^2 = 10, weighted sum = 27.5.
        exact = 10 + 27.5**2 + 27.5**4
        assert zakharov(np.ones(10)) == pytest.approx(exact, abs=1e-6)
        # The published rounding keeps the quartic term only.
        assert abs(exact - 5.7191e5) / 5.7191e5 < 2e-3

    def test_rosenbrock_minimum(self):
        orc = noisy_bench_oracle("rosenbrock", 2)
        assert orc.mean(np.ones(2)) == 0.0
        np.testing.assert_array_equal(orc.argmin, np.ones(2))

    def test_noise_is_unit_gaussian(self):
        orc = noisy_bench_oracle("zakharov", 3)
        x = orc.sample(np.zeros(3), stream(4), 100_000)
        assert abs(x.mean()) < 0.02 and x.var(ddof=1) == pytest.approx(1.0, rel=0.03)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            noisy_bench_oracle("rosenbrock", 3)
        with pytest.raises(ValueError):
            noisy_bench_oracle("zakharov", 0)
        with pytest.raises(ValueError):
            noisy_bench_oracle("sphere", 2)


class TestQueueOracle:
    def test_single_customer_never_waits(self):
        orc = queue_oracle(QueueSpec(4, 4, 1), "service", measure="wait")
        x = orc.sample(np.array([4.0]), stream(5), 1000)
        np.testing.assert_array_equal(x, np.zeros(1000))

    def test_sojourn_single_customer_is_own_service(self):
        orc = queue_oracle(QueueSpec(4, 4, 1), "service", measure="sojourn")
        x = orc.sample(np.array([4.0]), stream(6), 200_000)
        assert x.min() > 0
        assert x.mean() == pytest.approx(0.25, rel=0.02)  # Exp(4) mean

    def test_output_nonnegative(self):
        orc = queue_oracle(QueueSpec(4, 4, 10), "service")
        x = orc.sample(np.array([4.0]), stream(7), 10_000)
        assert x.min() >= 0

    def test_waits_pathwise_nondecreasing_in_arrival_rate(self):
        # Inverse-CDF draws + a shared stream give common random numbers:
        # faster arrivals shrink every interarrival, so waits can only grow.
        spec = QueueSpec(3, 4, 10)
        orc = queue_oracle(spec, "arrival", measure="wait")
        lo = orc.sample(np.array([3.0]), stream(8), 50_000)
        hi = orc.sample(np.array([4.0]), stream(8), 50_000)
        assert np.all(hi >= lo) and hi.mean() > lo.mean()

    def test_same_seed_reproduces(self):
        orc = queue_oracle(QueueSpec(4, 4, 10), "service")
        a = orc.sample(np.array([4.0]), stream(9), 100)
        b = orc.sample(np.array([4.0]), stream(9), 100)
        np.testing.assert_array_equal(a, b)

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(ValueError):
            QueueSpec(0.0, 4, 10)
        with pytest.raises(ValueError):
            QueueSpec(4, -1.0, 10)
        orc = queue_oracle(QueueSpec(4, 4, 10), "service")
        with pytest.raises(ValueError):
            orc.sample(np.array([0.0]), stream(10), 1)

    def test_invalid_selector_rejected(self):
        with pytest.raises(ValueError):
            queue_oracle(QueueSpec(4, 4, 10), "wait_time")
        with pytest.raises(ValueError):
            queue_oracle(QueueSpec(4, 4, 10), "service", measure="holding")


QUEUE_SHAPES = [(1, 50), (2, 50), (3, 50), (10, 50), (500, 50), (500, 1), (500, 7), (500, 300)]


class TestQueueKernel:
    """The closed-form walk against the per-customer recursion it replaces."""

    @pytest.mark.parametrize("measure", ["wait", "sojourn"])
    @pytest.mark.parametrize("lam,mu", [(3.0, 5.0), (5.0, 3.0)], ids=["stable", "growing"])
    @pytest.mark.parametrize("horizon,size", QUEUE_SHAPES,
                             ids=[f"N{n}x{m}" for n, m in QUEUE_SHAPES])
    def test_matches_per_customer_recursion(self, measure, lam, mu, horizon, size):
        # 300 paths at horizon 500 span three blocks of the walk.
        rng, ref_rng = stream(40), stream(40)
        response, arrivals, services = _simulate_queue(lam, mu, horizon, measure, rng, size)
        expected, ref_arrivals, ref_services = simulate_queue_loop(
            lam, mu, horizon, measure, ref_rng, size
        )
        np.testing.assert_allclose(response, expected, rtol=1e-12, atol=0)
        # Same draws in the same order, bit for bit, and the same stream left.
        np.testing.assert_array_equal(arrivals, ref_arrivals)
        np.testing.assert_array_equal(services, ref_services)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestLrDerivative:
    def test_fixed_seed_bit_reproducible(self):
        spec = QueueSpec(4, 4, 10)
        a = lr_derivative_oracle(spec, "service", 10, stream(11))
        b = lr_derivative_oracle(spec, "service", 10, stream(11))
        assert a == b

    def test_service_derivative_sign_and_scale(self):
        spec = QueueSpec(4, 4, 10)
        d = lr_derivative_oracle(spec, "service", 200_000, stream(12))
        assert -0.30 < d < -0.20  # full-precision check lives in acceptance

    def test_arrival_derivative_positive(self):
        spec = QueueSpec(4, 4, 10)
        d = lr_derivative_oracle(spec, "arrival", 200_000, stream(13))
        assert d > 0

    def test_matches_common_random_number_finite_difference(self):
        # Independent oracle: CRN central difference of the expected response.
        spec = QueueSpec(3, 5, 10)
        lr = lr_derivative_oracle(spec, "service", 400_000, stream(14))
        delta = 1e-3
        orc_hi = queue_oracle(QueueSpec(3, 5 + delta, 10), "service")
        orc_lo = queue_oracle(QueueSpec(3, 5 - delta, 10), "service")
        hi = orc_hi.sample(np.array([5 + delta]), stream(15), 2_000_000)
        lo = orc_lo.sample(np.array([5 - delta]), stream(15), 2_000_000)
        fd = (hi - lo).mean() / (2 * delta)
        assert lr == pytest.approx(fd, abs=0.004)

    def test_rep_validation(self):
        with pytest.raises(ValueError):
            lr_derivative_oracle(QueueSpec(4, 4, 10), "service", 0, stream(16))


class TestGroundTruth:
    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth(deriv=1.0, noise_var=0.0)

    def test_unavailable_fields_default_to_none(self):
        t = GroundTruth(deriv=2.0)
        assert t.bias_const is None and t.noise_var is None


class TestParseProblem:
    def test_ids_round_trip(self):
        assert parse_problem("sin1").truth.deriv == 10.0
        assert parse_problem("sin2").oracle.label == "sin2"
        p = parse_problem("poly@2")
        assert p.truth.bias_const == pytest.approx(1.5)
        assert parse_problem("rosenbrock").oracle.dim == 2
        assert parse_problem("zakharov@10").oracle.dim == 10
        q = parse_problem("queue@4,4,10,service")
        assert q.theta0[0] == 4.0 and q.truth is None
        qw = parse_problem("queue@4,4,10,service,wait")
        assert qw.oracle.label.endswith("wait")

    def test_bad_ids_rejected(self):
        for bad in ("sphere", "sin1@3", "queue@4,4,10", "rosenbrock@5"):
            with pytest.raises(ValueError):
                parse_problem(bad)

    @pytest.mark.parametrize("pid,message", [
        ("queue@3,5,nan,service", "problem id 'queue@3,5,nan,service': 'nan' is not a valid int"),
        ("queue@3,five,10,service", "problem id 'queue@3,five,10,service': 'five' is not a valid float"),
        ("zakharov@two", "problem id 'zakharov@two': 'two' is not a valid int"),
        ("poly@x", "problem id 'poly@x': 'x' is not a valid float"),
        ("poly@nan", "poly point must be finite, got 'poly@nan'"),
        ("poly@inf", "poly point must be finite, got 'poly@inf'"),
    ], ids=["queue_horizon", "queue_rate", "zakharov_dim", "poly_text", "poly_nan", "poly_inf"])
    def test_bad_numbers_name_the_id(self, pid, message):
        with pytest.raises(ValueError) as exc:
            parse_problem(pid)
        assert str(exc.value) == message


def nan_sampler(rate):
    """Unit-noise draws around ``theta[0]``, a share ``rate`` of them NaN."""

    def sample(theta, rng, size):
        y = rng.normal(float(theta[0]), 1.0, size)
        y[rng.random(size) < rate] = np.nan
        return y

    return sample


class TestNonFiniteResponses:
    def test_estimator_names_oracle_and_point(self):
        flaky = SimulationOracle(dim=1, label="flaky", sample=nan_sampler(0.01))
        with pytest.raises(NonFiniteResponseError,
                           match=r"^oracle flaky returned a non-finite response at theta=\[-?[0-9.e-]+\]$"):
            cor_cfd(flaky, [0.0], 0, 1000, EstimatorConfig(), stream(30))

    def test_line_search_names_oracle_and_point(self):
        orc = SimulationOracle(dim=1, label="flaky", sample=nan_sampler(1.0))
        with pytest.raises(NonFiniteResponseError,
                           match=r"^oracle flaky returned a non-finite response at theta=\[2\.0\]$"):
            stochastic_armijo(orc, np.array([2.0]), np.array([-1.0]), 1.0, 1.0, 1e-4, 0.5, 1.0, stream(31))
        # The CLI reports every ValueError as an error with exit code 1.
        assert issubclass(NonFiniteResponseError, ValueError)
