import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import norm, truncnorm

import corfd
from corfd import sampling
from corfd.dfo import DfoConfig, corcfd_lbfgs, gradient_via_corcfd
from corfd.estimators import EstimatorConfig, _pilot_stage, boot_cfd, cor_cfd
from corfd.oracle import parse_problem, poly_oracle, sin_oracle
from corfd.sampling import (
    DegenerateRegionError,
    PerturbationGenerator,
    Streams,
    _generate_state,
    _ndtr,
    _ndtri,
    difference_samples,
    draw_perturbation_set,
    spawn,
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


ENTROPIES = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**96, 2**128 - 1),  # the size of SeedSequence().entropy
    st.integers(2**128, 2**300),
    st.lists(st.integers(0, 2**70), max_size=12),
)


def first_draws(generators):
    return [g.random() for g in generators]


class TestStreams:
    """A derived level equals what numpy's ``SeedSequence.spawn`` makes."""

    @settings(max_examples=150, deadline=None)
    @given(
        entropy=ENTROPIES,
        spawn_key=st.lists(st.integers(0, 2**40), max_size=4),
        pool_size=st.sampled_from([4, 8]),
        spawned=st.integers(0, 1000),
        n=st.integers(1, 4),
    )
    def test_children_and_grandchildren_match_numpy(self, entropy, spawn_key, pool_size, spawned, n):
        def root():
            return np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key), pool_size=pool_size,
                                          n_children_spawned=spawned)

        level, seq = Streams.of([root()]), [root()]
        for width in (n, 2):
            level, seq = level.spawn(width), [g for s in seq for g in s.spawn(width)]
            np.testing.assert_array_equal(level.pools, [s.pool for s in seq])
            np.testing.assert_array_equal(
                _generate_state(level.pools, 4, np.uint64), [s.generate_state(4, np.uint64) for s in seq]
            )
            expected = [np.random.Generator(np.random.PCG64(s)) for s in seq]
            assert first_draws(level.generators()) == first_draws(expected)

    def test_spawn_counter_and_successive_spawns(self):
        seq = stream(3).bit_generator.seed_seq
        level = Streams.of([stream(3).bit_generator.seed_seq])
        for n in (2, 3):
            np.testing.assert_array_equal(level.spawn(n).pools, [s.pool for s in seq.spawn(n)])
            assert level.spawned == seq.n_children_spawned

    def test_derived_seeds_generate_any_state(self):
        (derived,) = Streams.of([stream(4).bit_generator.seed_seq]).spawn(1).generators()
        (child,) = stream(4).bit_generator.seed_seq.spawn(1)
        for n_words, dtype in [(3, np.uint32), (8, np.uint32), (2, np.uint64), (4, np.dtype(np.uint64))]:
            np.testing.assert_array_equal(
                derived.bit_generator.seed_seq.generate_state(n_words, dtype),
                child.generate_state(n_words, dtype),
            )
        with pytest.raises(ValueError, match="uint32 or uint64"):
            derived.bit_generator.seed_seq.generate_state(4, np.int64)

    def test_mixed_roots_in_one_level(self):
        # Roots with different numbers of entropy words, spawned for real
        # and then derived.
        def roots():
            return [np.random.SeedSequence(5),
                    np.random.SeedSequence([1, 2, 3, 4, 5, 6], spawn_key=(9,))]

        level = spawn(roots(), 1).spawn(2)
        real = [g for r in roots() for c in r.spawn(1) for g in c.spawn(2)]
        np.testing.assert_array_equal(level.pools, [s.pool for s in real])

    def test_level_must_share_pool_size_and_count(self):
        with pytest.raises(ValueError, match="share a pool size"):
            Streams.of([np.random.SeedSequence(1), np.random.SeedSequence(1, pool_size=8)])
        with pytest.raises(ValueError, match="share a pool size"):
            Streams.of([np.random.SeedSequence(1), np.random.SeedSequence(1, n_children_spawned=1)])

    def test_counter_past_uint32_is_refused(self):
        # numpy's counter is a uint32: 2**32 - 1 children at most.
        level = Streams.of([np.random.SeedSequence(1, n_children_spawned=2**32 - 3)])
        level.spawn(2)
        with pytest.raises(OverflowError):
            level.spawn(1)

    def test_derived_generators_do_not_spawn(self):
        (derived,) = spawn(stream(5), 1).generators()
        with pytest.raises(TypeError, match="seeded by a SeedSequence"):
            spawn(derived, 2)
        with pytest.raises(TypeError):
            derived.spawn(2)

    def test_import_leaves_numpy_random_unloaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(corfd.__file__)))
        code = "import corfd, corfd.cli, sys; assert 'numpy.random' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestCallerSpawnCounter:
    """Public entry points advance the caller's generator as ``rng.spawn``
    would, and only by the children they take."""

    def test_two_cor_calls_on_one_generator(self):
        sin1 = parse_problem("sin1")
        cfg = EstimatorConfig(pilot_fraction=0.5)
        rng = stream(21)
        first = cor_cfd(sin1.oracle, sin1.theta0, 0, 100, cfg, rng)
        assert rng.bit_generator.seed_seq.n_children_spawned == 2
        second = cor_cfd(sin1.oracle, sin1.theta0, 0, 100, cfg, rng)
        assert rng.bit_generator.seed_seq.n_children_spawned == 4
        assert first.value != second.value
        # The second call runs on children 2 and 3, as a generator that has
        # already spawned two children gives them.
        seq = stream(21).bit_generator.seed_seq
        resumed = np.random.default_rng(
            np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key, n_children_spawned=2)
        )
        assert cor_cfd(sin1.oracle, sin1.theta0, 0, 100, cfg, resumed) == second

    def test_entry_point_counters(self):
        zak = parse_problem("zakharov@3")
        cfg = EstimatorConfig(K=5, pilot_fraction=0.5)
        runs = [
            (lambda r: cor_cfd(zak.oracle, zak.theta0, 0, 40, cfg, r), 2),
            (lambda r: cor_cfd(zak.oracle, zak.theta0, range(3), 40, cfg, [r, stream(1), stream(2)]), 2),
            (lambda r: boot_cfd(zak.oracle, zak.theta0, 1, 40, cfg, r), 2),
            (lambda r: gradient_via_corcfd(zak.oracle, zak.theta0, 20, EstimatorConfig(K=5), r), 3),
            (lambda r: corcfd_lbfgs(zak.oracle, zak.theta0, DfoConfig(budget=500), r), 2),
            (lambda r: corcfd_lbfgs(zak.oracle, zak.theta0,
                                    DfoConfig(budget=500, gradient_method="tra"), r), 2),
        ]
        for run, children in runs:
            rng = stream(22)
            run(rng)
            assert rng.bit_generator.seed_seq.n_children_spawned == children


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
        # An interval without mass is rejected when the generator is built.
        with pytest.raises(DegenerateRegionError, match=r"\[40, 41\]"):
            PerturbationGenerator(0, 1, 40, 41)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            PerturbationGenerator(0, 1, -1.0, 2.0)
        with pytest.raises(ValueError):
            PerturbationGenerator(0, 1, 2.0, 1.0)
        with pytest.raises(ValueError):
            PerturbationGenerator(0, 0.0, 0.1, 1.0)


# Generators whose draws take the inverse-CDF path: intervals above mu0
# (computed in the mirrored frame), below it, and deep in either tail.
INVERSE_CDF_GENERATORS = [
    PerturbationGenerator(0.0, 1.0, 3.5, 4.0),
    PerturbationGenerator(0.0, 1.0, 0.5, 0.7),
    PerturbationGenerator(0.0, 1.0, 7.0),
    PerturbationGenerator(3.0, 0.5, 0.1, 1.5),
    PerturbationGenerator(10.0, 1.0, 0.1, 5.0),
]

# The first 50 coefficients of the default generator on stream(0), as the
# scipy-based implementation drew them.
DEFAULT_FIRST_50 = [
    0.1257302210933933, 0.4116305363741328, 0.5408455846858077,
    1.801634869866125, 0.3289696294602021, 0.18851919251246557,
    0.16100957671534466, 0.20211439504395987, 0.26841707970891465,
    0.3194142202523809, 0.513052133880305, 1.028854347803183,
    1.0868307847683634, 1.377950952722521, 1.3604462024852575,
    1.2969153998005238, 0.16324400572267767, 1.4223785052484463,
    0.7323017147112972, 0.2606297490669398, 0.3479017619704715,
    0.3203611893741035, 1.4748226520869099, 0.8112544049416356,
    0.36746620574561295, 0.5835341273827435, 0.7698208513207979,
    0.9544222763812404, 0.5629825823255228, 1.0680774398324595,
    0.5470956613393337, 0.6650660656292455, 1.2978717611819932,
    1.449259685131458, 0.8060195271707506, 0.13820030314832132,
    1.3319413685305603, 0.6520108635265922, 0.2613508456100389,
    0.6081170867893684, 0.3148209696175649, 0.7480832128709275,
    0.33111601905536314, 0.48124581925008575, 0.14367020328433938,
    0.4407067447635609, 1.2193545887326338, 1.375445311670887,
    0.5312724005304282, 0.7079555234674223,
]


class TestNormalFunctions:
    """The standard-library normal CDF and quantile against scipy's."""

    def test_cdf_matches_scipy_into_the_lower_tail(self):
        z = np.concatenate([np.linspace(-37.0, 8.0, 4501), [-5.0, -10.0, -30.0]])
        got = np.array([_ndtr(v) for v in z.tolist()])
        np.testing.assert_allclose(got, ndtr(z), rtol=1e-12, atol=0)

    def test_quantile_matches_scipy(self):
        p = np.concatenate([np.logspace(-300, -1, 600), np.linspace(0.05, 0.95, 91)])
        got = np.array([_ndtri(v) for v in p.tolist()])
        np.testing.assert_allclose(got, ndtri(p), rtol=1e-14, atol=0)

    def test_quantile_ends_are_infinite(self):
        assert _ndtri(0.0) == -np.inf and _ndtri(1.0) == np.inf

    @pytest.mark.parametrize("gen", INVERSE_CDF_GENERATORS + [PerturbationGenerator()])
    def test_acceptance_probability_matches_scipy(self, gen):
        alpha = (gen.lower - gen.mu0) / gen.sigma0
        beta = (gen.upper - gen.mu0) / gen.sigma0
        # scipy's ndtr is precise in its lower tail: take the tail the mass lies in.
        expected = ndtr(-alpha) - ndtr(-beta) if alpha > 0 else ndtr(beta) - ndtr(alpha)
        assert gen.acceptance_probability == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("gen", INVERSE_CDF_GENERATORS)
    def test_inverse_cdf_draws_match_scipy(self, gen):
        assert gen.acceptance_probability < 0.1
        got = gen.sample(stream(13), 2000)
        u = stream(13).random(2000)
        alpha = (gen.lower - gen.mu0) / gen.sigma0
        beta = (gen.upper - gen.mu0) / gen.sigma0
        if alpha > 0:
            qa, qb = ndtr(-alpha), ndtr(-beta)
            z = -ndtri(qa - (qa - qb) * u)
        else:
            pa, pb = ndtr(alpha), ndtr(beta)
            z = ndtri(pa + (pb - pa) * u)
        expected = np.clip(gen.mu0 + gen.sigma0 * z, gen.lower, gen.upper)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)

    def test_default_coefficients_unchanged(self):
        got = PerturbationGenerator().sample(stream(0), 50)
        np.testing.assert_array_equal(got, DEFAULT_FIRST_50)

    def test_far_right_tail_draws_are_finite_and_spread(self):
        gen = PerturbationGenerator(lower=7.0)
        x = gen.sample(np.random.default_rng(0), size=200_000)
        assert np.all(np.isfinite(x)) and x.min() >= 7.0
        assert np.unique(x).size > 199_000
        se = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - truncnorm.mean(7.0, np.inf)) < 5 * se

    def test_cli_import_leaves_scipy_unloaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(corfd.__file__)))
        code = "import corfd.cli, sys; assert 'scipy' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestSuccessiveDraws:
    @pytest.mark.parametrize(
        "gen",
        [
            PerturbationGenerator(),
            PerturbationGenerator(0.0, 1.0, 1.2),  # rejection batches often hold no draw
            PerturbationGenerator(0.0, 1.0, 2.5),  # inverse-CDF branch
        ],
        ids=["default", "sparse-rejection", "inverse-cdf"],
    )
    def test_equal_to_one_call_at_a_time(self, gen):
        for seed in range(20):
            together, one_by_one = stream(11, seed), stream(11, seed)
            got = gen.sample(together, 12)
            expected = [gen.sample(one_by_one, 1)[0] for _ in range(12)]
            np.testing.assert_array_equal(got, expected)
            assert together.bit_generator.state == one_by_one.bit_generator.state

    @pytest.mark.parametrize(
        "gen", [PerturbationGenerator(), PerturbationGenerator(0.0, 1.0, 1.2)],
        ids=["default", "sparse-rejection"],
    )
    def test_chunked_draws_equal_one_call_at_a_time(self, gen, monkeypatch):
        # Chunks of 4 rows of 16 normals: 30 values cross several chunk
        # boundaries, with rows that hold no draw among them.
        monkeypatch.setattr(sampling, "_NORMALS_PER_CHUNK", 64)
        for seed in range(5):
            together, one_by_one = stream(13, seed), stream(13, seed)
            got = gen.sample(together, 30)
            expected = [gen.sample(one_by_one, 1)[0] for _ in range(30)]
            np.testing.assert_array_equal(got, expected)
            assert together.bit_generator.state == one_by_one.bit_generator.state

    def test_draws_across_the_default_chunk_boundary(self):
        gen = PerturbationGenerator()
        size = sampling._NORMALS_PER_CHUNK // 16 + 5
        together, one_by_one = stream(14), stream(14)
        got = gen.sample(together, size)
        np.testing.assert_array_equal(got, [gen.sample(one_by_one, 1)[0] for _ in range(size)])
        assert together.bit_generator.state == one_by_one.bit_generator.state

    def test_perturbation_set_with_ties_matches_one_at_a_time_draws(self):
        # Squares within 1e-6 of each other tie, so this sliver forces redraws.
        gen = PerturbationGenerator(0.0, 1.0, 1.0, 1.000003)
        for seed in range(10):
            rng = stream(12, seed)
            accepted = []
            while len(accepted) < 4:
                c = gen.sample(rng, 1)[0]
                if all(abs(c * c - a * a) > 1e-6 * max(c * c, a * a) for a in accepted):
                    accepted.append(c)
            np.testing.assert_array_equal(draw_perturbation_set(4, gen, stream(12, seed)), accepted)


def pilot_perturbations(cfg, n, seed):
    """The pilot perturbations ``h`` (K,) of one coordinate's pilot stage on
    ``stream(seed)``, and the coefficients drawn from its coefficient stream."""
    stage = _pilot_stage(poly_oracle(), [0.0], [0], n, cfg, [stream(seed)], n)
    coeff_rng = stream(seed).spawn(3)[0]
    return stage.h[0], draw_perturbation_set(cfg.K, cfg.coeff_gen, coeff_rng)


class TestPerturbationSet:
    def test_scaling_and_distinctness(self):
        h, c = pilot_perturbations(EstimatorConfig(K=10, pilot_size=100), 1000, 6)
        assert c.size == 10 and np.all(c >= 0.1)
        # 100**(-1/10) = 10**(-1/5), evaluated directly
        np.testing.assert_allclose(h, c * 10 ** (-0.2), rtol=1e-15)
        c2 = np.sort(c * c)
        assert np.all(np.diff(c2) > 1e-6 * c2[1:])

    # The pilot draw takes K and n_b from EstimatorConfig, their one check.
    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="K must be >= 2"):
            EstimatorConfig(K=1)

    def test_pilot_size_below_two_rejected(self):
        with pytest.raises(ValueError, match=r"pilot_size \(n_b\) must be >= 2"):
            EstimatorConfig(pilot_size=1)

    def test_fixed_seed_reproduces(self):
        gen = PerturbationGenerator()
        a = draw_perturbation_set(10, gen, stream(8))
        b = draw_perturbation_set(10, gen, stream(8))
        np.testing.assert_array_equal(a, b)

    def test_near_degenerate_generator_errors_out(self):
        gen = PerturbationGenerator(5, 1e-13, 4, 6)
        with pytest.raises(DegenerateRegionError, match="degenerate"):
            draw_perturbation_set(3, gen, stream(9))

    def test_custom_exponent(self):
        cfg = EstimatorConfig(K=4, pilot_size=100, pilot_exponent=-1.0 / 6)
        h, c = pilot_perturbations(cfg, 400, 10)
        np.testing.assert_allclose(h, c * 100 ** (-1.0 / 6), rtol=1e-15)


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
