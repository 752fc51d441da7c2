import itertools

import numpy as np
import pytest

from corfd.bootstrap import column_moments
from corfd.sampling import stream
from helpers import exact_moments


def enumerate_resample_moments(column):
    """Brute-force oracle: iterate every with-replacement resample."""
    col = np.asarray(column, dtype=float)
    n = col.size
    means = [np.mean([col[i] for i in draw]) for draw in itertools.product(range(n), repeat=n)]
    means = np.asarray(means)
    return means.mean(), means.var(ddof=0)


def moments(column, I=None, rng=None):
    """(mean, variance) of one column, as a one-row pilot: the closed form,
    or the Monte Carlo estimate over ``I`` resamples."""
    (mean,), (variance,) = column_moments(np.asarray(column, dtype=float)[None, :], I, [rng])
    return mean, variance


class TestExact:
    @pytest.mark.parametrize("column", [[0.0, 2.0], [1.0, 2.0, 3.0], [0.5, -1.5, 2.0, 4.0]])
    def test_matches_enumeration(self, column):
        mean, var = enumerate_resample_moments(column)
        m_mean, m_var = moments(column)
        assert m_mean == pytest.approx(mean, abs=1e-12)
        assert m_var == pytest.approx(var, abs=1e-12)

    def test_two_point_column_closed_form(self):
        # Enumeration: resampled means {0, 1, 2} with probs {1/4, 1/2, 1/4},
        # so the variance is 0.5 = (n-1) * S^2 / n^2 = 1 * 2 / 4.
        mean, var = enumerate_resample_moments([0.0, 2.0])
        assert (mean, var) == (1.0, 0.5)
        assert moments([0.0, 2.0]) == (1.0, 0.5)

    def test_three_point_column(self):
        mean, var = moments([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0, abs=1e-15)
        assert var == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_constant_column(self):
        assert moments([7.0] * 5) == (7.0, 0.0)

    def test_affine_equivariance(self):
        col = stream(0).standard_normal(30)
        base_mean, base_var = moments(col)
        scaled_mean, scaled_var = moments(2 * col)
        assert scaled_mean == pytest.approx(2 * base_mean, rel=1e-12)
        assert scaled_var == pytest.approx(4 * base_var, rel=1e-12)

    def test_short_column_rejected(self):
        with pytest.raises(ValueError):
            moments([1.0])


class TestMonteCarlo:
    def test_constant_column(self):
        assert moments([5.0, 5.0, 5.0], 64, stream(1)) == (5.0, 0.0)

    def test_two_point_column_converges_to_enumeration(self):
        I = 200_000
        mean, variance = moments([0.0, 2.0], I, stream(2))
        se_mean = np.sqrt(0.5 / I)
        assert abs(mean - 1.0) < 3 * se_mean
        assert variance == pytest.approx(0.5, rel=0.02)

    def test_fixed_seed_reproduces(self):
        col = stream(3).standard_normal(20)
        assert moments(col, 100, stream(4)) == moments(col, 100, stream(4))

    def test_mean_within_five_se_of_exact(self):
        # Resampled-average mean equals the column mean exactly in
        # expectation; the Monte Carlo version converges at I**-1/2.
        I = 1000
        failures = 0
        for seed in range(100):
            col = stream(5, seed).standard_normal(25)
            exact_mean, exact_var = moments(col)
            mean, _ = moments(col, I, stream(6, seed))
            if abs(mean - exact_mean) > 5 * np.sqrt(exact_var / I):
                failures += 1
        assert failures <= 1  # >= 99% of seeded trials

    def test_variance_relative_error_at_thousand_resamples(self):
        I = 1000
        failures = 0
        for seed in range(100):
            col = stream(7, seed).standard_normal(20)
            _, exact_var = moments(col)
            _, variance = moments(col, I, stream(8, seed))
            if abs(variance - exact_var) > 0.20 * exact_var:
                failures += 1
        assert failures <= 1

    def test_variance_divides_by_resample_count(self):
        # The same index block drawn by hand from the same stream gives the
        # resampled means; their variance about their mean divides by I, not
        # I - 1, which at I = 3 would be 1.5 times larger.
        col = np.array([0.0, 1.0, 4.0, 9.0])
        I = 3
        indices = stream(15).integers(0, col.size, size=(I, col.size), dtype=np.int32)
        resampled = col[indices].mean(axis=1)
        by_hand = ((resampled - resampled.mean()) ** 2).sum() / I
        mean, variance = moments(col, I, stream(15))
        assert by_hand > 0
        assert mean == pytest.approx(resampled.mean(), rel=1e-12)
        assert variance == pytest.approx(by_hand, rel=1e-12)

    def test_small_replicate_count_rejected(self):
        with pytest.raises(ValueError):
            moments([0.0, 1.0], 1, stream(9))


class TestColumnMoments:
    def test_exact_mode_matches_per_column(self):
        # The one-pass closed form performs the per-column arithmetic, so the
        # results are bit-equal, not merely close.
        rng = stream(10)
        for K, n_b in [(1, 2), (4, 15), (10, 3), (5, 200), (20, 1000), (3, 4097)]:
            scale = 10.0 ** rng.uniform(-6, 6)
            pilot = rng.uniform(-1e3, 1e3) + scale * rng.standard_normal((K, n_b))
            means, variances = column_moments(pilot, None, None)
            for k in range(K):
                assert (means[k], variances[k]) == exact_moments(pilot[k])

    def test_short_columns_rejected(self):
        for reps in (None, 10):
            with pytest.raises(ValueError, match="at least 2 samples"):
                column_moments(np.zeros((3, 1)), reps, stream(14))

    def test_mc_mode_deterministic(self):
        pilot = stream(11).standard_normal((3, 10))
        a = column_moments(pilot, 200, [stream(12)])
        b = column_moments(pilot, 200, [stream(12)])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_bad_mode_rejected(self):
        pilot = np.zeros((2, 5))
        with pytest.raises(ValueError, match="I >= 2"):
            column_moments(pilot, 1, stream(13))
        with pytest.raises(ValueError):
            column_moments(pilot, 10, None)
        with pytest.raises(ValueError):
            column_moments(np.zeros(5), None, None)
