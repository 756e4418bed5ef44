import numpy as np
import pytest
from scipy import stats

from predcurves.rng import RngStream, labeled_generator
from predcurves.scenarios import ar_covariance, cholesky_t, sample_mvn, sample_noncentral_t

# median of the (Z + 1)/sqrt(V/3) construction, frozen from a 1e7-draw run
NCT_MEDIAN_DF3_NCP1 = 1.0916


class TestRngStream:
    def test_bitwise_determinism(self):
        a = RngStream(123, 7).generator().integers(0, 2**63, 1000)
        b = RngStream(123, 7).generator().integers(0, 2**63, 1000)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(8)
        b = RngStream(123, 1).generator().standard_normal(8)
        assert not np.allclose(a, b)

    def test_value_semantics(self):
        stream = RngStream(9, 2)
        x = sample_mvn(np.zeros(2), cholesky_t(np.eye(2)), stream.generator(), size=1)
        y = sample_mvn(np.zeros(2), cholesky_t(np.eye(2)), stream.generator(), size=1)
        np.testing.assert_array_equal(x, y)

    def test_labeled_generator_stable(self):
        a = labeled_generator(5, 3, "mu2").standard_normal(4)
        b = labeled_generator(5, 3, "mu2").standard_normal(4)
        c = labeled_generator(5, 3, "mu3").standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)


class TestSampleMvn:
    def test_identity_moments(self):
        gen = RngStream(2026, 0).generator()
        draws = sample_mvn(np.zeros(3), cholesky_t(np.eye(3)), gen, size=100_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)
        assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.03)

    def test_ar_covariance_target(self):
        cov = ar_covariance(2, 0.5)
        np.testing.assert_allclose(cov, [[0.5, 0.25], [0.25, 0.5]])
        gen = RngStream(2026, 1).generator()
        draws = sample_mvn(np.zeros(2), cholesky_t(cov), gen, size=100_000)
        sample_cov = np.cov(draws.T)
        assert np.max(np.abs(sample_cov - cov)) < 0.03

    def test_scalar_case(self):
        gen = RngStream(2026, 2).generator()
        draws = sample_mvn(np.zeros(1), cholesky_t(np.array([[4.0]])), gen, size=100_000)
        assert abs(draws.var() - 4.0) < 0.15

    def test_non_positive_definite_rejected(self):
        for bad in ([[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):
            with pytest.raises(ValueError, match="covariance not positive definite"):
                cholesky_t(np.array(bad))

    def test_asymmetric_rejected(self):
        # the factor reads only the lower triangle, so symmetry must be exact
        for bad in ([[1.0, 0.5], [0.1, 1.0]], [[1.0, 0.5], [0.5 + 1e-15, 1.0]]):
            with pytest.raises(ValueError, match="covariance not positive definite"):
                cholesky_t(np.array(bad))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        for bad in ([[value, 0.0], [0.0, 1.0]], [[1.0, value], [value, 1.0]]):
            with pytest.raises(ValueError, match="covariance not positive definite"):
                cholesky_t(np.array(bad))

    def test_factor_is_read_only(self):
        chol_t = cholesky_t(ar_covariance(2, 0.5))
        with pytest.raises(ValueError, match="read-only"):
            chol_t[0, 0] = 1.0

    def test_draws_are_mean_plus_cholesky_product(self):
        mean = np.array([0.3, -1.0, 2.0])
        cov = ar_covariance(3, 0.6)
        z = RngStream(2026, 3).generator().standard_normal((50, 3))
        draws = sample_mvn(mean, cholesky_t(cov), RngStream(2026, 3).generator(), size=50)
        np.testing.assert_array_equal(draws, mean + z @ np.linalg.cholesky(cov).T)


class TestSampleNoncentralT:
    def test_large_df_near_normal(self):
        gen = RngStream(99, 0).generator()
        draws = sample_noncentral_t(1000.0, 0.0, gen, size=100_000)
        ks = stats.kstest(draws, "norm").statistic
        assert ks < 0.02

    def test_median_against_construction_oracle(self):
        gen = RngStream(99, 1).generator()
        draws = sample_noncentral_t(3.0, 1.0, gen, size=200_000)
        assert abs(np.median(draws) - NCT_MEDIAN_DF3_NCP1) < 0.05

    def test_heavy_tails_at_df3(self):
        gen = RngStream(99, 2).generator()
        draws = sample_noncentral_t(3.0, 1.0, gen, size=100_000)
        assert stats.kurtosis(draws) > 10.0

    def test_df_domain(self):
        with pytest.raises(ValueError):
            sample_noncentral_t(0.0, 1.0, RngStream(0).generator(), size=1)

    def test_moments_match_distribution(self):
        gen = RngStream(99, 3).generator()
        draws = sample_noncentral_t(3.0, 1.0, gen, size=200_000)
        mean, var = stats.nct.stats(3, 1, moments="mv")
        assert abs(draws.mean() - mean) < 3 * np.sqrt(var / draws.size) + 0.01
