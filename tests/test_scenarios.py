import numpy as np
import pytest
from scipy import stats

from predcurves.mlp import MlpModel
from predcurves.rng import RngStream
from predcurves.scenarios import (
    LinearScenario,
    NnScenario,
    ar_covariance,
    cholesky_t,
    draw_dataset,
    draw_pairs,
    draw_test_laws,
    gen_linear,
    gen_nn,
    sample_mvn,
    sample_noncentral_t,
)

# median of the (Z + 1)/sqrt(V/3) construction, frozen from a 1e7-draw run
NCT_MEDIAN_DF3_NCP1 = 1.0916


class TestLinearScenario:
    def test_covariances(self):
        sc = LinearScenario()
        np.testing.assert_allclose(sc.cov_x, [[0.5, 0.25], [0.25, 0.5]])
        np.testing.assert_allclose(sc.cov_shift, [[0.5, 0.4], [0.4, 0.5]])
        np.testing.assert_allclose(sc.mu_shifted, [2.0, 2.0])
        unit = LinearScenario(cov_shift_scale=1.0)
        np.testing.assert_allclose(unit.cov_shift, [[1.0, 0.8], [0.8, 1.0]])
        np.testing.assert_allclose(unit.cov_x, sc.cov_x)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_shift_scale_without_a_covariance_refused(self, scale):
        with pytest.raises(ValueError, match="covariance not positive definite"):
            LinearScenario(cov_shift_scale=scale)

    def test_response_moments(self):
        sc = LinearScenario()
        gen = RngStream(300, 0).generator()
        dataset, _ = draw_dataset(sc, True, gen, n_train=100_000, n_test=0)
        # E y = intercept since covariates are centered
        assert dataset.y.mean() == pytest.approx(-1.0, abs=0.03)
        # var(2z + 2w) + noise = 4*.5 + 4*.5 + 2*4*.25 + 1
        assert dataset.y.var() == pytest.approx(7.0, abs=0.15)

    def test_covariate_moments(self):
        sc = LinearScenario()
        gen = RngStream(300, 1).generator()
        dataset, _ = draw_dataset(sc, True, gen, n_train=100_000, n_test=0)
        assert np.max(np.abs(dataset.X.mean(axis=0))) < 0.01
        assert np.max(np.abs(np.cov(dataset.X.T) - sc.cov_x)) < 0.01

    def test_shifted_test_mean(self):
        sc = LinearScenario()
        gen = RngStream(300, 2).generator()
        _, (X_test, _) = draw_dataset(sc, False, gen, n_train=10, n_test=100_000)
        np.testing.assert_allclose(X_test.mean(axis=0), [2.0, 2.0], atol=0.03)

    def test_test_responses_follow_model_given_x(self):
        sc = LinearScenario()
        gen = RngStream(300, 3).generator()
        _, (X_test, y_test) = draw_dataset(sc, False, gen, n_train=10, n_test=100_000)
        residual = y_test - sc.mean_response(X_test)
        assert residual.mean() == pytest.approx(0.0, abs=0.02)
        assert residual.var() == pytest.approx(1.0, abs=0.02)


def test_one_draw_under_every_name():
    assert gen_linear is gen_nn is draw_dataset
    assert (LinearScenario().family, NnScenario.family) == ("linear", "nn")


@pytest.mark.parametrize(
    "scenario, iid, mean, cov",
    [
        (LinearScenario(), True, [0.0, 0.0], ar_covariance(2, 0.5)),
        (LinearScenario(), False, [2.0, 2.0], ar_covariance(2, 0.8, 0.5)),
        (LinearScenario(cov_shift_scale=1.0), False, [2.0, 2.0], ar_covariance(2, 0.8, 1.0)),
        (NnScenario(), True, [0.0, 0.0, 0.0], ar_covariance(3, 0.5)),
    ],
    ids=["linear-iid", "linear-shifted-0.5", "linear-shifted-1.0", "nn-iid"],
)
def test_gaussian_draws_are_mean_plus_cholesky_product(scenario, iid, mean, cov):
    # bit for bit: the covariates are mean + z L^T with z standard normal and L L^T = cov
    z = RngStream(302, 0).generator().standard_normal((40, len(mean)))
    X, _ = draw_pairs(scenario, iid, RngStream(302, 0).generator(), 40)
    np.testing.assert_array_equal(X, np.asarray(mean) + z @ np.linalg.cholesky(cov).T)


@pytest.mark.parametrize("scenario", [LinearScenario(), NnScenario()], ids=["linear", "nn"])
def test_training_identical_across_test_laws(scenario):
    # training rows come first in the draw order: no test law or size moves them
    gens = [RngStream(300, 4).generator() for _ in range(4)]
    laws = ((True, 3), (False, 3), (True, 0), (False, 0))
    draws = [
        draw_dataset(scenario, iid, gen, n_train=50, n_test=n_test)
        for gen, (iid, n_test) in zip(gens, laws)
    ]
    for dataset, _ in draws[1:]:
        np.testing.assert_array_equal(dataset.X, draws[0][0].X)
        np.testing.assert_array_equal(dataset.y, draws[0][0].y)
    # an empty test draw leaves the stream where the training rows left it, under either law
    assert repr(gens[2].bit_generator.state) == repr(gens[3].bit_generator.state)
    # after one training draw, every law's test pairs are those of a fresh call at that law
    gen = RngStream(300, 4).generator()
    draw_dataset(scenario, True, gen, n_train=50, n_test=0)
    for (X, y), (_, (X_ref, y_ref)) in zip(draw_test_laws(scenario, (True, False), gen, 3), draws):
        np.testing.assert_array_equal(X, X_ref)
        np.testing.assert_array_equal(y, y_ref)


class TestNnScenario:
    def test_true_network_formula(self):
        sc = NnScenario()
        params = sc.true_params()

        def reference(x):
            return max(0.0, max(0.0, x[0] + x[1]) - max(0.0, x[2]))

        gen = RngStream(301, 0).generator()
        X = 3.0 * gen.standard_normal((200, 3))
        net = MlpModel(params)
        for x in X:
            assert net.predict(x)[0] == pytest.approx(reference(x), abs=1e-12)
        # the batched mean response gives the per-row network values bit for bit
        np.testing.assert_array_equal(sc.mean_response(X), [net.predict(x)[0] for x in X])

    def test_equivalent_params_same_function(self):
        sc = NnScenario()
        first, second = (MlpModel(p) for p in sc.equivalent_true_params())
        gen = RngStream(301, 1).generator()
        for _ in range(300):
            x = 4.0 * gen.standard_normal(3)
            assert first.predict(x)[0] == pytest.approx(second.predict(x)[0], abs=1e-10)

    def test_mean_response_at_known_points(self):
        sc = NnScenario()
        assert sc.mean_response(np.array([[1.0, 1.0, 0.0]]))[0] == pytest.approx(2.0)
        # response mean over noise only equals the network value
        gen = RngStream(301, 2).generator()
        point = np.array([3.653, 1.748, 1.063])
        assert sc.mean_response(point[None])[0] == pytest.approx(4.338, abs=1e-9)

    def test_response_zero_fraction(self):
        sc = NnScenario()
        gen = RngStream(301, 3).generator()
        dataset, _ = draw_dataset(sc, True, gen, n_train=100_000, n_test=0)
        zero_frac = np.mean(sc.mean_response(dataset.X) == 0.0)
        assert zero_frac > 0.4

    def test_shifted_covariates_noncentral_t(self):
        sc = NnScenario()
        gen = RngStream(301, 4).generator()
        _, (X_test, _) = draw_dataset(sc, False, gen, n_train=10, n_test=100_000)
        mean, var = stats.nct.stats(3, 1, moments="mv")
        se_mean = np.sqrt(var / X_test.shape[0])
        for k in range(3):
            assert abs(X_test[:, k].mean() - mean) < 3 * se_mean + 0.01

    def test_covariance_3d(self):
        cov = ar_covariance(3, 0.5)
        expected = np.array([[0.5, 0.25, 0.125], [0.25, 0.5, 0.25], [0.125, 0.25, 0.5]])
        np.testing.assert_allclose(cov, expected)


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
