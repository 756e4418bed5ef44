import numpy as np
import pytest
from scipy.special import ndtri

from predcurves.closed_form import closed_form_scores, homeostasis_report, width_ordering_trial
from predcurves.conformal import Dataset, build_loo_ensemble, interval_from_scores
from predcurves.learners import FeatureMap, OlsLearner
from predcurves.linalg import least_squares
from predcurves.rng import RngStream
from predcurves.scenarios import LinearScenario, draw_dataset
from predcurves.verify import refit_ensemble


class TestClosedFormScores:
    def test_matches_brute_force_refits(self):
        gen = RngStream(100, 0).generator()
        X = np.column_stack([np.ones(25), gen.standard_normal((25, 2))])
        y = gen.standard_normal(25)
        X_new = np.column_stack([np.ones(3), gen.standard_normal((3, 2))])
        result = closed_form_scores(X, y, X_new)
        ensemble = refit_ensemble(X, y)
        np.testing.assert_allclose(result.scores, ensemble.scores(X_new[:, 1:]), atol=1e-8)

    def test_deleted_residuals_match_refit_predictions(self):
        gen = RngStream(100, 1).generator()
        X = np.column_stack([np.ones(20), gen.standard_normal((20, 2))])
        y = gen.standard_normal(20)
        result = closed_form_scores(X, y, X[3:4])
        np.testing.assert_allclose(
            result.deleted_residuals, refit_ensemble(X, y).loo_residuals, atol=1e-10
        )

    def test_noiseless_data_gives_zero_width(self):
        gen = RngStream(100, 2).generator()
        X = np.column_stack([np.ones(15), gen.standard_normal((15, 2))])
        beta = np.array([-1.0, 2.0, 2.0])
        y = X @ beta
        x_new = np.array([1.0, 0.3, -0.2])
        result = closed_form_scores(X, y, x_new[None, :])
        np.testing.assert_allclose(result.deleted_residuals, 0.0, atol=1e-10)
        np.testing.assert_allclose(result.scores, x_new @ beta, atol=1e-10)
        lower, upper, _ = interval_from_scores(result.scores[:, 0], 0.05)
        assert upper - lower == pytest.approx(0.0, abs=1e-10)

    def test_cross_leverage_at_training_point(self):
        gen = RngStream(100, 3).generator()
        X = np.column_stack([np.ones(12), gen.standard_normal((12, 2))])
        y = gen.standard_normal(12)
        result = closed_form_scores(X, y, X[5:6])
        oracle = X @ np.linalg.solve(X.T @ X, X[5])
        np.testing.assert_allclose(result.leverage_cross[:, 0], oracle, atol=1e-12)
        diag = least_squares(X, y).hat_diag()
        assert result.leverage_cross[5, 0] == pytest.approx(diag[5], abs=1e-12)

    def test_matches_generic_engine_all_feature_maps(self):
        gen = RngStream(100, 4).generator()
        X_raw = gen.standard_normal((25, 2))
        y = gen.standard_normal(25)
        x_raw = gen.standard_normal((1, 2))
        for kind in ("linear", "first-only", "first-squared", "intercept"):
            fmap = FeatureMap(kind, input_dim=2)
            learner = OlsLearner(fmap)
            engine = build_loo_ensemble(Dataset(X_raw, y), learner, gen).scores(x_raw)
            closed = closed_form_scores(
                fmap.expand_matrix(X_raw), y, fmap.expand_matrix(x_raw)
            ).scores
            np.testing.assert_allclose(closed, engine, atol=1e-8)


class TestSubmodelScores:
    def test_intercept_only_hand_algebra(self):
        gen = RngStream(101, 1).generator()
        n = 14
        y = gen.standard_normal(n)
        Z = np.ones((n, 1))
        result = closed_form_scores(Z, y, np.ones((1, 1)))
        ybar = y.mean()
        np.testing.assert_allclose(result.beta_hat, [ybar], atol=1e-12)
        np.testing.assert_allclose(
            result.deleted_residuals, (y - ybar) / (1.0 - 1.0 / n), atol=1e-12
        )
        np.testing.assert_allclose(result.leverage_cross, np.full((n, 1), 1.0 / n), atol=1e-12)

    def test_matches_generic_engine_drop_w(self):
        gen = RngStream(101, 2).generator()
        X_raw = gen.standard_normal((25, 2))
        y = gen.standard_normal(25)
        x_raw = gen.standard_normal((1, 2))
        fmap = FeatureMap("first-only", input_dim=2)
        engine = build_loo_ensemble(Dataset(X_raw, y), OlsLearner(fmap), gen).scores(x_raw)
        closed = closed_form_scores(fmap.expand_matrix(X_raw), y, fmap.expand_matrix(x_raw)).scores
        np.testing.assert_allclose(closed, engine, atol=1e-8)


class TestHomeostasis:
    """Diagnostics run on the raw covariate partition (no intercept column):
    any submodel spanning the constant vector predicts without bias exactly
    at the sample mean, which would make the bias/shift comparison vacuous.
    """

    def test_zero_beta2_means_no_bias_no_shift(self):
        gen = RngStream(102, 0).generator()
        Z = gen.standard_normal((40, 1))
        W = gen.standard_normal((40, 1))
        report = homeostasis_report(Z, W, np.array([2.0, 0.0]), np.array([0.5, 0.5]))
        assert report.bias == 0.0
        np.testing.assert_array_equal(report.shifts, 0.0)
        assert report.cancellation_gap == 0.0

    def test_orthogonal_columns_bias_is_minus_projection(self):
        gen = RngStream(102, 1).generator()
        Z = gen.standard_normal((30, 1))
        W_raw = gen.standard_normal((30, 1))
        # orthogonalize W against Z exactly
        W = W_raw - Z * float((Z[:, 0] @ W_raw[:, 0]) / (Z[:, 0] @ Z[:, 0]))
        x_new = np.array([0.7, 1.3])
        report = homeostasis_report(Z, W, np.array([2.0, 2.0]), x_new)
        assert report.bias == pytest.approx(-x_new[1] * 2.0, abs=1e-10)

    def test_w_perp_definition(self):
        gen = RngStream(102, 2).generator()
        Z = gen.standard_normal((25, 2))
        W = gen.standard_normal((25, 1))
        report = homeostasis_report(
            Z, W, np.array([1.0, -1.0, 2.0]), np.array([0.1, 0.2, 0.3])
        )
        proj = Z @ np.linalg.inv(Z.T @ Z) @ Z.T
        np.testing.assert_allclose(report.w_perp, W - proj @ W, atol=1e-10)
        np.testing.assert_allclose(report.cancellation_gap, report.bias + report.average_shift)

    def test_cancellation_at_sample_mean(self):
        scenario = LinearScenario()
        gaps, biases = [], []
        for rep in range(50):
            gen = RngStream(103, rep).generator()
            dataset, _ = draw_dataset(scenario, True, gen, n_train=300, n_test=0)
            Z, W = dataset.X[:, :1], dataset.X[:, 1:]
            x_bar = dataset.X.mean(axis=0)
            report = homeostasis_report(Z, W, np.array(scenario.beta[1:]), x_bar)
            gaps.append(abs(report.cancellation_gap))
            biases.append(abs(report.bias))
        assert np.median(gaps) < 0.1 * np.median(biases)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            homeostasis_report(np.ones((5, 1)), np.ones((5, 1)), np.ones(3), np.ones(2))


class TestUnbiasednessHooks:
    """Under the true model the point prediction is conditionally unbiased
    and the score noise terms have conditional mean zero, so both averages
    must vanish within Monte Carlo error across repetitions.
    """

    def test_prediction_and_noise_terms_center_on_zero(self):
        scenario = LinearScenario()
        beta = np.array(scenario.beta)
        reps = 200
        pred_errors = np.empty(reps)
        noise_means = np.empty(reps)
        for rep in range(reps):
            gen = RngStream(107, rep).generator()
            dataset, (X_test, _) = draw_dataset(scenario, True, gen, n_train=60, n_test=1)
            X = np.hstack([np.ones((60, 1)), dataset.X])
            x_new = np.array([1.0, *X_test[0]])
            result = closed_form_scores(X, dataset.y, x_new[None, :])
            pred_errors[rep] = result.point_prediction[0] - x_new @ beta
            noise_means[rep] = np.mean(
                (1.0 - result.leverage_cross[:, 0]) * result.deleted_residuals
            )
        for values in (pred_errors, noise_means):
            stderr = values.std(ddof=1) / np.sqrt(reps)
            assert abs(values.mean()) < 3.0 * stderr + 1e-12


class TestWidthOrdering:
    def test_submodel_wider_in_most_trials(self):
        scenario = LinearScenario()
        wider = 0
        trials = 60
        for rep in range(trials):
            w_full, w_sub = width_ordering_trial(scenario, 300, 0.05, RngStream(104, rep).generator())
            wider += int(w_sub > w_full)
        assert wider / trials >= 0.95

    def test_zero_beta2_makes_widths_comparable(self):
        scenario = LinearScenario(beta=(-1.0, 2.0, 0.0))
        ratios = []
        for rep in range(60):
            w_full, w_sub = width_ordering_trial(scenario, 300, 0.05, RngStream(105, rep).generator())
            ratios.append(w_sub / w_full)
        assert 0.9 <= np.median(ratios) <= 1.1

    def test_limiting_widths(self):
        scenario = LinearScenario()
        z975 = ndtri(0.975)
        full, sub = [], []
        for rep in range(25):
            w_full, w_sub = width_ordering_trial(scenario, 2000, 0.05, RngStream(106, rep).generator())
            full.append(w_full)
            sub.append(w_sub)
        sigma_sub = np.sqrt(1.0 + 4.0 * 0.375)  # residual sd of the dropped covariate model
        assert np.mean(full) == pytest.approx(2 * z975, rel=0.10)
        assert np.mean(sub) == pytest.approx(2 * z975 * sigma_sub, rel=0.10)


class TestIntervalHelpers:
    def test_interval_endpoints_are_order_stats(self):
        scores = np.arange(1.0, 101.0)
        lower, upper, clamped = interval_from_scores(scores, 0.2)
        assert (lower, upper, clamped) == (10.0, 90.0, False)

    def test_clamping_flag(self):
        lower, upper, clamped = interval_from_scores(np.arange(10.0), 0.01)
        assert clamped and lower == 0.0 and upper == 9.0
