import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from predcurves.closed_form import (
    FEATURE_KINDS,
    FeatureMap,
    FixedRuleLearner,
    OlsLearner,
    closed_form_scores,
    homeostasis_report,
    width_ordering_trial,
)
from predcurves.conformal import Dataset, build_loo_ensemble, interval_from_scores
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
        np.testing.assert_allclose(report.cancellation_gap, report.bias + report.average_shift)

    @pytest.mark.parametrize("q,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_bias_and_shifts_match_projection_algebra(self, q, k):
        # y = Z b1 + W b2 + e: the submodel's prediction at x_new has mean
        # z_new' (Z'Z)^-1 Z'W b2, and its i-th residual term (1 - g_{i,new}) u_i
        # has mean (1 - g_{i,new}) ((I - P_Z) W b2)_i / (1 - g_ii)
        for rep in range(5):
            gen = RngStream(108, 10 * q + k + 100 * rep).generator()
            n = int(gen.integers(q + k + 5, 40))
            Z = gen.standard_normal((n, q))
            W = gen.standard_normal((n, k)) + Z[:, :1] * gen.standard_normal(k)
            beta = gen.standard_normal(q + k)
            x_new = gen.standard_normal(q + k)
            report = homeostasis_report(Z, W, beta, x_new)

            beta2, z_new, w_new = beta[q:], x_new[:q], x_new[q:]
            ztz_inv = np.linalg.inv(Z.T @ Z)
            proj = Z @ ztz_inv @ Z.T
            g_cross = Z @ ztz_inv @ z_new
            bias = z_new @ ztz_inv @ Z.T @ W @ beta2 - w_new @ beta2
            shifts = (1.0 - g_cross) / (1.0 - np.diag(proj)) * ((np.eye(n) - proj) @ W @ beta2)
            assert report.bias == pytest.approx(bias, abs=1e-10)
            np.testing.assert_allclose(report.shifts, shifts, rtol=0, atol=1e-10)

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


class TestFeatureMap:
    def test_first_squared(self):
        fmap = FeatureMap("first-squared", input_dim=2)
        np.testing.assert_allclose(fmap.expand_matrix(np.array([[2.0, 5.0]]))[0], [1.0, 4.0])

    def test_intercept_only(self):
        fmap = FeatureMap("intercept", input_dim=2)
        np.testing.assert_allclose(fmap.expand_matrix(np.array([[3.0, -4.0]]))[0], [1.0])

    def test_linear_keeps_coordinates(self):
        fmap = FeatureMap("linear", input_dim=2)
        x = np.array([0.365, -0.026])
        np.testing.assert_allclose(fmap.expand_matrix(x[None, :])[0], [1.0, 0.365, -0.026])

    def test_first_only(self):
        fmap = FeatureMap("first-only", input_dim=2)
        np.testing.assert_allclose(fmap.expand_matrix(np.array([[1.5, 9.0]]))[0], [1.0, 1.5])

    def test_dimension_mismatch(self):
        fmap = FeatureMap("linear", input_dim=2)
        with pytest.raises(ValueError):
            fmap.expand_matrix(np.array([[1.0, 2.0, 3.0]]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FeatureMap("cubic", input_dim=2)

    def test_output_dims(self):
        dims = {"linear": 3, "first-only": 2, "first-squared": 2, "intercept": 1}
        for kind, d in dims.items():
            assert FeatureMap(kind, input_dim=2).expand_matrix(np.ones((5, 2))).shape[1] == d


class TestOlsLearner:
    def test_noiseless_identification(self):
        gen = np.random.default_rng(4)
        X = gen.standard_normal((30, 2))
        beta = np.array([-1.0, 2.0, 2.0])
        y = beta[0] + X @ beta[1:]
        learner = OlsLearner(FeatureMap("linear", input_dim=2))
        model = learner.fit(Dataset(X, y))
        np.testing.assert_allclose(model.beta, beta, atol=1e-8)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-8)

    def test_row_permutation_invariance(self):
        gen = np.random.default_rng(6)
        X = gen.standard_normal((25, 2))
        y = gen.standard_normal(25)
        learner = OlsLearner(FeatureMap("linear", input_dim=2))
        beta = learner.fit(Dataset(X, y)).beta
        perm = gen.permutation(25)
        beta_p = learner.fit(Dataset(X[perm], y[perm])).beta
        np.testing.assert_allclose(beta, beta_p, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariance_property(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(6, 30))
        X = gen.standard_normal((n, 2))
        y = gen.standard_normal(n)
        learner = OlsLearner(FeatureMap("first-only", input_dim=2))
        perm = gen.permutation(n)
        np.testing.assert_allclose(
            learner.fit(Dataset(X, y)).beta,
            learner.fit(Dataset(X[perm], y[perm])).beta,
            atol=1e-10,
        )


class TestFixedRuleLearners:
    def test_zero_learner(self):
        dataset = Dataset(np.arange(12.0).reshape(4, 3), np.array([0.5, -1.0, 2.0, 3.5]))
        scores = FixedRuleLearner(0.0).loo_scores(dataset, np.ones((2, 3)))
        np.testing.assert_array_equal(scores, np.repeat(dataset.y[:, None], 2, axis=1))

    def test_adversarial_learner(self):
        # every fold predicts -1000 x_0: scores are -1000 x_0 + (y_i + 1000 x_i0)
        dataset = Dataset(np.array([[0.5, 9.0], [-0.25, 9.0], [0.0, 9.0]]), np.array([1.0, 2.0, 3.0]))
        X_test = np.array([[2.0, 1.0], [-1.0, 0.0]])
        scores = FixedRuleLearner(-1000.0).loo_scores(dataset, X_test)
        np.testing.assert_array_equal(scores, [[-1499.0, 1501.0], [-2248.0, 752.0], [-1997.0, 1003.0]])


def _scores_or_error(learner, dataset, X_test):
    try:
        return learner.loo_scores(dataset, X_test)
    except ValueError as exc:
        return str(exc)


class TestStackedRepetitions:
    """A stack of R repetitions scores each repetition as it is scored alone, to the bit."""

    @pytest.mark.parametrize(
        "learner",
        [OlsLearner(FeatureMap(kind, input_dim=2)) for kind in FEATURE_KINDS] + [FixedRuleLearner(-3.0)],
        ids=[*FEATURE_KINDS, "fixed-rule"],
    )
    @pytest.mark.parametrize("n", [3, 30, 300])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("reps", [1, 2, 7])
    def test_stacked_scores_equal_each_repetition_alone(self, learner, n, m, reps):
        draws = [draw_dataset(LinearScenario(), False, RngStream(n + m, rep).generator(), n, m) for rep in range(reps)]
        alone = [_scores_or_error(learner, dataset, X_test) for dataset, (X_test, _) in draws]
        stacked = _scores_or_error(
            learner,
            Dataset(np.stack([d.X for d, _ in draws]), np.stack([d.y for d, _ in draws])),
            np.stack([X_test for _, (X_test, _) in draws]),
        )
        if isinstance(stacked, str):
            # n = 3 rows under the three-column linear design: every row has leverage one
            assert stacked == "leverage-one point" and alone == [stacked] * reps
            return
        assert stacked.shape == (reps, n, m)
        for r, scores in enumerate(alone):
            assert stacked[r].tobytes() == scores.tobytes(), f"repetition {r}"

    def test_stacked_fit_equals_each_fit_alone(self):
        gen = np.random.default_rng(5)
        X, y, X_s = gen.standard_normal((4, 40, 3)), gen.standard_normal((4, 40)), gen.standard_normal((4, 2, 3))
        fit = least_squares(X, y)
        cross, diag = fit.hat_cross_many(X_s), fit.hat_diag()
        for r in range(4):
            alone = least_squares(X[r], y[r])
            for got, want in [(fit.beta[r], alone.beta), (fit.q[r], alone.q), (fit.r[r], alone.r),
                              (diag[r], alone.hat_diag()), (cross[r], alone.hat_cross_many(X_s[r]))]:
                assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="for designs stacked as"):
            fit.hat_cross_many(X_s[0])
