import numpy as np
import pytest

from predcurves.conformal import (
    Dataset,
    PredictiveResult,
    build_loo_ensemble,
    conformal_scores,
    curve_grid,
    interval_from_scores,
    median_point_prediction,
    predictive_cdf,
    predictive_curve,
)
from predcurves.learners import FeatureMap, OlsLearner, zero_learner
from predcurves.rng import RngStream

MEAN_LEARNER = OlsLearner(FeatureMap("intercept", input_dim=1))


def _toy_dataset(y):
    y = np.asarray(y, dtype=float)
    return Dataset(np.zeros((y.size, 1)), y)


def _result(scores):
    return PredictiveResult(scores=np.asarray(scores, dtype=float), x_new=np.zeros(1))


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((4, 2)), np.zeros(3))

    def test_minimum_rows(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 1)), np.zeros(1))

    def test_engine_needs_three_rows(self):
        ds = Dataset(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="at least 3"):
            build_loo_ensemble(ds, MEAN_LEARNER, RngStream(0))

    def test_drop_row(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        out = ds.drop_row(1)
        np.testing.assert_array_equal(out.y, [0.0, 2.0, 3.0])


class TestLooEnsemble:
    def test_mean_learner_hand_computed(self):
        ds = _toy_dataset([1.0, 2.0, 3.0])
        ens = build_loo_ensemble(ds, MEAN_LEARNER, RngStream(0))
        np.testing.assert_allclose(ens.loo_residuals, [-1.5, 0.0, 1.5], atol=1e-12)

    def test_scores_equal_responses_for_mean_learner(self):
        ds = _toy_dataset([1.0, 2.0, 3.0])
        ens = build_loo_ensemble(ds, MEAN_LEARNER, RngStream(0))
        result = conformal_scores(ens, np.zeros(1))
        np.testing.assert_allclose(np.sort(result.scores), [1.0, 2.0, 3.0], atol=1e-12)
        assert median_point_prediction(result) == pytest.approx(2.0)

    def test_zero_learner_scores_are_responses(self):
        gen = RngStream(5).generator()
        ds = Dataset(gen.standard_normal((12, 2)), gen.standard_normal(12))
        ens = build_loo_ensemble(ds, zero_learner(), gen)
        result = conformal_scores(ens, gen.standard_normal(2))
        np.testing.assert_allclose(np.sort(result.scores), np.sort(ds.y), atol=1e-12)

    def test_duplicated_rows_fine(self):
        X = np.array([[1.0], [1.0], [2.0], [2.0]])
        y = np.array([1.0, 1.0, 2.0, 2.0])
        ens = build_loo_ensemble(Dataset(X, y), MEAN_LEARNER, RngStream(0))
        assert ens.n == 4

    def test_failing_fit_names_index(self):
        class Exploder:
            def fit(self, dataset, rng):
                raise RuntimeError("boom")

        ds = _toy_dataset([1.0, 2.0, 3.0])
        with pytest.raises(RuntimeError, match="omitted index 0"):
            build_loo_ensemble(ds, Exploder(), RngStream(0))

    def test_translation_equivariance_with_intercept(self):
        gen = RngStream(17).generator()
        X = gen.standard_normal((20, 2))
        y = gen.standard_normal(20)
        learner = OlsLearner(FeatureMap("linear", input_dim=2))
        x_new = gen.standard_normal(2)
        base = conformal_scores(build_loo_ensemble(Dataset(X, y), learner, gen), x_new)
        shifted = conformal_scores(
            build_loo_ensemble(Dataset(X, y + 5.5), learner, gen), x_new
        )
        np.testing.assert_allclose(shifted.scores, base.scores + 5.5, atol=1e-10)
        for alpha in (0.1, 0.3):
            b_lower, b_upper, _ = interval_from_scores(base.scores, alpha)
            s_lower, s_upper, _ = interval_from_scores(shifted.scores, alpha)
            assert s_lower == pytest.approx(b_lower + 5.5, abs=1e-10)
            assert s_upper == pytest.approx(b_upper + 5.5, abs=1e-10)


class TestPredictiveCdf:
    def test_below_all_scores(self):
        assert predictive_cdf(_result([1, 2, 3]), 0.5) == 0.0

    def test_above_all_scores(self):
        assert predictive_cdf(_result([1, 2, 3]), 3.0) == 1.0

    def test_tie_counts_with_geq(self):
        assert predictive_cdf(_result([1, 2, 3]), 2.0) == pytest.approx(2.0 / 3.0)

    def test_right_continuous_steps(self):
        r = _result([1.0, 1.0, 2.0])
        eps = 1e-12
        assert predictive_cdf(r, 1.0 - eps) == 0.0
        assert predictive_cdf(r, 1.0) == pytest.approx(2.0 / 3.0)  # multiplicity 2
        assert predictive_cdf(r, 1.0 + 1e-9) == pytest.approx(2.0 / 3.0)

    def test_nondecreasing(self):
        gen = np.random.default_rng(3)
        r = _result(gen.standard_normal(19))
        ys = np.sort(gen.standard_normal(100))
        qs = [predictive_cdf(r, y) for y in ys]
        assert np.all(np.diff(qs) >= 0)


class TestPredictiveCurve:
    def test_below_scores_is_zero(self):
        assert predictive_curve(_result([1, 2, 3]), 0.0) == 0.0

    def test_middle_reaches_one(self):
        assert predictive_curve(_result([1, 2, 3, 4]), 2.5) == pytest.approx(1.0)

    def test_symmetry_for_symmetric_scores(self):
        r = _result([-2.0, -1.0, 1.0, 2.0])
        for delta in (0.3, 1.2, 1.7):
            assert predictive_curve(r, delta) == pytest.approx(predictive_curve(r, -delta))

    def test_array_call_equals_scalar_calls(self):
        gen = np.random.default_rng(4)
        r = _result(np.round(gen.standard_normal(23), 1))  # rounded: ties present
        ys = np.concatenate([gen.standard_normal(50), r.scores, [-np.inf, np.inf]])
        for fn in (predictive_cdf, predictive_curve):
            values = fn(r, ys)
            assert values.shape == ys.shape
            np.testing.assert_array_equal(values, [fn(r, y) for y in ys])


class TestPredictiveInterval:
    def test_order_statistic_endpoints(self):
        gen = np.random.default_rng(0)
        scores = gen.standard_normal(300)
        s = np.sort(scores)
        lower, upper, clamped = interval_from_scores(scores, 0.05)
        assert lower == s[7]  # 8th order statistic
        assert upper == s[292]  # 293rd
        assert not clamped

    def test_explicit_grid(self):
        lower, upper, _ = interval_from_scores(np.arange(1.0, 101.0), 0.2)
        assert (lower, upper) == (10.0, 90.0)

    def test_tiny_alpha_clamps_to_extremes(self):
        scores = np.arange(10.0)
        lower, upper, clamped = interval_from_scores(scores, 0.01)
        assert clamped
        assert lower == 0.0
        assert upper == 9.0

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            interval_from_scores(np.array([1.0, 2.0, 3.0]), 1.2)

    def test_duality_with_curve(self):
        gen = np.random.default_rng(8)
        r = _result(gen.standard_normal(41))  # continuous draws: tie free
        for alpha in (0.1, 0.25):
            lower, upper, _ = interval_from_scores(r.scores, alpha)
            grid = curve_grid(r, 301)
            inside = grid[(grid[:, 0] > lower) & (grid[:, 0] < upper)]
            assert np.all(inside[:, 1] >= alpha - 1e-12)
            level_set = grid[grid[:, 1] >= alpha]
            assert level_set[:, 0].min() >= lower - 1e-9
            assert level_set[:, 0].max() <= upper + 1e-9


class TestMedianPointPrediction:
    def test_odd(self):
        assert median_point_prediction(_result([3, 1, 2])) == 2.0

    def test_even_left_of_peak(self):
        assert median_point_prediction(_result([1, 2, 3, 4])) == 2.0


class TestCurveGrid:
    def test_end_points_have_zero_curve(self):
        grid = curve_grid(_result([1.0, 2.0, 5.0]), 50)
        assert grid[0, 1] == 0.0
        assert grid[-1, 1] == 0.0

    def test_peak_positive_and_bounded(self):
        grid = curve_grid(_result(np.random.default_rng(1).standard_normal(15)), 80)
        assert 0.0 < grid[:, 1].max() <= 1.0

    def test_grid_sorted_and_step_structure(self):
        scores = np.array([0.0, 1.0, 3.0])
        grid = curve_grid(_result(scores), 40)
        ys, pv = grid[:, 0], grid[:, 1]
        assert np.all(np.diff(ys) > 0)
        # piecewise constant between adjacent scores
        mid = (ys >= 1.0 + 1e-6) & (ys <= 3.0 - 1e-6)
        assert np.unique(pv[mid]).size == 1

    def test_points_domain(self):
        with pytest.raises(ValueError):
            curve_grid(_result([1.0, 2.0, 3.0]), 1)
