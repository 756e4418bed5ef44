import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predcurves.conformal import Dataset
from predcurves.closed_form import FeatureMap, FixedRuleLearner, OlsLearner


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
