import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predcurves.conformal import Dataset
from predcurves.learners import (
    FeatureMap,
    OlsLearner,
    adversarial_learner,
    zero_learner,
)


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
            assert FeatureMap(kind, input_dim=2).output_dim == d


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
        model = zero_learner().fit(None)
        np.testing.assert_array_equal(model.predict(np.ones((4, 3))), np.zeros(4))

    def test_adversarial_learner(self):
        model = adversarial_learner().fit(None)
        X = np.array([[2.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(model.predict(X), [-2000.0, 1000.0])
