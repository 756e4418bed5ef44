"""Learning models plugged into the conformal engine.

A learner scores its own leave-one-out folds: ``loo_scores(dataset,
X_test, rng) -> (n, m)`` is a pure function of its arguments. This module
provides the least-squares learners over fixed feature maps and the
fixed-rule learner that exercises the distribution-free coverage
guarantee, both scored in closed form without drawing from ``rng``; the
neural-network learners live in :mod:`predcurves.mlp`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import closed_form_scores
from .conformal import Dataset
from .linalg import least_squares

FEATURE_KINDS = ("linear", "first-only", "first-squared", "intercept")


@dataclass(frozen=True)
class FeatureMap:
    """Fixed covariate expansion; all kinds prepend an intercept.

    kind
        ``linear``         -> (1, x_1, ..., x_d)
        ``first-only``     -> (1, x_1)
        ``first-squared``  -> (1, x_1^2)
        ``intercept``      -> (1,)
    """

    kind: str
    input_dim: int

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")

    def expand_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected covariates of dimension {self.input_dim}, got shape {X.shape}")
        ones = np.ones((X.shape[0], 1))
        if self.kind == "linear":
            return np.hstack([ones, X])
        if self.kind == "first-only":
            return np.hstack([ones, X[:, :1]])
        if self.kind == "first-squared":
            return np.hstack([ones, X[:, :1] ** 2])
        return ones


class OlsModel:
    """Least-squares model over a feature map."""

    def __init__(self, beta: np.ndarray, feature_map: FeatureMap):
        self.beta = np.asarray(beta, dtype=float)
        self.feature_map = feature_map

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.feature_map.expand_matrix(np.atleast_2d(X)) @ self.beta


@dataclass(frozen=True)
class OlsLearner:
    """Exact least squares on expanded features; deterministic, rng unused."""

    feature_map: FeatureMap

    def fit(self, dataset: Dataset, rng=None) -> OlsModel:
        design = self.feature_map.expand_matrix(dataset.X)
        return OlsModel(least_squares(design, dataset.y).beta, self.feature_map)

    def loo_scores(self, dataset: Dataset, X_test: np.ndarray, rng=None) -> np.ndarray:
        """Closed-form scores on the expanded design: no refit is performed."""
        expand = self.feature_map.expand_matrix
        return closed_form_scores(expand(dataset.X), dataset.y, expand(X_test)).scores


@dataclass(frozen=True)
class FixedRuleLearner:
    """Ignores the data and predicts ``scale * x[0]``.

    With ``scale = 0`` this is the all-zero predictor; with an absurd scale
    it is an adversarially bad model. Either way the conformal coverage
    guarantee must survive, which makes these learners useful stress tests.
    """

    scale: float

    def loo_scores(self, dataset: Dataset, X_test: np.ndarray, rng=None) -> np.ndarray:
        """Every fold is the same model, so ``s_ij = c x_j0 + (y_i - c x_i0)``; rng unused."""
        c = self.scale
        return c * X_test[:, 0][None, :] + (dataset.y - c * dataset.X[:, 0])[:, None]
