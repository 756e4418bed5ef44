"""Learning models plugged into the conformal engine.

A learner is anything with ``fit(dataset, rng) -> model`` where the model
has ``predict(X) -> (m,)``. Fitting must be a pure function of
``(dataset, rng)``. This module provides the least-squares learners over
fixed feature maps and two deliberately degenerate learners used to
exercise the distribution-free coverage guarantee; the neural-network
learners live in :mod:`predcurves.mlp`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


class _FixedModel:
    def __init__(self, scale: float):
        self.scale = scale

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.scale * np.atleast_2d(X)[:, 0]


@dataclass(frozen=True)
class FixedRuleLearner:
    """Ignores the data and predicts ``scale * x[0]``.

    With ``scale = 0`` this is the all-zero predictor; with an absurd scale
    it is an adversarially bad model. Either way the conformal coverage
    guarantee must survive, which makes these learners useful stress tests.
    """

    scale: float

    def fit(self, dataset: Dataset, rng=None) -> _FixedModel:
        return _FixedModel(self.scale)
