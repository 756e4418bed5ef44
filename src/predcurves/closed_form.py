"""Closed-form jackknife-plus for least-squares learners.

For a least-squares learner the n leave-one-out refits never have to be
performed: with hat values ``h_ii`` and cross leverages ``h_{i,new}`` of
the full design, a rank-one downdate of the normal equations collapses
the conformal scores to

    s_i = x_new' beta_hat + (1 - h_{i,new}) u_i,
    u_i = (y_i - x_i' beta_hat) / (1 - h_ii)        (deleted residual),

where ``beta_hat`` is the full-sample fit. The same formula with the
submodel design ``Z``, leverages ``g``, and residuals ``v_i`` gives the
scores of a learner that omits covariates. Equality with brute-force
refits (``build_loo_ensemble`` with an ``OlsLearner``) is covered by
tests rather than assumed.

The least-squares learners over fixed feature maps, and the fixed-rule
learner that stress-tests the coverage guarantee, score through this
formula here, without drawing from ``rng``. Like ``linalg``, the formula
and both learners take one repetition or a stack of R: a design ``X``
(n, p), responses ``y`` (n,) and test rows (m, p) give (n, m) scores, and
(R, n, p), (R, n) and (R, m, p) give (R, n, m), each repetition's scores
equal to the bit to those it gets alone. A coverage study scores a block
of repetitions per least-squares fit this way.

This module also quantifies the bias/shift bookkeeping behind interval
validity under a wrong submodel: dropping covariates biases the point
prediction, but the leave-one-out residuals pick up an opposite shift,
and at the covariate mean the two nearly cancel. The report separates
the two terms so their cancellation (and its failure under covariate
shift) can be measured directly. Both are the formula above applied to
the omitted mean ``W beta_2``: bias = the submodel's prediction of the
omitted mean minus its truth, shifts = that fit's residual terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import Dataset, interval_from_scores
from .linalg import least_squares
from .scenarios import LinearScenario, draw_dataset

FEATURE_KINDS = ("linear", "first-only", "first-squared", "intercept")


@dataclass(frozen=True)
class ClosedFormScores:
    """Conformal scores of a least-squares learner: (..., n, m) for m test rows.

    ``beta_hat`` is (..., p), ``deleted_residuals`` (..., n),
    ``leverage_cross`` (..., n, m) and ``point_prediction`` (..., m).
    """

    beta_hat: np.ndarray
    deleted_residuals: np.ndarray
    leverage_cross: np.ndarray
    point_prediction: np.ndarray
    scores: np.ndarray


@dataclass(frozen=True)
class HomeostasisReport:
    """Bias of a submodel's point prediction versus the residual shift.

    ``bias`` is the conditional bias of the submodel prediction at
    ``x_new``; ``shifts[i]`` is the conditional mean of the i-th residual
    term entering the interval; ``cancellation_gap = bias + average_shift``
    measures how completely the two offset each other.
    """

    bias: float
    shifts: np.ndarray
    average_shift: float
    cancellation_gap: float


def closed_form_scores(X: np.ndarray, y: np.ndarray, X_new: np.ndarray) -> ClosedFormScores:
    """Jackknife-plus scores on design ``X`` (..., n, p) at the (..., m, p) test rows ``X_new``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    X_new = np.asarray(X_new, dtype=float)
    fit = least_squares(X, y)
    beta = fit.beta[..., None]
    u = (y - (X @ beta)[..., 0]) / (1.0 - fit.hat_diag())
    cross = fit.hat_cross_many(X_new)
    pred = (X_new @ beta)[..., 0]
    return ClosedFormScores(
        beta_hat=fit.beta,
        deleted_residuals=u,
        leverage_cross=cross,
        point_prediction=pred,
        scores=pred[..., None, :] + (1.0 - cross) * u[..., :, None],
    )


@dataclass(frozen=True)
class FeatureMap:
    """Fixed covariate expansion; all kinds prepend an intercept.

    kind
        ``linear``         -> (1, x_1, ..., x_d)
        ``first-only``     -> (1, x_1)
        ``first-squared``  -> (1, x_1^2)
        ``intercept``      -> (1,)

    ``expand_matrix`` maps covariate rows (..., n, d) to (..., n, p).
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
        if X.ndim < 2 or X.shape[-1] != self.input_dim:
            raise ValueError(f"expected covariates of dimension {self.input_dim}, got shape {X.shape}")
        ones = np.ones((*X.shape[:-1], 1))
        if self.kind == "linear":
            return np.concatenate([ones, X], axis=-1)
        if self.kind == "first-only":
            return np.concatenate([ones, X[..., :1]], axis=-1)
        if self.kind == "first-squared":
            return np.concatenate([ones, X[..., :1] ** 2], axis=-1)
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
        return c * X_test[..., None, :, 0] + (dataset.y - c * dataset.X[..., 0])[..., :, None]


def homeostasis_report(
    Z: np.ndarray, W: np.ndarray, beta: np.ndarray, x_new: np.ndarray
) -> HomeostasisReport:
    """Bias and residual-shift decomposition for a submodel fit on ``Z``.

    The full design is the column partition ``(Z, W)`` with true
    coefficients ``beta = (beta_1, beta_2)``; the submodel drops ``W``.
    ``x_new = (z_new, w_new)`` is partitioned the same way. Requires the
    true coefficients, so this is a simulation diagnostic, not an
    estimator.
    """
    Z = np.asarray(Z, dtype=float)
    W = np.asarray(W, dtype=float)
    beta = np.asarray(beta, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    q = Z.shape[1]
    p = q + W.shape[1]
    if beta.size != p or x_new.size != p:
        raise ValueError("beta and x_new must match the (Z, W) partition")
    beta2 = beta[q:]
    z_new, w_new = x_new[:q], x_new[q:]

    omitted = closed_form_scores(Z, W @ beta2, z_new[None, :])
    bias = float(omitted.point_prediction[0] - w_new @ beta2)
    shifts = (1.0 - omitted.leverage_cross[:, 0]) * omitted.deleted_residuals
    average_shift = float(np.mean(shifts))
    return HomeostasisReport(
        bias=bias,
        shifts=shifts,
        average_shift=average_shift,
        cancellation_gap=bias + average_shift,
    )


def width_ordering_trial(
    scenario: LinearScenario,
    n: int,
    alpha: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One paired draw of interval widths: full model versus drop-last submodel.

    Training data follow the linear scenario; the test covariate is pinned
    to the sample mean (including the intercept coordinate), where the
    ordering of the two widths is the cleanest. Returns
    ``(width_full, width_submodel)`` at level ``alpha``.
    """
    dataset, _ = draw_dataset(scenario, iid=True, rng=rng, n_train=n, n_test=0)
    x_bar = dataset.X.mean(axis=0)[None, :]
    full, sub = (
        OlsLearner(FeatureMap(kind, dataset.dim)).loo_scores(dataset, x_bar)
        for kind in ("linear", "first-only")
    )
    lower, upper, _ = interval_from_scores(np.hstack([full, sub]), alpha)
    width_full, width_sub = (upper - lower).tolist()
    return width_full, width_sub
