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

This module also quantifies the bias/shift bookkeeping behind interval
validity under a wrong submodel: dropping covariates biases the point
prediction, but the leave-one-out residuals pick up an opposite shift,
and at the covariate mean the two nearly cancel. The report separates
the two terms so their cancellation (and its failure under covariate
shift) can be measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import interval_from_scores
from .linalg import least_squares, solve_upper
from .scenarios import LinearScenario, draw_dataset


@dataclass(frozen=True)
class ClosedFormScores:
    """Conformal scores of a least-squares learner: (n, m) for m test rows."""

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
    w_perp: np.ndarray


def closed_form_scores(X: np.ndarray, y: np.ndarray, X_new: np.ndarray) -> ClosedFormScores:
    """Jackknife-plus scores on design ``X`` at the (m, p) test rows ``X_new``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    X_new = np.asarray(X_new, dtype=float)
    fit = least_squares(X, y)
    u = (y - X @ fit.beta) / (1.0 - fit.hat_diag())
    cross = fit.hat_cross_many(X_new)
    pred = X_new @ fit.beta
    return ClosedFormScores(
        beta_hat=fit.beta,
        deleted_residuals=u,
        leverage_cross=cross,
        point_prediction=pred,
        scores=pred[None, :] + (1.0 - cross) * u[:, None],
    )


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

    fit = least_squares(Z, np.zeros(Z.shape[0]))
    g_diag = fit.hat_diag()
    g_cross = fit.hat_cross_many(z_new[None, :])[:, 0]
    # coefficients of regressing each W column on Z, and the residual part of W
    coef = solve_upper(fit.r, fit.q.T @ W)
    w_perp = W - fit.q @ (fit.q.T @ W)

    bias = float(-w_new @ beta2 + z_new @ (coef @ beta2))
    shifts = ((1.0 - g_cross) / (1.0 - g_diag)) * (w_perp @ beta2)
    average_shift = float(np.mean(shifts))
    return HomeostasisReport(
        bias=bias,
        shifts=shifts,
        average_shift=average_shift,
        cancellation_gap=bias + average_shift,
        w_perp=w_perp,
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
    ones = np.ones((n, 1))
    X = np.hstack([ones, dataset.X])
    Z = X[:, :2]
    x_bar = X.mean(axis=0)[None, :]
    full = closed_form_scores(X, dataset.y, x_bar).scores
    sub = closed_form_scores(Z, dataset.y, x_bar[:, :2]).scores
    lower, upper, _ = interval_from_scores(np.hstack([full, sub]), alpha)
    width_full, width_sub = (upper - lower).tolist()
    return width_full, width_sub
