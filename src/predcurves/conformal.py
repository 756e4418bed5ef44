"""Model-agnostic jackknife-plus conformal prediction.

For a training set of size n, model ``m_i`` is trained without row i and
``R_i = y_i - m_i(x_i)`` is its leave-one-out residual. For a test
covariate ``x`` the conformal scores are

    s_i = m_i(x) + R_i,       i = 1..n.

Learners compute these scores themselves (``loo_scores``); the ensemble
below trains the n models, for networks and as the brute-force reference.

The empirical step function ``Q(y) = #{i : y >= s_i} / n`` acts as a
predictive distribution for the unseen response, the predictive curve is
``PV(y) = 2 min(Q(y), 1 - Q(y))``, and the two-sided interval at level
``alpha`` takes the ``alpha/2`` and ``1 - alpha/2`` order-statistic
quantiles of the scores. Coverage of the interval is distribution free:
at least ``1 - 2 alpha`` under exchangeability of training and test
pairs, no matter how wrong the learner is, and close to ``1 - alpha`` in
typical settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantiles import check_two_sided_alpha, level_rank, order_stat_index


@dataclass(frozen=True)
class Dataset:
    """Training sample: covariate rows ``X`` (n, d) and responses ``y`` (n,).

    R repetitions' samples of one size stack as ``X`` (R, n, d) and ``y``
    (R, n); ``n`` and ``dim`` are then each repetition's.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim < 2 or X.shape[:-1] != y.shape:
            raise ValueError("X must be (n, d) and y (n,) with matching n")
        if X.shape[-2] < 2:
            raise ValueError("need at least 2 rows")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[-2]

    @property
    def dim(self) -> int:
        return self.X.shape[-1]

    def drop_row(self, i: int) -> "Dataset":
        """The sample without row i; one repetition's sample only."""
        return Dataset(np.delete(self.X, i, axis=0), np.delete(self.y, i))


@dataclass(frozen=True)
class LooEnsemble:
    """n leave-one-out models plus their leave-one-out residuals.

    ``models[i]`` was trained on the dataset minus row i, and
    ``loo_residuals[i] = y_i - models[i].predict(x_i)``. Independent of
    any test point.
    """

    models: tuple
    loo_residuals: np.ndarray

    def prediction_matrix(self, X_new: np.ndarray) -> np.ndarray:
        """Stacked LOO predictions for several test rows; shape (n, m)."""
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        return np.stack([np.asarray(m.predict(X_new), dtype=float) for m in self.models])

    def scores(self, X_new: np.ndarray) -> np.ndarray:
        """Conformal scores ``s_ij = models[i].predict(x_j) + loo_residuals[i]``; shape (n, m)."""
        return self.prediction_matrix(X_new) + self.loo_residuals[:, None]


def require_loo_rows(dataset: Dataset) -> None:
    """Jackknife-plus needs at least 3 training rows, on every scoring path."""
    if dataset.n < 3:
        raise ValueError("conformal prediction needs at least 3 training rows")


def build_loo_ensemble(dataset: Dataset, learner, rng: np.random.Generator) -> LooEnsemble:
    """Fit the n leave-one-out models and collect leave-one-out residuals.

    Learners that expose ``fit_loo(dataset, rng)`` supply all n fits at
    once (``MlpLearner.loo_scores`` comes here: its folds are n different
    networks, trained as one batch). Otherwise each fold is refit with its
    own substream, so fold order cannot change results; only the tests,
    ``verify.refit_ensemble`` and the benchmark's refit check take that
    brute-force branch.
    """
    require_loo_rows(dataset)
    if hasattr(learner, "fit_loo"):
        models = list(learner.fit_loo(dataset, rng))
    else:
        substreams = rng.spawn(dataset.n)
        models = []
        for i in range(dataset.n):
            try:
                models.append(learner.fit(dataset.drop_row(i), substreams[i]))
            except Exception as exc:
                raise RuntimeError(f"leave-one-out fit failed for omitted index {i}") from exc
    residuals = np.empty(dataset.n)
    for i, model in enumerate(models):
        residuals[i] = dataset.y[i] - float(model.predict(dataset.X[i : i + 1])[0])
    return LooEnsemble(models=tuple(models), loo_residuals=residuals)


def predictive_cdf(scores: np.ndarray, y):
    """Fraction of the (n,) scores at or below ``y`` (scalar or array): the predictive law Q."""
    s = np.sort(np.asarray(scores, dtype=float))
    return np.searchsorted(s, y, side="right") / s.size


def two_sided_curve(cdf):
    """The two-sided curve ``2 min(F, 1 - F)`` of distribution-function values ``F``."""
    return 2.0 * np.minimum(cdf, 1.0 - cdf)


def predictive_curve(scores: np.ndarray, y):
    """Two-sided curve ``2 min(Q(y), 1 - Q(y))``, in [0, 1]; scalar or array ``y``.

    Level sets ``{y : PV(y) >= alpha}`` stack the two-sided predictive
    intervals of every level; the peak marks a median-unbiased point
    prediction.
    """
    return two_sided_curve(predictive_cdf(scores, y))


def interval_from_scores(
    scores: np.ndarray, alpha: float
) -> tuple[float | np.ndarray, float | np.ndarray, bool]:
    """Two-sided intervals ``(lower, upper, clamped)`` from the score order statistics.

    ``scores`` is (n,) for one test point, (n, m) with one column per
    test point, or (R, n, m) for R repetitions; ``lower`` and ``upper`` are
    then scalars, (m,) or (R, m) arrays. The endpoints are the ``alpha/2``
    and ``1 - alpha/2`` quantiles of each column. When
    ``level_rank(n, alpha / 2) < 1`` they clamp to the extreme order
    statistics and ``clamped`` is set; the coverage guarantee is
    unaffected (the interval only widens).
    """
    check_two_sided_alpha(alpha)
    scores = np.asarray(scores, dtype=float)
    axis = 0 if scores.ndim == 1 else -2
    s = np.sort(scores, axis=axis)
    n = s.shape[axis]
    lower = np.take(s, order_stat_index(n, alpha / 2.0) - 1, axis=axis)
    upper = np.take(s, order_stat_index(n, 1.0 - alpha / 2.0) - 1, axis=axis)
    return lower, upper, level_rank(n, alpha / 2.0) < 1.0


def curve_grid(scores: np.ndarray, points: int) -> np.ndarray:
    """Predictive-curve evaluations of the (n,) ``scores`` on a grid; rows are ``(y, PV(y))``.

    The grid spans the score range padded by 10 percent on each side and
    additionally evaluates just below, at, and just above every score so
    the steps are captured exactly. Returns a (k, 2) array whose ys are
    strictly increasing; ``perfbench``'s tracer counts its ``len`` as
    ``conformal.curve_grid.points``, so the shape stays.
    """
    if points < 2:
        raise ValueError("points must be at least 2")
    s = np.sort(np.asarray(scores, dtype=float))
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    span = s[-1] - s[0]
    pad = 0.1 * span if span > 0 else 0.1
    base = np.linspace(s[0] - pad, s[-1] + pad, points)
    eps = 1e-9 * max(1.0, float(np.max(np.abs(s))))
    ys = np.unique(np.concatenate([base, s - eps, s, s + eps]))
    pv = predictive_curve(s, ys)
    return np.column_stack([ys, pv])
