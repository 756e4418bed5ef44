"""Model-agnostic jackknife-plus conformal prediction.

For a training set of size n and any learner with a fit/predict pair, the
engine builds n leave-one-out models and their leave-one-out residuals
``R_i = y_i - m_i(x_i)`` (model ``m_i`` trained without row i). For a test
covariate ``x`` the conformal scores are

    s_i = m_i(x) + R_i,       i = 1..n.

The empirical step function ``Q(y) = #{i : y >= s_i} / n`` acts as a
predictive distribution for the unseen response, the predictive curve is
``PV(y) = 2 min(Q(y), 1 - Q(y))``, and the two-sided interval at level
``alpha`` takes the ``alpha/2`` and ``1 - alpha/2`` order-statistic
quantiles of the scores. Coverage of the interval is distribution free:
at least ``1 - 2 alpha`` under exchangeability of training and test
pairs, no matter how wrong the learner is, and close to ``1 - alpha`` in
typical settings.

The LOO ensemble never depends on the test point, so it is built once per
dataset and reused for every test covariate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quantiles import order_stat_index, order_stat_quantile
from .rng import RngStream, as_generator


@dataclass(frozen=True)
class Dataset:
    """Training sample: covariate rows ``X`` (n, d) and responses ``y`` (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y (n,) with matching n")
        if X.shape[0] < 2:
            raise ValueError("need at least 2 rows")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def drop_row(self, i: int) -> "Dataset":
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
    x_dim: int

    @property
    def n(self) -> int:
        return len(self.models)

    def prediction_matrix(self, X_new: np.ndarray) -> np.ndarray:
        """Stacked LOO predictions for several test rows; shape (n, m)."""
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        return np.stack([np.asarray(m.predict(X_new), dtype=float) for m in self.models])


@dataclass(frozen=True)
class PredictiveResult:
    """Conformal scores for one test covariate, with a cached sorted view."""

    scores: np.ndarray
    x_new: np.ndarray
    sorted_scores: np.ndarray = field(init=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "sorted_scores", np.sort(scores))

    @property
    def n(self) -> int:
        return self.scores.size


def require_loo_rows(dataset: Dataset) -> None:
    """Jackknife-plus needs at least 3 training rows, on every scoring path."""
    if dataset.n < 3:
        raise ValueError("conformal prediction needs at least 3 training rows")


def build_loo_ensemble(dataset: Dataset, learner, rng: RngStream | np.random.Generator) -> LooEnsemble:
    """Fit the n leave-one-out models and collect leave-one-out residuals.

    Learners that expose ``fit_loo(dataset, rng)`` (e.g. batched neural-net
    trainers) supply all n fits at once; otherwise each fold is refit
    directly. Randomized learners receive one independent substream per
    fold, so fold order and parallel schedules cannot change results.
    """
    require_loo_rows(dataset)
    gen = as_generator(rng)
    if hasattr(learner, "fit_loo"):
        models = list(learner.fit_loo(dataset, gen))
        if len(models) != dataset.n:
            raise RuntimeError("fit_loo returned the wrong number of models")
    else:
        substreams = gen.spawn(dataset.n)
        models = []
        for i in range(dataset.n):
            try:
                models.append(learner.fit(dataset.drop_row(i), substreams[i]))
            except Exception as exc:
                raise RuntimeError(f"leave-one-out fit failed for omitted index {i}") from exc
    residuals = np.empty(dataset.n)
    for i, model in enumerate(models):
        residuals[i] = dataset.y[i] - float(model.predict(dataset.X[i : i + 1])[0])
    return LooEnsemble(models=tuple(models), loo_residuals=residuals, x_dim=dataset.dim)


def conformal_scores(ensemble: LooEnsemble, x_new: np.ndarray) -> PredictiveResult:
    """Scores ``s_i = models[i].predict(x_new) + loo_residuals[i]``."""
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim != 1 or x_new.size != ensemble.x_dim:
        raise ValueError(f"x_new must have dimension {ensemble.x_dim}")
    scores = ensemble.prediction_matrix(x_new[None, :])[:, 0] + ensemble.loo_residuals
    return PredictiveResult(scores=scores, x_new=x_new)


def predictive_cdf(result: PredictiveResult, y):
    """Fraction of scores at or below ``y`` (scalar or array): the predictive distribution."""
    return np.searchsorted(result.sorted_scores, y, side="right") / result.n


def predictive_curve(result: PredictiveResult, y):
    """Two-sided curve ``2 min(Q(y), 1 - Q(y))``, in [0, 1]; scalar or array ``y``.

    Level sets ``{y : PV(y) >= alpha}`` stack the two-sided predictive
    intervals of every level; the peak marks a median-unbiased point
    prediction.
    """
    q = predictive_cdf(result, y)
    return 2.0 * np.minimum(q, 1.0 - q)


def interval_from_scores(scores: np.ndarray, alpha: float) -> tuple[float, float, bool]:
    """Two-sided interval ``(lower, upper, clamped)`` from the score order statistics.

    The endpoints are the ``alpha/2`` and ``1 - alpha/2`` quantiles of the
    scores. When ``n * alpha / 2 < 1`` they clamp to the extreme order
    statistics and ``clamped`` is set; the coverage guarantee is
    unaffected (the interval only widens).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    s = np.sort(np.asarray(scores, dtype=float))
    n = s.size
    lower = s[order_stat_index(n, alpha / 2.0) - 1]
    upper = s[order_stat_index(n, 1.0 - alpha / 2.0) - 1]
    return float(lower), float(upper), n * alpha / 2.0 < 1.0


def median_point_prediction(result: PredictiveResult) -> float:
    """Median of the scores: the left endpoint of the curve's peak region."""
    return order_stat_quantile(result.scores, 0.5)


def curve_grid(result: PredictiveResult, points: int) -> np.ndarray:
    """Predictive-curve evaluations on a grid; rows are ``(y, PV(y))``.

    The grid spans the score range padded by 10 percent on each side and
    additionally evaluates just below, at, and just above every score so
    the steps are captured exactly.
    """
    if points < 2:
        raise ValueError("points must be at least 2")
    s = result.sorted_scores
    span = s[-1] - s[0]
    pad = 0.1 * span if span > 0 else 0.1
    base = np.linspace(s[0] - pad, s[-1] + pad, points)
    eps = 1e-9 * max(1.0, float(np.max(np.abs(s))))
    ys = np.unique(np.concatenate([base, s - eps, s, s + eps]))
    pv = predictive_curve(result, ys)
    return np.column_stack([ys, pv])
