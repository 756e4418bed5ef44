"""Seeded Monte Carlo studies: coverage tables, parameter-error tables, curves.

Each repetition r of a study runs on the stream ``RngStream(seed, r)``,
so repetitions are independent, reproducible, and schedule independent.
Within a repetition the draw order is fixed (training data, test data,
then any fitting randomness), which means every learner evaluated at the
same ``(seed, rep)`` sees the identical dataset: coverage and width
comparisons across learners are paired. The training rows come first in
every scenario's draw order, so the iid and shifted test laws of one
repetition share them too, and the coverage tables fit each learner
once per repetition for both laws.

Least-squares learners take the closed-form scoring path; all other
learners go through the generic leave-one-out engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .closed_form import closed_form_scores
from .conformal import (
    Dataset,
    PredictiveResult,
    build_loo_ensemble,
    curve_grid,
    interval_from_scores,
    require_loo_rows,
)
from .learners import FeatureMap, OlsLearner
from .mlp import (
    OPT_MSE,
    SINGLE_RESTART,
    MlpArchitecture,
    MlpLearner,
    TrainerConfig,
    canonicalize_mlp,
)
from .rng import RngStream, labeled_generator
from .scenarios import LinearScenario, NnScenario, gen_linear, gen_nn


@dataclass(frozen=True)
class MonteCarloReport:
    """One (scenario, learner, estimator) cell of a coverage table."""

    scenario: str
    learner: str
    estimator: str
    alpha: float
    n_train: int
    reps: int
    test_points: int
    coverage: float
    avg_width: float
    seed: int


@dataclass(frozen=True)
class LearnerSpec:
    """Learner plus the identifiers it reports under."""

    learner_id: str
    estimator_id: str
    learner: object
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.learner_id)


def linear_learner_specs() -> list[LearnerSpec]:
    """The four least-squares learners of the linear study.

    mu0 regresses on both covariates, mu1 drops the second, mu2 replaces
    the first covariate by its square, mu3 is intercept only.
    """
    kinds = {"mu0": "linear", "mu1": "first-only", "mu2": "first-squared", "mu3": "intercept"}
    return [
        LearnerSpec(lid, "ols", OlsLearner(FeatureMap(kind, input_dim=2)))
        for lid, kind in kinds.items()
    ]


def deep_architecture(depth: int, width: int = 20, input_dim: int = 3) -> MlpArchitecture:
    """``depth`` weight layers: input -> width x (depth - 1) -> 1."""
    if depth < 2:
        raise ValueError("deep architectures need at least 2 layers")
    return MlpArchitecture((input_dim, *([width] * (depth - 1)), 1))


def nn_learner_specs(
    deep_depths: tuple[int, int] = (5, 5),
    opt_config: TrainerConfig = OPT_MSE,
    single_config: TrainerConfig = SINGLE_RESTART,
) -> list[LearnerSpec]:
    """The five learners of the neural-network study.

    mu0 is the true two-layer shape, fitted both carefully (multi-restart)
    and with a single restart; mu1 is the partial one-layer net on the
    first two covariates; mu2 and mu3 are over-parametrized deep nets of
    the given depths; mu4 is intercept-only least squares.
    """
    shallow = MlpArchitecture((3, 2, 1))
    partial = MlpArchitecture((2, 1))
    return [
        LearnerSpec("mu0", "opt-mse", MlpLearner(shallow, opt_config), label="mu0-opt-mse"),
        LearnerSpec("mu0", "single", MlpLearner(shallow, single_config), label="mu0-single"),
        LearnerSpec("mu1", "single", MlpLearner(partial, single_config, input_indices=(0, 1))),
        LearnerSpec("mu2", "single", MlpLearner(deep_architecture(deep_depths[0]), single_config)),
        LearnerSpec("mu3", "single", MlpLearner(deep_architecture(deep_depths[1]), single_config)),
        LearnerSpec("mu4", "ols", OlsLearner(FeatureMap("intercept", input_dim=3))),
    ]


def _generate(scenario, iid: bool, gen, n_train: int, n_test: int):
    if isinstance(scenario, LinearScenario):
        return gen_linear(scenario, iid, gen, n_train=n_train, n_test=n_test)
    if isinstance(scenario, NnScenario):
        return gen_nn(scenario, iid, gen, n_train=n_train, n_test=n_test)
    raise TypeError(f"unknown scenario type {type(scenario)!r}")


def _scenario_id(scenario, iid: bool) -> str:
    family = "linear" if isinstance(scenario, LinearScenario) else "nn"
    return f"{family}-{'iid' if iid else 'noniid'}"


def score_matrix(dataset: Dataset, learner, X_test: np.ndarray, gen) -> np.ndarray:
    """Conformal scores for every test row; shape (n_train, n_test).

    Every path first checks that ``X_test`` is an (m, d) matrix of finite
    rows. Least-squares learners use the closed-form identity on the
    expanded design; everything else builds the leave-one-out ensemble
    once and reuses it across test points.
    """
    require_loo_rows(dataset)
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2 or X_test.shape[1] != dataset.dim:
        raise ValueError(f"test rows must be an (m, {dataset.dim}) matrix, not {X_test.shape}")
    if not np.all(np.isfinite(X_test)):
        raise ValueError("test rows must be finite")
    if isinstance(learner, OlsLearner):
        expand = learner.feature_map.expand_matrix
        return closed_form_scores(expand(dataset.X), dataset.y, expand(X_test)).scores
    ensemble = build_loo_ensemble(dataset, learner, gen)
    return ensemble.prediction_matrix(X_test) + ensemble.loo_residuals[:, None]


def _run_studies(
    scenario,
    specs: list[LearnerSpec],
    alpha: float,
    reps: int,
    test_points_per_rep: int,
    seed: int,
    laws: tuple[bool, ...],
    n_train: int | None,
) -> list[MonteCarloReport]:
    """Coverage and width of every learner under every test law (``iid`` flags).

    Neither the training rows nor the fitting stream depends on the law,
    so each learner is fitted once per repetition and scored on the test
    rows of all laws together. Rows are ordered by law, then by learner.
    """
    n_train = scenario.n_train if n_train is None else n_train
    m = test_points_per_rep
    hits = [[0] * len(specs) for _ in laws]
    width_total = [[0.0] * len(specs) for _ in laws]
    for rep in range(reps):
        draws = [
            _generate(scenario, iid, RngStream(seed, rep).generator(), n_train, m) for iid in laws
        ]
        dataset = draws[0][0]
        X_test = np.vstack([X for _, (X, _) in draws])
        for s, spec in enumerate(specs):
            # data draws share the rep stream across learners (paired comparisons);
            # fitting randomness is keyed by the learner label so learners stay independent
            fit_gen = labeled_generator(seed, rep, spec.label)
            scores = score_matrix(dataset, spec.learner, X_test, fit_gen)
            for k, (_, (_, y_test)) in enumerate(draws):
                for j in range(m):
                    lower, upper, _ = interval_from_scores(scores[:, k * m + j], alpha)
                    hits[k][s] += int(lower <= y_test[j] <= upper)
                    width_total[k][s] += upper - lower
    evaluations = reps * m
    return [
        MonteCarloReport(
            scenario=_scenario_id(scenario, iid),
            learner=spec.learner_id,
            estimator=spec.estimator_id,
            alpha=alpha,
            n_train=n_train,
            reps=reps,
            test_points=m,
            coverage=hits[k][s] / evaluations,
            avg_width=width_total[k][s] / evaluations,
            seed=seed,
        )
        for k, iid in enumerate(laws)
        for s, spec in enumerate(specs)
    ]


def run_coverage_study(
    scenario,
    spec: LearnerSpec,
    alpha: float,
    reps: int,
    test_points_per_rep: int,
    seed: int,
    iid: bool,
    n_train: int | None = None,
) -> MonteCarloReport:
    """Empirical coverage and average width over seeded repetitions."""
    (report,) = _run_studies(
        scenario, [spec], alpha, reps, test_points_per_rep, seed, (iid,), n_train
    )
    return report


def run_table_linear(
    seed: int,
    alpha: float = 0.05,
    n_train: int = 300,
    reps: int = 200,
    test_points: int = 1,
    scenario: LinearScenario | None = None,
) -> list[MonteCarloReport]:
    """Linear study: four learners under the iid and shifted test laws.

    ``scenario`` defaults to ``LinearScenario()``; its ``n_train`` is
    ignored in favour of the argument.
    """
    scenario = scenario or LinearScenario()
    return _run_studies(
        scenario, linear_learner_specs(), alpha, reps, test_points, seed, (True, False), n_train
    )


def run_table_nn(
    seed: int,
    alpha: float = 0.05,
    n_train: int = 100,
    reps: int = 5,
    test_points: int = 20,
    deep_depths: tuple[int, int] = (5, 5),
    opt_config: TrainerConfig = OPT_MSE,
    single_config: TrainerConfig = SINGLE_RESTART,
) -> list[MonteCarloReport]:
    """Neural-network study: five learners (two fits of the true shape)."""
    specs = nn_learner_specs(deep_depths, opt_config, single_config)
    return _run_studies(
        NnScenario(n_train=n_train), specs, alpha, reps, test_points, seed, (True, False), n_train
    )


@dataclass(frozen=True)
class ParamMseTable:
    """Per-parameter squared error of the fitted true-shape network."""

    param_names: tuple[str, ...]
    mse: dict
    reps: int
    n_train: int
    seed: int


def _flatten_two_layer(params) -> np.ndarray:
    return np.concatenate([np.asarray(params[0]).ravel(), np.asarray(params[1]).ravel()])


def nearest_reference_sq_err(params, references: list) -> np.ndarray:
    """Entrywise squared error against the closest canonical reference.

    Each reference must already be canonical; the fitted parameters are
    canonicalized and permutation-aligned against every reference and the
    one with the smallest total squared distance wins.
    """
    best = None
    for ref in references:
        aligned = canonicalize_mlp(params, reference=ref)
        err = (_flatten_two_layer(aligned) - _flatten_two_layer(ref)) ** 2
        if best is None or err.sum() < best.sum():
            best = err
    return best


def run_param_mse_study(
    seed: int,
    n_train: int = 300,
    reps: int = 10,
    opt_config: TrainerConfig = OPT_MSE,
    single_config: TrainerConfig = SINGLE_RESTART,
    scenario: NnScenario | None = None,
) -> ParamMseTable:
    """Estimation accuracy of the two fitting procedures on the true shape.

    Fitted parameters are canonicalized (scale symmetry removed, hidden
    units aligned) and scored against the nearest member of the truth's
    equivalence class; without both steps per-parameter error is not well
    defined, see :meth:`NnScenario.equivalent_true_params`.
    """
    scenario = scenario or NnScenario(n_train=n_train)
    references = [canonicalize_mlp(p) for p in scenario.equivalent_true_params()]
    arch = scenario.architecture
    names = tuple(
        [f"l1_{r}{c}" for r in range(2) for c in range(3)] + [f"l2_{r}" for r in range(2)]
    )
    configs = {"opt-mse": opt_config, "single": single_config}
    sums = {est: np.zeros(8) for est in configs}
    for rep in range(reps):
        gen = RngStream(seed, rep).generator()
        dataset, _ = gen_nn(scenario, iid=True, rng=gen, n_train=n_train, n_test=0)
        fit_streams = gen.spawn(len(configs))
        for (est, config), sub in zip(configs.items(), fit_streams):
            model = MlpLearner(arch, config).fit(dataset, sub)
            sums[est] += nearest_reference_sq_err(model.params, references)
    mse = {est: total / reps for est, total in sums.items()}
    return ParamMseTable(param_names=names, mse=mse, reps=reps, n_train=n_train, seed=seed)


def oracle_curve_rows(mu_new: float, sigma: float, points: int) -> list[tuple[str, float, float]]:
    """Curve of the true response law ``N(mu_new, sigma^2)``.

    The grid includes the peak location itself so the curve attains 1.
    """
    base = np.linspace(mu_new - 4.5 * sigma, mu_new + 4.5 * sigma, points)
    ys = np.union1d(base, [mu_new])
    q = ndtr((ys - mu_new) / sigma)
    pv = 2.0 * np.minimum(q, 1.0 - q)
    return [("oracle", float(y), float(p)) for y, p in zip(ys, pv)]


def export_curves(
    scenario,
    specs: list[LearnerSpec],
    x_new="sample-mean",
    grid_points: int = 400,
    seed: int = 0,
    n_train: int | None = None,
) -> list[tuple[str, float, float]]:
    """Predictive-curve rows ``(label, y, pv)`` for each learner plus the oracle.

    ``x_new`` selects the test covariate: ``"sample-mean"`` uses the mean
    of the generated training covariates, ``"iid-draw"`` / ``"non-iid-draw"``
    take one draw from the corresponding test law, and an explicit vector
    is used as is.
    """
    n_train = scenario.n_train if n_train is None else n_train
    gen = RngStream(seed, 0).generator()
    iid = not (isinstance(x_new, str) and x_new == "non-iid-draw")
    dataset, (X_test, _) = _generate(scenario, iid, gen, n_train, 1)
    if isinstance(x_new, str):
        if x_new == "sample-mean":
            point = dataset.X.mean(axis=0)
        elif x_new in ("iid-draw", "non-iid-draw"):
            point = X_test[0]
        else:
            raise ValueError(f"unknown x_new selection {x_new!r}")
    else:
        point = np.asarray(x_new, dtype=float)

    rows: list[tuple[str, float, float]] = []
    fit_streams = gen.spawn(len(specs))
    for spec, sub in zip(specs, fit_streams):
        scores = score_matrix(dataset, spec.learner, point[None, :], sub)[:, 0]
        grid = curve_grid(PredictiveResult(scores=scores, x_new=point), grid_points)
        rows.extend((spec.label, float(y), float(pv)) for y, pv in grid)
    mu_new = float(scenario.mean_response(point[None, :])[0])
    rows.extend(oracle_curve_rows(mu_new, float(np.sqrt(scenario.sigma2)), grid_points))
    return rows
