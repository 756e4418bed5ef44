"""Seeded Monte Carlo studies: coverage tables, parameter-error tables, curves.

Repetition r of a study draws its data from ``RngStream(seed, r)``, so
repetitions are independent, reproducible and schedule independent, and
every learner at the same ``(seed, rep)`` sees the identical dataset:
comparisons across learners are paired. Fitting randomness comes from
``labeled_generator`` streams, made on a learner's first draw
(``LazyGenerator``), or from ``spawn`` children, never from later draws
on that stream; the closed-form learners never draw, so their streams
are never made. The coverage tables draw the training rows once
per repetition and every law's test rows with ``draw_test_laws``, so
each learner is fitted once per repetition for all laws.

Every learner scores its own leave-one-out folds (``loo_scores``):
least squares and the fixed rule in closed form, networks through the
batched leave-one-out ensemble. ``run_studies`` draws a block of
``REPETITION_BLOCK`` repetitions, each from its own stream as above, and
asks each learner once for the block's scores: a least-squares learner
makes one stacked fit of the block's (R, n, p) designs, a network trains
each repetition in turn. Stacking saves numpy's per-call overhead and
moves no bit; the block bounds the memory a study holds, however many
repetitions it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .closed_form import FeatureMap, OlsLearner
from .conformal import Dataset, curve_grid, interval_from_scores, require_loo_rows, two_sided_curve
from .mlp import (
    OPT_MSE,
    SINGLE_RESTART,
    MlpArchitecture,
    MlpLearner,
    TrainerConfig,
)
from .rng import LazyGenerator, RngStream
from .scenarios import LinearScenario, NnScenario, draw_dataset, draw_test_laws

# repetitions scored together: ``ols-coverage``'s 20 are one block, a paper
# ``table1`` (200) takes seven, and memory stays flat in the repetition count
REPETITION_BLOCK = 32


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


# the shape of the network behind ``NnScenario``'s response surface
TRUE_SHAPE = MlpArchitecture((3, 2, 1))


def deep_architecture(depth: int) -> MlpArchitecture:
    """``depth`` weight layers: 3 inputs -> 20 x (depth - 1) -> 1."""
    if depth < 2:
        raise ValueError("deep architectures need at least 2 layers")
    return MlpArchitecture((3, *([20] * (depth - 1)), 1))


def nn_learner_specs(
    deep_depths: tuple[int, int],
    opt_config: TrainerConfig = OPT_MSE,
    single_config: TrainerConfig = SINGLE_RESTART,
) -> list[LearnerSpec]:
    """The five learners of the neural-network study.

    mu0 is the true two-layer shape, fitted both carefully (multi-restart)
    and with a single restart; mu1 is the partial one-layer net on the
    first two covariates; mu2 and mu3 are over-parametrized deep nets of
    the given depths; mu4 is intercept-only least squares.
    """
    partial = MlpArchitecture((2, 1))
    return [
        LearnerSpec("mu0", "opt-mse", MlpLearner(TRUE_SHAPE, opt_config), label="mu0-opt-mse"),
        LearnerSpec("mu0", "single", MlpLearner(TRUE_SHAPE, single_config), label="mu0-single"),
        LearnerSpec("mu1", "single", MlpLearner(partial, single_config, input_indices=(0, 1))),
        LearnerSpec("mu2", "single", MlpLearner(deep_architecture(deep_depths[0]), single_config)),
        LearnerSpec("mu3", "single", MlpLearner(deep_architecture(deep_depths[1]), single_config)),
        LearnerSpec("mu4", "ols", OlsLearner(FeatureMap("intercept", input_dim=3))),
    ]


def score_matrix(dataset: Dataset, learner, X_test: np.ndarray, gen) -> np.ndarray:
    """Conformal scores for every test row; shape (n_train, n_test).

    ``dataset`` may stack R repetitions, with ``X_test`` (R, m, d) and
    ``gen`` one generator per repetition; the scores are then (R, n, m).
    Checks the training and test rows of every repetition, then asks the
    learner for its scores.
    """
    require_loo_rows(dataset)
    X_test = np.asarray(X_test, dtype=float)
    stacked = dataset.X.shape[:-2]
    if X_test.ndim != dataset.X.ndim or X_test.shape[:-2] != stacked or X_test.shape[-1] != dataset.dim:
        raise ValueError(f"test rows must be an (m, {dataset.dim}) matrix, not {X_test.shape}")
    if not np.all(np.isfinite(X_test)):
        raise ValueError("test rows must be finite")
    return learner.loo_scores(dataset, X_test, gen)


def run_studies(
    scenario: LinearScenario | NnScenario,
    specs: list[LearnerSpec],
    alpha: float,
    reps: int,
    test_points_per_rep: int,
    seed: int,
    laws: tuple[bool, ...],
    n_train: int,
) -> list[MonteCarloReport]:
    """Empirical coverage and average width of every learner under every test law.

    ``laws`` holds one ``iid`` flag per test law; each repetition draws
    ``n_train`` training rows (a scenario's fields set only its law).

    Neither the training rows nor the fitting stream depends on the law,
    so each learner is fitted once per repetition and scored on the test
    rows of all laws together. The repetitions run in blocks of
    ``REPETITION_BLOCK``: a block's data are drawn first, repetition by
    repetition, then each learner scores the whole block in one call
    (``score_matrix`` on the stacked rows), which checks every
    repetition's rows before any fit. Rows are ordered by law, then by
    learner.
    """
    m = test_points_per_rep
    hits = [[0] * len(specs) for _ in laws]
    width_total = [[0.0] * len(specs) for _ in laws]
    for start in range(0, reps, REPETITION_BLOCK):
        block = range(start, min(start + REPETITION_BLOCK, reps))
        datasets, X_tests, y_tests = [], [], []
        for rep in block:
            gen = RngStream(seed, rep).generator()
            dataset, _ = draw_dataset(scenario, True, gen, n_train, 0)
            tests = draw_test_laws(scenario, laws, gen, m)
            datasets.append(dataset)
            X_tests.append(np.vstack([X for X, _ in tests]))
            y_tests.append(np.concatenate([y for _, y in tests]))
        data = Dataset(np.stack([d.X for d in datasets]), np.stack([d.y for d in datasets]))
        X_test, y_test = np.stack(X_tests), np.stack(y_tests)
        for s, spec in enumerate(specs):
            # data draws share the rep stream across learners (paired comparisons);
            # fitting randomness is keyed by the learner label so learners stay independent,
            # and is set up only for a learner that draws from it
            fit_gens = [LazyGenerator(seed, rep, spec.label) for rep in block]
            scores = score_matrix(data, spec.learner, X_test, fit_gens)
            lower, upper, _ = interval_from_scores(scores, alpha)
            inside = (lower <= y_test) & (y_test <= upper)
            widths = upper - lower
            for k in range(len(laws)):
                cols = slice(k * m, (k + 1) * m)
                hits[k][s] += int(inside[:, cols].sum())
                # left to right in repetition order: np.sum adds pairwise and could move the last bit
                for width in widths[:, cols].ravel().tolist():
                    width_total[k][s] += width
    evaluations = reps * m
    return [
        MonteCarloReport(
            scenario=f"{scenario.family}-{'iid' if iid else 'noniid'}",
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


def run_table_linear(
    seed: int,
    alpha: float = 0.05,
    *,
    n_train: int,
    reps: int,
    test_points: int = 1,
    scenario: LinearScenario | None = None,
) -> list[MonteCarloReport]:
    """Linear study: four learners under the iid and shifted test laws.

    ``scenario`` defaults to ``LinearScenario()``, whose fields set only
    the law; the sizes are the arguments.
    """
    scenario = scenario or LinearScenario()
    return run_studies(
        scenario, linear_learner_specs(), alpha, reps, test_points, seed, (True, False), n_train
    )


def run_table_nn(
    seed: int,
    alpha: float = 0.05,
    *,
    n_train: int,
    reps: int,
    test_points: int = 20,
    deep_depths: tuple[int, int],
    opt_config: TrainerConfig = OPT_MSE,
    single_config: TrainerConfig = SINGLE_RESTART,
) -> list[MonteCarloReport]:
    """Neural-network study: five learners (two fits of the true shape)."""
    specs = nn_learner_specs(deep_depths, opt_config, single_config)
    return run_studies(NnScenario(), specs, alpha, reps, test_points, seed, (True, False), n_train)


# first-layer weights row-major (hidden unit, input), then the output weights
PARAM_NAMES = ("l1_00", "l1_01", "l1_02", "l1_10", "l1_11", "l1_12", "l2_0", "l2_1")


def canonicalize_mlp(params: list) -> list:
    """Resolve the scale symmetry of a single-hidden-layer network.

    Positive homogeneity (``f(c t) = c f(t)`` for ``c > 0``) lets each
    hidden row of the first layer be rescaled with the reciprocal absorbed
    into the output layer without changing any prediction. Each hidden row
    is scaled by a positive factor so its largest absolute entry is 1;
    all-zero rows are left alone.
    """
    if len(params) != 2:
        raise ValueError("canonical form is defined for single-hidden-layer networks")
    a1 = np.array(params[0], dtype=float)
    a2 = np.array(params[1], dtype=float)
    if a2.shape != (1, a1.shape[0]):
        raise ValueError("output layer shape does not match the hidden layer")
    for row in range(a1.shape[0]):
        m = np.max(np.abs(a1[row]))
        if m > 0.0:
            a1[row] /= m
            a2[:, row] *= m
    return [a1, a2]


def nearest_reference_sq_err(params, references: list) -> np.ndarray:
    """Entrywise squared error, in ``PARAM_NAMES`` order, against the closest canonical reference.

    Each reference must already be canonical. The fitted parameters are
    canonicalized once, then compared with every reference under every
    order of the hidden units; the first pair with the smallest total
    squared distance wins.
    """
    a1, a2 = canonicalize_mlp(params)
    best = None
    for ref1, ref2 in references:
        for perm in permutations(range(a1.shape[0])):
            p = list(perm)
            err = np.concatenate([(a1[p] - ref1).ravel(), (a2[:, p] - ref2).ravel()]) ** 2
            if best is None or err.sum() < best.sum():
                best = err
    return best


def run_param_mse_study(
    seed: int,
    n_train: int,
    reps: int,
    opt_config: TrainerConfig = OPT_MSE,
    scenario: NnScenario | None = None,
) -> dict:
    """Estimation accuracy of the two fitting procedures on the true shape.

    Returns the mean over repetitions of each estimator's per-parameter
    squared error, ``{"opt-mse": (8,), "single": (8,)}`` in ``PARAM_NAMES``
    order. Fitted parameters are canonicalized (scale symmetry removed,
    hidden units aligned) and scored against the nearest member of the
    truth's equivalence class; without both steps per-parameter error is
    not well defined, see :meth:`NnScenario.equivalent_true_params`.
    """
    scenario = scenario or NnScenario()
    references = [canonicalize_mlp(p) for p in scenario.equivalent_true_params()]
    configs = {"opt-mse": opt_config, "single": SINGLE_RESTART}
    sums = {est: np.zeros(len(PARAM_NAMES)) for est in configs}
    for rep in range(reps):
        gen = RngStream(seed, rep).generator()
        dataset, _ = draw_dataset(scenario, iid=True, rng=gen, n_train=n_train, n_test=0)
        fit_streams = gen.spawn(len(configs))
        for (est, config), sub in zip(configs.items(), fit_streams):
            model = MlpLearner(TRUE_SHAPE, config).fit(dataset, sub)
            sums[est] += nearest_reference_sq_err(model.params, references)
    return {est: total / reps for est, total in sums.items()}


def oracle_curve_rows(mu_new: float, sigma: float, points: int) -> list[tuple[str, float, float]]:
    """Curve of the true response law ``N(mu_new, sigma^2)``.

    The grid includes the peak location itself so the curve attains 1.
    """
    from scipy.special import ndtr  # here, so that commands drawing no oracle curve load no scipy

    base = np.linspace(mu_new - 4.5 * sigma, mu_new + 4.5 * sigma, points)
    ys = np.union1d(base, [mu_new])
    pv = two_sided_curve(ndtr((ys - mu_new) / sigma))
    return [("oracle", float(y), float(p)) for y, p in zip(ys, pv)]


# the named test covariates of ``export_curves``
X_NEW_MODES = ("sample-mean", "iid-draw", "non-iid-draw")


def export_curves(
    scenario: LinearScenario | NnScenario,
    specs: list[LearnerSpec],
    x_new,
    grid_points: int,
    seed: int,
    n_train: int,
) -> list[tuple[str, float, float]]:
    """Predictive-curve rows ``(label, y, pv)`` for each learner plus the oracle.

    ``x_new`` selects the test covariate: ``"sample-mean"`` uses the mean
    of the generated training covariates, ``"iid-draw"`` / ``"non-iid-draw"``
    take one draw from the corresponding test law, and an explicit vector
    is used as is.
    """
    if isinstance(x_new, str) and x_new not in X_NEW_MODES:
        raise ValueError(f"unknown x_new selection {x_new!r}")
    gen = RngStream(seed, 0).generator()
    iid = not (isinstance(x_new, str) and x_new == "non-iid-draw")
    dataset, (X_test, _) = draw_dataset(scenario, iid, gen, n_train, 1)
    if isinstance(x_new, str):
        point = dataset.X.mean(axis=0) if x_new == "sample-mean" else X_test[0]
    else:
        point = np.asarray(x_new, dtype=float)

    rows: list[tuple[str, float, float]] = []
    fit_streams = gen.spawn(len(specs))
    for spec, sub in zip(specs, fit_streams):
        scores = score_matrix(dataset, spec.learner, point[None, :], sub)[:, 0]
        grid = curve_grid(scores, grid_points)
        rows.extend((spec.label, y, pv) for y, pv in grid.tolist())
    mu_new = float(scenario.mean_response(point[None, :])[0])
    rows.extend(oracle_curve_rows(mu_new, float(np.sqrt(scenario.sigma2)), grid_points))
    return rows
