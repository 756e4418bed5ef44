"""Independent-route checks, and the command line ``verify`` suites built on them.

Each check re-derives a core guarantee from an independent direction and
returns the number it measures: closed-form scores against brute-force
refits (``refit_gap``), coverage against the distribution-free floor
(``umbrella_coverages``, ``coverage_floor``) and the exact rank value
(``rank_coverage``), backprop against finite differences
(``gradient_error``), and the conformal curve against the analytic
Gaussian one (``toy_gap``). The ``verify`` suites and the test suite call
these same functions, each at its own streams and sizes, so they cannot
drift apart. All suites are seeded and finish quickly.
"""

from __future__ import annotations

import numpy as np

from .closed_form import FeatureMap, FixedRuleLearner, OlsLearner, closed_form_scores
from .conformal import Dataset, LooEnsemble, build_loo_ensemble, curve_grid
from .gaussian_toy import GaussianToySample, predictive_curve_toy
from .linalg import least_squares
from .mlp import _forward, _gradients, _init_params, _sse
from .quantiles import order_stat_index
from .rng import RngStream
from .scenarios import LinearScenario
from .studies import TRUE_SHAPE, LearnerSpec, linear_learner_specs, run_studies

UMBRELLA_ALPHA = 0.10


def refit_ensemble(X: np.ndarray, y: np.ndarray) -> LooEnsemble:
    """n least-squares refits, each with one row left out; least squares draws no randomness.

    ``X`` starts with an intercept column, which the ``linear`` feature map
    rebuilds exactly from the remaining columns.
    """
    learner = OlsLearner(FeatureMap("linear", input_dim=X.shape[1] - 1))
    return build_loo_ensemble(Dataset(X[:, 1:], y), learner, RngStream(0).generator())


def refit_gap(X: np.ndarray, y: np.ndarray, X_new: np.ndarray) -> float:
    """Largest |closed-form - refit| score; ``X`` and the (m, p) ``X_new`` lead with ones."""
    closed = closed_form_scores(X, y, X_new).scores
    refit = refit_ensemble(X, y).scores(X_new[:, 1:])
    return float(np.max(np.abs(closed - refit)))


def coverage_floor(alpha: float, reps: int) -> float:
    """The 1 - 2 alpha guarantee less three binomial standard errors over ``reps`` points."""
    return (1.0 - 2.0 * alpha) - 3.0 * np.sqrt(2.0 * alpha * (1.0 - 2.0 * alpha) / reps)


def rank_coverage(n: int, alpha: float) -> float:
    """Exact iid coverage ``(hi - lo) / (n + 1)`` of scores exchangeable with the response.

    The response's rank among the n scores is then uniform on 1..n + 1 (Lei et al.,
    JASA 2018). Intercept-only least squares scores ``y_i``, and the fixed rule
    ``y_i`` shifted as the response is, so both qualify.
    """
    return (order_stat_index(n, 1.0 - alpha / 2.0) - order_stat_index(n, alpha / 2.0)) / (n + 1)


def umbrella_coverages(seed: int, reps: int) -> dict[str, float]:
    """Iid coverage at level ``UMBRELLA_ALPHA`` of a good, a wrong and an adversarial learner."""
    specs = [s for s in linear_learner_specs() if s.learner_id in ("mu0", "mu3")]
    specs.append(LearnerSpec("adversarial", "fixed", FixedRuleLearner(-1000.0)))
    reports = run_studies(LinearScenario(), specs, UMBRELLA_ALPHA, reps, 1, seed, (True,), 50)
    return {s.label: report.coverage for s, report in zip(specs, reports)}


def gradient_error(gen: np.random.Generator, instances: int) -> float:
    """Largest relative error of backprop against central differences.

    Each instance is a ``TRUE_SHAPE`` network and a 5-row sample drawn from
    ``gen``; draws near a ReLU kink, where the derivative is not defined,
    are skipped and do not count.
    """
    step = 1e-5
    errors = []
    checked = 0
    while checked < instances:
        params = _init_params(TRUE_SHAPE, gen, 1)  # a batch of one network
        X = gen.standard_normal((5, 3))
        y = gen.standard_normal(5)
        pre1 = X @ params[0][0].T
        pre2 = np.maximum(pre1, 0.0) @ params[1][0].T
        if min(np.min(np.abs(pre1)), np.min(np.abs(pre2))) < 1e-3:
            continue
        checked += 1
        acts, out = _forward(params, X)
        grads = _gradients(params, X, acts, out - y)
        for layer, grad in enumerate(grads):
            for idx in np.ndindex(grad.shape):
                plus = [W.copy() for W in params]
                minus = [W.copy() for W in params]
                plus[layer][idx] += step
                minus[layer][idx] -= step
                loss_plus = _sse(_forward(plus, X)[1] - y)[0]
                loss_minus = _sse(_forward(minus, X)[1] - y)[0]
                fd = (loss_plus - loss_minus) / (2 * step)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                errors.append(abs(fd - grad[idx]) / denom)
    return float(np.max(errors))  # np.max, unlike max, lets a NaN through


def toy_gap(y: np.ndarray, points: int) -> float:
    """Sup gap between the conformal and the analytic Gaussian curve of ``y`` on a grid."""
    learner = OlsLearner(FeatureMap("intercept", input_dim=1))
    scores = learner.loo_scores(Dataset(np.zeros((y.size, 1)), y), np.zeros((1, 1)))[:, 0]
    ys, pv = curve_grid(scores, points).T
    return float(np.max(np.abs(pv - predictive_curve_toy(GaussianToySample.from_data(y), ys))))


def suite_oracle_equivalence(seed: int) -> tuple[bool, str]:
    gen = RngStream(seed, 0).generator()
    worst = 0.0
    for _ in range(20):
        n = int(gen.integers(10, 31))
        p = int(gen.integers(2, 5))
        X = np.hstack([np.ones((n, 1)), gen.standard_normal((n, p - 1))])
        y = gen.standard_normal(n)
        x_new = np.concatenate([[1.0], gen.standard_normal(p - 1)])[None, :]
        worst = max(worst, refit_gap(X, y, x_new))
    return worst < 1e-8, f"max |closed-form - refit| = {worst:.2e}"


def suite_prop1_umbrella(seed: int) -> tuple[bool, str]:
    reps = 400
    floor = coverage_floor(UMBRELLA_ALPHA, reps)
    coverages = umbrella_coverages(seed, reps)
    ok = all(c >= floor for c in coverages.values())
    details = ", ".join(f"{label}={c:.3f}" for label, c in coverages.items())
    return ok, f"floor {floor:.3f}; {details}"


def suite_gradient_check(seed: int) -> tuple[bool, str]:
    worst = gradient_error(RngStream(seed, 1).generator(), 30)
    return worst < 1e-5, f"max relative error = {worst:.2e} over 30 instances"


def suite_hat_trace(seed: int) -> tuple[bool, str]:
    gen = RngStream(seed, 2).generator()
    worst = 0.0
    for _ in range(50):
        n = int(gen.integers(8, 60))
        p = int(gen.integers(1, min(6, n)))
        X = gen.standard_normal((n, p))
        diag = least_squares(X, np.zeros(n)).hat_diag()
        worst = max(worst, abs(diag.sum() - p))
    return worst < 1e-8, f"max |trace - p| = {worst:.2e}"


def suite_toy_consistency(seed: int) -> tuple[bool, str]:
    y = 0.5 + RngStream(seed, 3).generator().standard_normal(2000)
    sup = toy_gap(y, 200)
    return sup < 0.05, f"sup |conformal - analytic| = {sup:.3f}"


SUITES = (
    ("oracle-equivalence", suite_oracle_equivalence),
    ("prop1-umbrella", suite_prop1_umbrella),
    ("gradient-check", suite_gradient_check),
    ("hat-trace", suite_hat_trace),
    ("toy-consistency", suite_toy_consistency),
)


def run_verify(seed: int) -> list[tuple[str, bool, str]]:
    return [(name, *suite(seed)) for name, suite in SUITES]
