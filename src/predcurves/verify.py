"""Self-check suites wired to the command line ``verify`` command.

Each suite re-derives a core guarantee from an independent direction:
closed-form scores against brute-force refits, coverage against the
distribution-free floor, backprop against finite differences, hat-value
identities, and the conformal curve against the analytic Gaussian one.
All suites are seeded and finish quickly at their default sizes.
"""

from __future__ import annotations

import numpy as np

from .closed_form import closed_form_scores
from .conformal import Dataset, PredictiveResult, build_loo_ensemble, curve_grid
from .gaussian_toy import GaussianToySample, predictive_curve_toy
from .learners import FeatureMap, OlsLearner, adversarial_learner
from .linalg import least_squares
from .mlp import MlpArchitecture, _forward, _gradients, _init_params, _sse
from .rng import RngStream
from .scenarios import LinearScenario
from .studies import LearnerSpec, linear_learner_specs, run_coverage_study

SUITE_ORDER = (
    "oracle-equivalence",
    "prop1-umbrella",
    "gradient-check",
    "hat-trace",
    "toy-consistency",
)


def suite_oracle_equivalence(seed: int, instances: int = 20, tol: float = 1e-8):
    gen = RngStream(seed, 0).generator()
    worst = 0.0
    for _ in range(instances):
        n = int(gen.integers(10, 31))
        p = int(gen.integers(2, 5))
        X = np.hstack([np.ones((n, 1)), gen.standard_normal((n, p - 1))])
        y = gen.standard_normal(n)
        x_new = np.concatenate([[1.0], gen.standard_normal(p - 1)])[None, :]
        closed = closed_form_scores(X, y, x_new).scores
        # n refits; the linear feature map rebuilds X's intercept column exactly
        learner = OlsLearner(FeatureMap("linear", p - 1))
        refit = build_loo_ensemble(Dataset(X[:, 1:], y), learner, gen).scores(x_new[:, 1:])
        worst = max(worst, np.max(np.abs(closed - refit)))
    return worst < tol, f"max |closed-form - refit| = {worst:.2e}"


def suite_prop1_umbrella(seed: int, reps: int = 400, alpha: float = 0.10, n_train: int = 50):
    scenario = LinearScenario()
    specs = [s for s in linear_learner_specs() if s.learner_id in ("mu0", "mu3")]
    specs.append(LearnerSpec("adversarial", "fixed", adversarial_learner()))
    floor = (1.0 - 2.0 * alpha) - 3.0 * np.sqrt(2.0 * alpha * (1.0 - 2.0 * alpha) / reps)
    details = []
    ok = True
    for spec in specs:
        report = run_coverage_study(scenario, spec, alpha, reps, 1, seed, iid=True, n_train=n_train)
        details.append(f"{spec.label}={report.coverage:.3f}")
        ok = ok and report.coverage >= floor
    return ok, f"floor {floor:.3f}; " + ", ".join(details)


def suite_gradient_check(seed: int, instances: int = 30, tol: float = 1e-5):
    gen = RngStream(seed, 1).generator()
    arch = MlpArchitecture((3, 2, 1))
    step = 1e-5
    worst = 0.0
    checked = 0
    while checked < instances:
        params = _init_params(arch, gen, 1)  # a batch of one network
        X = gen.standard_normal((5, 3))
        y = gen.standard_normal(5)
        # stay away from ReLU kinks where the derivative is not defined
        pre1 = X @ params[0][0].T
        pre2 = np.maximum(pre1, 0.0) @ params[1][0].T
        if min(np.min(np.abs(pre1)), np.min(np.abs(pre2))) < 1e-3:
            continue
        checked += 1
        grads = _gradients(params, X, y, *_forward(params, X), None)
        for layer, grad in enumerate(grads):
            for idx in np.ndindex(grad.shape):
                plus = [W.copy() for W in params]
                minus = [W.copy() for W in params]
                plus[layer][idx] += step
                minus[layer][idx] -= step
                loss_plus = _sse(_forward(plus, X)[1], y, None)[0]
                loss_minus = _sse(_forward(minus, X)[1], y, None)[0]
                fd = (loss_plus - loss_minus) / (2 * step)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(fd - grad[idx]) / denom)
    return worst < tol, f"max relative error = {worst:.2e} over {instances} instances"


def suite_hat_trace(seed: int, designs: int = 50, tol: float = 1e-8):
    gen = RngStream(seed, 2).generator()
    worst = 0.0
    for _ in range(designs):
        n = int(gen.integers(8, 60))
        p = int(gen.integers(1, min(6, n)))
        X = gen.standard_normal((n, p))
        diag = least_squares(X, np.zeros(n)).hat_diag()
        worst = max(worst, abs(diag.sum() - p))
    return worst < tol, f"max |trace - p| = {worst:.2e}"


def suite_toy_consistency(seed: int, n: int = 2000, theta: float = 0.5, tol: float = 0.05):
    gen = RngStream(seed, 3).generator()
    y = theta + gen.standard_normal(n)
    dataset = Dataset(np.zeros((n, 1)), y)
    learner = OlsLearner(FeatureMap("intercept", input_dim=1))
    ensemble = build_loo_ensemble(dataset, learner, gen)
    result = PredictiveResult(ensemble.scores(np.zeros((1, 1)))[:, 0])
    toy = GaussianToySample.from_data(y)
    grid = curve_grid(result, 200)
    sup = max(abs(pv - predictive_curve_toy(toy, yy)) for yy, pv in grid)
    return sup < tol, f"sup |conformal - analytic| = {sup:.3f}"


def run_verify(seed: int) -> list[tuple[str, bool, str]]:
    suites = {
        "oracle-equivalence": suite_oracle_equivalence,
        "prop1-umbrella": suite_prop1_umbrella,
        "gradient-check": suite_gradient_check,
        "hat-trace": suite_hat_trace,
        "toy-consistency": suite_toy_consistency,
    }
    return [(name, *suites[name](seed)) for name in SUITE_ORDER]
