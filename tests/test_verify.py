"""The shared independent-route checks can fail: each catches a planted fault."""

from dataclasses import replace

import numpy as np

import predcurves.verify as verify
from predcurves.rng import RngStream


def test_gradient_error_catches_scaled_backprop(monkeypatch):
    assert verify.gradient_error(RngStream(2, 0).generator(), 10) < 1e-5
    original = verify._gradients
    monkeypatch.setattr(verify, "_gradients", lambda *args: [1.01 * g for g in original(*args)])
    assert verify.gradient_error(RngStream(2, 0).generator(), 10) > 1e-5


def test_refit_gap_catches_scaled_closed_form(monkeypatch):
    gen = RngStream(100, 0).generator()
    X = np.column_stack([np.ones(25), gen.standard_normal((25, 2))])
    y = gen.standard_normal(25)
    X_new = np.column_stack([np.ones(3), gen.standard_normal((3, 2))])
    assert verify.refit_gap(X, y, X_new) < 1e-8
    original = verify.closed_form_scores

    def scaled(*args):
        result = original(*args)
        return replace(result, scores=result.scores * (1.0 + 1e-6))

    monkeypatch.setattr(verify, "closed_form_scores", scaled)
    assert verify.refit_gap(X, y, X_new) > 1e-8


def test_toy_gap_catches_shifted_analytic_curve(monkeypatch):
    y = 0.5 + RngStream(0, 3).generator().standard_normal(2000)  # verify --seed 0's sample
    assert verify.toy_gap(y, 200) < 0.05
    original = verify.predictive_curve_toy
    monkeypatch.setattr(verify, "predictive_curve_toy", lambda *args: original(*args) + 0.1)
    assert verify.toy_gap(y, 200) > 0.05


def test_run_verify_runs_the_five_suites_in_order():
    names = [name for name, _, _ in verify.run_verify(0)]
    assert names == [
        "oracle-equivalence",
        "prop1-umbrella",
        "gradient-check",
        "hat-trace",
        "toy-consistency",
    ]


def test_rank_oracle_holds_the_exchangeable_learners():
    # intercept-only least squares and the fixed rule score the responses up to a
    # shift the test response shares, so their iid coverage is exactly rank_coverage
    exact = verify.rank_coverage(50, verify.UMBRELLA_ALPHA)
    assert exact == 45 / 51
    reps = 2000
    se = np.sqrt(exact * (1.0 - exact) / reps)
    coverages = verify.umbrella_coverages(8, reps)
    for label in ("mu3", "adversarial"):
        assert abs(coverages[label] - exact) <= 3.0 * se, (label, coverages[label])
