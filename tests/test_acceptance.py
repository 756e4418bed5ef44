"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Seeds are fixed; every run is deterministic.
"""

import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from predcurves.closed_form import homeostasis_report, width_ordering_trial
from predcurves.cli import main
from predcurves.gaussian_toy import GaussianToySample, confidence_cdf, confidence_curve
from predcurves.gaussian_toy import predictive_curve_toy
from predcurves.rng import RngStream
from predcurves.scenarios import LinearScenario, draw_dataset
from predcurves.studies import run_param_mse_study, run_table_linear, run_table_nn
from predcurves.verify import UMBRELLA_ALPHA, coverage_floor, gradient_error, refit_gap
from predcurves.verify import toy_gap, umbrella_coverages

TABLE1_SEED = 8
TABLE2_SEED = 6
TABLE3_SEED = 1
UMBRELLA_SEED = 8


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_closed_form_oracle_equivalence():
    start = time.time()
    gen = RngStream(1000, 0).generator()
    worst = 0.0
    for _ in range(50):
        n = int(gen.integers(8, 41))
        p = int(gen.integers(2, 6))
        X = np.hstack([np.ones((n, 1)), gen.standard_normal((n, p - 1))])
        y = gen.standard_normal(n)
        x_new = np.concatenate([[1.0], gen.standard_normal(p - 1)])[None, :]
        worst = max(worst, refit_gap(X, y, x_new))
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(1, ok, f"max deviation {worst:.2e} over 50 instances in {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_2_coverage_floor_umbrella():
    start = time.time()
    reps = 2000
    floor = coverage_floor(UMBRELLA_ALPHA, reps)
    coverages = umbrella_coverages(UMBRELLA_SEED, reps)
    elapsed = time.time() - start
    ok = (
        all(c >= floor for c in coverages.values())
        and 0.86 <= coverages["mu0"] <= 0.99
        and elapsed < 60.0
    )
    detail = ", ".join(f"{k}={v:.3f}" for k, v in coverages.items())
    _report(2, ok, f"floor {floor:.3f}; {detail}; {elapsed:.0f}s")
    for label, cov in coverages.items():
        assert cov >= floor, f"{label} below distribution-free floor"
    assert 0.86 <= coverages["mu0"] <= 0.99
    assert elapsed < 60.0


# Target cells for the linear coverage table. They are the paper's intervals
# at alpha = 0.025 (distribution-free guarantee 1 - 2*alpha = 95%) with the
# shifted covariates drawn from N((2, 2), [[1, .8], [.8, 1]]), a unit-scale
# law. A level change scales every width by one factor, and no other single
# cause does: at alpha = 0.05 all 8 widths here are 9-14% below the paper's
# (mu0 3.93 vs 4.42, mu3 10.41 vs 12.15), at alpha = 0.025 they are within
# -1%..+4%. The widths do not depend on the shifted law; the shifted
# coverages do: with the default 1/2-scale law their large-n limits at
# alpha = 0.025 are 0.87 (mu1) and 0.23 (mu2/mu3), with the unit scale 0.82
# and 0.30. At 200 repetitions a shifted cell's coverage has a standard
# error near 0.033, so the +-0.04 tolerance needs TABLE1_REPS repetitions.
TABLE1_ALPHA = 0.025
TABLE1_REPS = 2000
TABLE1_SCENARIO = LinearScenario(cov_shift_scale=1.0)
TABLE1_COVERAGE = {
    ("linear-iid", "mu0"): 0.985,
    ("linear-iid", "mu1"): 0.96,
    ("linear-iid", "mu2"): 0.98,
    ("linear-iid", "mu3"): 0.98,
    ("linear-noniid", "mu0"): 0.985,
    ("linear-noniid", "mu1"): 0.81,
    ("linear-noniid", "mu2"): 0.345,
    ("linear-noniid", "mu3"): 0.33,
}
TABLE1_WIDTH = {
    ("linear-iid", "mu0"): 4.420,
    ("linear-iid", "mu1"): 6.957,
    ("linear-iid", "mu2"): 11.697,
    ("linear-iid", "mu3"): 12.147,
    ("linear-noniid", "mu0"): 4.421,
    ("linear-noniid", "mu1"): 6.957,
    ("linear-noniid", "mu2"): 11.280,
    ("linear-noniid", "mu3"): 12.147,
}


def test_criterion_3_table1_reproduction():
    start = time.time()
    rows = run_table_linear(
        seed=TABLE1_SEED,
        alpha=TABLE1_ALPHA,
        n_train=300,
        reps=TABLE1_REPS,
        scenario=TABLE1_SCENARIO,
    )
    elapsed = time.time() - start
    failures = []
    cells = []
    for row in rows:
        key = (row.scenario, row.learner)
        cov_ref, w_ref = TABLE1_COVERAGE[key], TABLE1_WIDTH[key]
        cells.append(
            f"{key} coverage {row.coverage:.3f} vs {cov_ref}, "
            f"width {row.avg_width:.3f} vs {w_ref}"
        )
        if abs(row.coverage - cov_ref) > 0.04 + 1e-9:
            failures.append(f"{key} coverage {row.coverage:.3f} vs {cov_ref}+-0.04")
        if abs(row.avg_width - w_ref) > 0.20 * w_ref:
            failures.append(f"{key} width {row.avg_width:.3f} vs {w_ref}+-20%")
    ok = not failures and elapsed < 300.0
    _report(3, ok, f"{len(failures)} cell(s) outside tolerance in {elapsed:.0f}s")
    for cell in cells:
        print(f"    criterion 3 measured vs paper: {cell}")
    for f in failures:
        print(f"    criterion 3 deviation: {f}")
    assert elapsed < 300.0
    assert not failures, "; ".join(failures)


def test_criterion_4_width_ordering():
    scenario = LinearScenario()
    wider = 0
    for rep in range(200):
        w_full, w_sub = width_ordering_trial(scenario, 300, 0.05, RngStream(1004, rep).generator())
        wider += int(w_sub > w_full)
    frac = wider / 200
    full, sub = [], []
    for rep in range(50):
        w_full, w_sub = width_ordering_trial(scenario, 2000, 0.05, RngStream(1005, rep).generator())
        full.append(w_full)
        sub.append(w_sub)
    z975 = ndtri(0.975)
    target_full = 2 * z975
    target_sub = 2 * z975 * np.sqrt(1.0 + 4.0 * 0.375)
    mean_full, mean_sub = np.mean(full), np.mean(sub)
    ok = (
        frac >= 0.95
        and abs(mean_full - target_full) <= 0.10 * target_full
        and abs(mean_sub - target_sub) <= 0.10 * target_sub
    )
    _report(
        4,
        ok,
        f"submodel wider in {frac:.0%} of trials; limits {mean_full:.3f}/{mean_sub:.3f} "
        f"vs {target_full:.2f}/{target_sub:.2f}",
    )
    assert frac >= 0.95
    assert mean_full == pytest.approx(target_full, rel=0.10)
    assert mean_sub == pytest.approx(target_sub, rel=0.10)


def test_criterion_5_homeostasis_cancellation():
    scenario = LinearScenario()
    medians = {}
    ok = True
    details = []
    for n in (100, 200, 400):
        gaps, biases = [], []
        for rep in range(100):
            gen = RngStream(1006, rep).generator()
            dataset, _ = draw_dataset(scenario, True, gen, n_train=n, n_test=0)
            report = homeostasis_report(
                dataset.X[:, :1], dataset.X[:, 1:], np.array(scenario.beta[1:]),
                dataset.X.mean(axis=0),
            )
            gaps.append(abs(report.cancellation_gap))
            biases.append(abs(report.bias))
        medians[n] = (float(np.median(gaps)), float(np.median(biases)))
        ratio = medians[n][0] / medians[n][1]
        details.append(f"n={n}: ratio {ratio:.3f}")
        ok = ok and ratio < 0.10
    gap_medians = [medians[n][0] for n in (100, 200, 400)]
    monotone = gap_medians[0] > gap_medians[1] > gap_medians[2]
    ok = ok and monotone
    _report(5, ok, "; ".join(details) + f"; medians decreasing: {monotone}")
    for n in (100, 200, 400):
        assert medians[n][0] < 0.10 * medians[n][1]
    assert monotone


def test_criterion_6_table3_desk_scale():
    rows = run_table_nn(seed=TABLE3_SEED, alpha=0.05, n_train=100, reps=5,
                        test_points=20, deep_depths=(5, 5))
    cells = {(r.scenario, r.learner, r.estimator): r for r in rows}
    failures = []
    for (scenario, learner, estimator), row in cells.items():
        if scenario == "nn-iid" and row.coverage < 0.90:
            failures.append(f"iid {learner}/{estimator} coverage {row.coverage:.2f} < 0.90")
    for learner in ("mu2", "mu3"):
        row = cells[("nn-noniid", learner, "single")]
        if row.coverage > 0.85:
            failures.append(f"noniid deep {learner} coverage {row.coverage:.2f} > 0.85")
    opt = cells[("nn-noniid", "mu0", "opt-mse")]
    single = cells[("nn-noniid", "mu0", "single")]
    if opt.coverage < 0.90:
        failures.append(f"noniid mu0/opt-mse coverage {opt.coverage:.2f} < 0.90")
    if not opt.avg_width < single.avg_width:
        failures.append(
            f"opt width {opt.avg_width:.2f} not below single width {single.avg_width:.2f}"
        )
    ok = not failures
    _report(6, ok, f"{len(failures)} deviation(s) at desk scale")
    for f in failures:
        print(f"    criterion 6 deviation: {f}")
    assert not failures, "; ".join(failures)


def test_criterion_7_parameter_error_contrast():
    mse = run_param_mse_study(seed=TABLE2_SEED, n_train=300, reps=10)
    opt_total = float(mse["opt-mse"].sum())
    single_total = float(mse["single"].sum())
    ratio = opt_total / single_total
    ok = ratio < 0.25
    _report(7, ok, f"aggregate {opt_total:.2f} vs {single_total:.2f} (ratio {ratio:.3f})")
    assert ratio < 0.25


def test_criterion_8_gradient_check():
    start = time.time()
    worst = gradient_error(RngStream(1008, 0).generator(), 100)
    elapsed = time.time() - start
    ok = worst < 1e-5 and elapsed < 10.0
    _report(8, ok, f"max relative error {worst:.2e} over 100 instances in {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_criterion_9_gaussian_toy():
    # (a) the confidence distribution evaluated at the truth is uniform
    gen = RngStream(1009, 0).generator()
    theta = 0.0
    values = [
        confidence_cdf(GaussianToySample.from_data(theta + gen.standard_normal(5)), theta)
        for _ in range(10_000)
    ]
    ks = stats.kstest(values, "uniform").statistic

    # (b) conformal curve converges to the analytic one
    y = theta + RngStream(1009, 1).generator().standard_normal(2000)
    sup = toy_gap(y, 300)

    # (c) curve level sets sit exactly at the Gaussian quantiles
    sample = GaussianToySample(ybar=1.35, n=5)
    half_conf = ndtri(0.975) / np.sqrt(sample.n)
    half_pred = ndtri(0.975) * np.sqrt(1.0 + 1.0 / sample.n)
    level_err = max(
        abs(confidence_curve(sample, sample.ybar - half_conf) - 0.05),
        abs(confidence_curve(sample, sample.ybar + half_conf) - 0.05),
        abs(predictive_curve_toy(sample, sample.ybar - half_pred) - 0.05),
        abs(predictive_curve_toy(sample, sample.ybar + half_pred) - 0.05),
    )
    ok = ks < 0.02 and sup < 0.05 and level_err < 1e-10
    _report(9, ok, f"KS {ks:.4f}; conformal sup gap {sup:.3f}; level-set error {level_err:.1e}")
    assert ks < 0.02
    assert sup < 0.05
    assert level_err < 1e-10


def test_criterion_10_byte_determinism(tmp_path):
    runs = {
        "table1": ["table1", "--seed", "5", "--n-train", "60", "--reps", "5"],
        "table2": ["table2", "--seed", "5", "--n-train", "50", "--reps", "1", "--restarts", "3"],
        "table3": ["table3", "--seed", "5", "--n-train", "30", "--reps", "1", "--depth", "3",
                   "--restarts", "2"],
    }
    ok = True
    details = []
    for name, argv in runs.items():
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        assert main([*argv, "--out", str(first)]) == 0
        assert main([*argv, "--out", str(second)]) == 0
        same = first.read_bytes() == second.read_bytes()
        ok = ok and same
        details.append(f"{name}: {'identical' if same else 'DIFFER'}")
    _report(10, ok, "; ".join(details))
    assert ok
