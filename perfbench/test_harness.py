"""Smoke test of the benchmark harness at tiny sizes (a few seconds).

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from predcurves import studies  # noqa: E402

SPEC = run.load_spec()


def _contract(result: dict, metrics: dict, kind: str) -> dict:
    return json.loads(run.contract_line({**result, "metrics": metrics}, SPEC[kind]))


@pytest.fixture(scope="module")
def setups() -> list[float]:
    return [run.setup_seconds()]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(name, setups):
    wl = workloads.make(name, "tiny")
    result, _ = worker.measure(wl, seed=1, seconds=0.0, trace=False)
    assert result["failed"] == 0, result["failures"]
    line = _contract(result, run.end_to_end(result, setups), "end_to_end")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())

    traced, _ = worker.measure(wl, seed=1, seconds=0.0, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    line = _contract(traced, traced["per_layer"], "per_layer")
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert line["metrics"]["trace.accounted_frac"]["value"] == pytest.approx(1.0, abs=0.05)


def test_same_seed_gives_same_inputs():
    wl = workloads.make("deep-loo-paper", "tiny")
    assert np.array_equal(wl.case(5, 3)[0].X, wl.case(5, 3)[0].X)
    assert sorted(wl.case(5, i)[0].X[0, 0] for i in range(wl.pool)) == sorted(wl.case(6, i)[0].X[0, 0] for i in range(wl.pool))
    ols = workloads.make("ols-coverage")
    assert [ols.case(5, i) for i in range(3)] == [ols.case(5, i) for i in range(3)] != [ols.case(6, i) for i in range(3)]


def test_injected_failing_ops_raise_failed_frac():
    wl = workloads.make("ols-coverage", "tiny")
    real, calls = wl.run, itertools.count()

    def faulty(case):
        k = next(calls)
        if k % 3 == 1:
            raise RuntimeError("injected")
        return real(case) + ("corrupted" if k % 3 == 2 else "")

    wl.run = faulty
    result, _ = worker.measure(wl, seed=0, seconds=0.3, trace=False)
    assert result["attempted"] >= 3
    assert result["failed"] == sum(k % 3 != 0 for k in range(result["attempted"]))
    metrics = run.end_to_end(result, [1.0])
    assert metrics["failed_frac"] == result["failed"] / result["attempted"] > 0.5
    assert not _contract(result, metrics, "end_to_end")["correct"]


def test_non_finite_scores_fail_the_op():
    wl = workloads.make("deep-loo-paper", "tiny")
    real = wl.run
    wl.run = lambda case: real(case) * np.nan
    result, _ = worker.measure(wl, seed=0, seconds=0.0, trace=False)
    assert result["failed"] == result["attempted"] == 1
    assert "non-finite" in result["failures"][0]


def test_traced_run_produces_parented_spans():
    wl = workloads.make("nn-desk", "tiny")
    original = studies.score_matrix
    result, tr = worker.measure(wl, seed=2, seconds=0.0, trace=True)
    assert studies.score_matrix is original, "wrappers must be removed after each traced op"
    spans = tr.spans
    roots = [s for s in spans if s[3] == -1]
    assert roots and all(s[0] == tracer.ROOT for s in roots)
    for layer, start, end, parent, op in spans:
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start <= end <= p[2] and p[4] == op
    layers = {s[0] for s in spans}
    assert {"scenarios", "rng", "studies.score_matrix", "conformal.loo_ensemble", "mlp.train_batched",
            "mlp.predict", "conformal.prediction_matrix", "closed_form.interval", "emit"} <= layers
    totals = tr.layer_totals()
    root_time = sum(e - s for _, s, e, parent, _ in spans if parent == -1)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root_time, rel=1e-9)
    metrics = result["per_layer"]
    assert metrics["mlp.train_batched.networks"] > 0 and metrics["emit.bytes"] > 0
    assert metrics["quantiles.clamped"] > 0  # n=12 at alpha=0.05 clamps every interval
