"""The benchmark's four workloads: how each op's inputs are made, the op, and its check.

An op is one call of a workload's public entry point, plus the emitter
the CLI would call on its result. Op ``i`` takes case (study seed)
``(start + i) % pool``, where the workload seed picks ``start``, so the
same seed gives the same ops. A run of the two slow workloads holds
about one pass over their small pools, so every run sees nearly the
same mix of cases, whose costs and peak memory differ (networks whose
ReLUs die at initialization retire at once). The two fast workloads
have pools larger than a run.

Three workloads compare each op's output with a reference recorded by
``record.py`` for every case of the pool.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from predcurves import conformal, emit, scenarios, studies
from predcurves.mlp import MlpLearner, TrainerConfig
from predcurves.rng import RngStream, labeled_generator

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# MLP outputs may move in their last bits under an algebraically equal
# rewrite of the trainer, which at worst flips one of the 20 test points
# in or out of an interval. Swapping the gradient einsum for batched
# matmul left every emitted coverage and width of all 16 cases unchanged.
NN_COVERAGE_TOL = 0.05
NN_WIDTH_REL_TOL = 0.01
REFIT_TOL = 1e-8
CURVE_MODES = ("sample-mean", "iid-draw", "non-iid-draw")


def seeded(name: str, seed: int, *keys: int) -> np.random.Generator:
    """Generator keyed by workload name, workload seed and further keys (an op index)."""
    return np.random.default_rng([zlib.crc32(name.encode()), seed, *keys])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Workload:
    """Base: ``case`` makes an op's inputs, ``run`` is the timed op, ``check`` returns a failure reason or None."""

    name = ""
    size = "full"

    def params(self) -> dict:
        return asdict(self)

    def prepare(self) -> None:
        """Untimed set-up before the first op."""

    def case(self, seed: int, i: int):
        start = int(seeded(self.name, seed).integers(self.pool))
        return (start + i) % self.pool

    def run(self, case):
        raise NotImplementedError

    def check(self, case, out) -> str | None:
        raise NotImplementedError


class RecordedWorkload(Workload):
    """Checks each op's output against the one recorded for its case."""

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}-{self.size}.json"

    def prepare(self) -> None:
        """Load the recorded outputs; refuses a file recorded at other sizes."""
        with open(self.reference_path(), encoding="utf-8") as fh:
            ref = json.load(fh)
        if ref["params"] != self.params():
            raise ValueError(f"{self.reference_path().name} was recorded for {ref['params']}, not {self.params()}")
        self.reference = {int(k): v for k, v in ref["cases"].items()}

    def summarize(self, out):
        """What the reference stores for one op's output."""
        return digest(out)

    def check(self, case, out) -> str | None:
        if self.summarize(out) != self.reference[case]:
            return f"case {case}: output differs from the reference"
        return None


@dataclass
class OlsCoverage(RecordedWorkload):
    """``run_table_linear`` (4 OLS learners, iid and shifted laws) plus CSV emission."""

    n_train: int = 300
    reps: int = 20
    test_points: int = 1
    pool: int = 512
    size: str = "full"
    name = "ols-coverage"

    def run(self, case: int) -> str:
        rows = studies.run_table_linear(case, n_train=self.n_train, reps=self.reps, test_points=self.test_points)
        return emit.emit_results(rows, "csv", None)

    def check(self, case: int, out: str) -> str | None:
        """Bytes equal the reference, and on one seeded dataset the closed form equals brute-force refits."""
        reason = super().check(case, out)
        if reason is not None:
            return reason
        gen = np.random.default_rng(case)
        iid = bool(gen.integers(2))
        spec = studies.linear_learner_specs()[gen.integers(4)]
        rep = int(gen.integers(self.reps))
        gap = refit_gap(case, rep, iid, spec.learner, self.n_train, self.test_points)
        if not gap <= REFIT_TOL:
            return f"case {case}: closed form differs from refits by {gap:.3g} ({spec.learner_id}, rep {rep})"
        return None


def refit_gap(seed: int, rep: int, iid: bool, learner, n_train: int, test_points: int) -> float:
    """Largest gap between closed-form scores and n brute-force leave-one-out refits.

    The dataset is the one ``run_coverage_study`` draws for ``(seed, rep)``.
    """
    gen = RngStream(seed, rep).generator()
    dataset, (X_test, _) = scenarios.gen_linear(
        scenarios.LinearScenario(), iid, gen, n_train=n_train, n_test=test_points
    )
    closed = studies.score_matrix(dataset, learner, X_test, None)
    ensemble = conformal.build_loo_ensemble(dataset, learner, np.random.default_rng(0))
    refit = ensemble.prediction_matrix(X_test) + ensemble.loo_residuals[:, None]
    return float(np.max(np.abs(closed - refit)))


@dataclass
class CurvesExport(RecordedWorkload):
    """``export_curves`` on the linear scenario, test-point modes in rotation, plus CSV emission."""

    n_train: int = 300
    grid_points: int = 400
    pool: int = 1024
    size: str = "full"
    name = "curves-export"

    def run(self, case: int) -> str:
        rows = studies.export_curves(
            scenarios.LinearScenario(),
            studies.linear_learner_specs(),
            x_new=CURVE_MODES[case % len(CURVE_MODES)],
            grid_points=self.grid_points,
            seed=case,
            n_train=self.n_train,
        )
        return emit.emit_curves(rows, None)


@dataclass
class NnDesk(RecordedWorkload):
    """``run_table_nn`` (all six learner specs, both laws, one repetition) plus CSV emission.

    Trainer budgets are cut from 5000/500 iterations so an op takes
    seconds, not a minute; both trainer regimes (thousands of tiny
    multi-restart nets, and n deep single-restart nets) stay in the op.
    """

    n_train: int = 100
    depth: int = 5
    test_points: int = 20
    opt_iterations: int = 20
    single_iterations: int = 10
    pool: int = 16
    size: str = "full"
    name = "nn-desk"

    def run(self, case: int) -> str:
        rows = studies.run_table_nn(
            case,
            n_train=self.n_train,
            reps=1,
            test_points=self.test_points,
            deep_depths=(self.depth, self.depth),
            opt_config=TrainerConfig(max_iterations=self.opt_iterations),
            single_config=TrainerConfig(restarts=1, max_iterations=self.single_iterations),
        )
        return emit.emit_results(rows, "csv", None)

    def summarize(self, out: str) -> list:
        return [[r["scenario"], r["learner"], r["estimator"], float(r["coverage"]), float(r["avg_width"])]
                for r in csv.DictReader(io.StringIO(out))]

    def check(self, case: int, out: str) -> str | None:
        """Same rows as the reference, with coverage and width within tolerance."""
        got, want = self.summarize(out), self.reference[case]
        if [g[:3] for g in got] != [w[:3] for w in want]:
            return f"case {case}: rows differ from the reference"
        for g, w in zip(got, want):
            if not (math.isfinite(g[4]) and abs(g[3] - w[3]) <= NN_COVERAGE_TOL + 1e-9
                    and abs(g[4] - w[4]) <= NN_WIDTH_REL_TOL * abs(w[4])):
                return f"case {case}: {'/'.join(g[:3])} coverage {g[3]} width {g[4]} vs reference {w[3]} {w[4]}"
        return None


@dataclass
class DeepLooPaper(Workload):
    """``score_matrix`` of a depth-20 single-restart net: n leave-one-out fits at paper size.

    The trainer runs a short fixed iteration budget, so an op times the
    per-iteration cost and memory of the paper's ``mu2`` learner.
    """

    n_train: int = 300
    depth: int = 20
    test_points: int = 20
    iterations: int = 2
    pool: int = 8
    size: str = "full"
    name = "deep-loo-paper"

    def case(self, seed: int, i: int):
        study_seed = super().case(seed, i)
        dataset, (X_test, _) = scenarios.gen_nn(
            scenarios.NnScenario(n_train=self.n_train), study_seed % 2 == 0, RngStream(study_seed, 0).generator(),
            n_train=self.n_train, n_test=self.test_points,
        )
        learner = MlpLearner(studies.deep_architecture(self.depth), TrainerConfig(restarts=1, max_iterations=self.iterations))
        return dataset, learner, X_test, labeled_generator(study_seed, 0, "mu2")

    def run(self, case) -> np.ndarray:
        dataset, learner, X_test, fit_gen = case
        return studies.score_matrix(dataset, learner, X_test, fit_gen)

    def check(self, case, out) -> str | None:
        if out.shape != (self.n_train, self.test_points):
            return f"scores have shape {out.shape}"
        if not np.all(np.isfinite(out)):
            return "non-finite scores"
        return None


def make(name: str, size: str = "full") -> Workload:
    """The named workload at full size, or at ``tiny`` size for the smoke test."""
    tiny = {
        "ols-coverage": dict(n_train=30, reps=2, pool=4),
        "curves-export": dict(n_train=30, grid_points=20, pool=6),
        "nn-desk": dict(n_train=12, depth=3, test_points=4, opt_iterations=5, single_iterations=5, pool=2),
        "deep-loo-paper": dict(n_train=12, depth=3, test_points=4, pool=2),
    }
    cls = WORKLOADS[name]
    return cls(size="tiny", **tiny[name]) if size == "tiny" else cls()


WORKLOADS = {cls.name: cls for cls in (OlsCoverage, NnDesk, DeepLooPaper, CurvesExport)}
