import hashlib
import inspect
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from predcurves import closed_form, studies
from predcurves.cli import main
from predcurves.conformal import Dataset, curve_grid
from predcurves.closed_form import FeatureMap, FixedRuleLearner, OlsLearner
from predcurves.mlp import MlpArchitecture, MlpLearner, TrainerConfig
from predcurves.rng import RngStream
from predcurves.scenarios import LinearScenario, NnScenario, draw_dataset
from predcurves.studies import (
    PARAM_NAMES,
    LearnerSpec,
    canonicalize_mlp,
    deep_architecture,
    export_curves,
    linear_learner_specs,
    nearest_reference_sq_err,
    nn_learner_specs,
    run_param_mse_study,
    run_studies,
    run_table_linear,
    run_table_nn,
    score_matrix,
)
from predcurves.verify import coverage_floor, umbrella_coverages


class TestLearnerSpecs:
    def test_linear_registry(self):
        specs = {s.learner_id: s for s in linear_learner_specs()}
        assert set(specs) == {"mu0", "mu1", "mu2", "mu3"}
        assert all(s.estimator_id == "ols" for s in specs.values())

    def test_nn_registry(self):
        specs = nn_learner_specs((5, 7))
        labels = [s.label for s in specs]
        assert labels == ["mu0-opt-mse", "mu0-single", "mu1", "mu2", "mu3", "mu4"]
        assert specs[3].learner.architecture.widths == (3, 20, 20, 20, 20, 1)
        assert specs[4].learner.architecture.widths == (3, 20, 20, 20, 20, 20, 20, 1)

    def test_deep_architecture_validation(self):
        with pytest.raises(ValueError):
            deep_architecture(1)


# ids name the scoring route: closed form, n fold fits (a network, whose input
# checks fire before it draws or trains anything) and the fixed rule's one model
SCORING_PATHS = pytest.mark.parametrize(
    "learner",
    [
        OlsLearner(FeatureMap("intercept", input_dim=2)),
        MlpLearner(MlpArchitecture((2, 1)), TrainerConfig(restarts=1, max_iterations=5)),
        FixedRuleLearner(0.0),
    ],
    ids=["closed-form", "refit", "fixed-rule"],
)
CLOSED_FORM = [OlsLearner(FeatureMap("linear", input_dim=2)), FixedRuleLearner(-1000.0)]


class TestScoreMatrix:
    def test_fast_path_matches_engine(self):
        scenario = LinearScenario()
        gen = RngStream(400, 0).generator()
        dataset, (X_test, _) = draw_dataset(scenario, True, gen, n_train=30, n_test=4)
        learner = OlsLearner(FeatureMap("linear", input_dim=2))
        fast = score_matrix(dataset, learner, X_test, gen)

        from predcurves.conformal import build_loo_ensemble

        ensemble = build_loo_ensemble(dataset, learner, gen)
        for j in range(4):
            engine = ensemble.scores(X_test[j : j + 1])[:, 0]
            np.testing.assert_allclose(fast[:, j], engine, atol=1e-8)

    @SCORING_PATHS
    def test_every_path_needs_three_rows(self, learner):
        dataset = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="at least 3 training rows"):
            score_matrix(dataset, learner, np.zeros((1, 2)), np.random.default_rng(0))

    @SCORING_PATHS
    @pytest.mark.parametrize(
        "X_test, message",
        [
            (np.zeros(2), r"must be an \(m, 2\) matrix"),
            (np.zeros((1, 3)), r"must be an \(m, 2\) matrix"),
            (np.zeros((1, 1, 2)), r"must be an \(m, 2\) matrix"),
            (np.array([[0.0, np.nan]]), "must be finite"),
            (np.array([[np.inf, 0.0]]), "must be finite"),
        ],
        ids=["1-d", "3-columns", "3-d", "nan", "inf"],
    )
    def test_every_path_checks_test_rows(self, learner, X_test, message):
        dataset = Dataset(np.arange(8.0).reshape(4, 2) ** 2, np.arange(4.0))
        with pytest.raises(ValueError, match=message):
            score_matrix(dataset, learner, X_test, np.random.default_rng(0))

    @pytest.mark.parametrize("learner", CLOSED_FORM, ids=["ols", "fixed-rule"])
    def test_closed_form_learners_draw_nothing(self, learner):
        gen = RngStream(401, 0).generator()
        dataset = Dataset(gen.standard_normal((10, 2)), gen.standard_normal(10))
        X_test = gen.standard_normal((3, 2))
        before = pickle.dumps(gen)  # bit state and spawn count
        assert score_matrix(dataset, learner, X_test, gen).shape == (10, 3)
        assert pickle.dumps(gen) == before

    def test_no_production_path_refits(self, monkeypatch):
        def refuse(self, i):
            raise AssertionError("a production path refit a leave-one-out fold")

        monkeypatch.setattr(Dataset, "drop_row", refuse)
        assert set(umbrella_coverages(3, 5)) == {"mu0", "mu3", "adversarial"}
        assert len(run_table_linear(seed=3, n_train=20, reps=3)) == 8


class TestCoverageStudy:
    def test_report_fields(self):
        scenario = LinearScenario()
        spec = linear_learner_specs()[0]
        (report,) = run_studies(scenario, [spec], 0.1, 20, 1, 42, (True,), n_train=60)
        assert report.scenario == "linear-iid"
        assert report.learner == "mu0"
        assert report.estimator == "ols"
        assert report.reps == 20 and report.test_points == 1
        assert 0.0 <= report.coverage <= 1.0
        assert report.avg_width > 0.0
        assert report.seed == 42

    def test_deterministic(self):
        scenario = LinearScenario()
        spec = linear_learner_specs()[2]
        a = run_studies(scenario, [spec], 0.1, 15, 2, 9, (False,), n_train=50)
        b = run_studies(scenario, [spec], 0.1, 15, 2, 9, (False,), n_train=50)
        assert a == b

    def test_zero_learner_keeps_guarantee(self):
        # distribution-free floor holds even for a learner that predicts 0
        scenario = LinearScenario()
        alpha, reps = 0.2, 150
        spec = LearnerSpec("zero", "fixed", FixedRuleLearner(0.0))
        (report,) = run_studies(scenario, [spec], alpha, reps, 1, 3, (True,), n_train=40)
        floor = coverage_floor(alpha, reps)
        assert report.coverage >= floor

    def test_typical_coverage_near_nominal(self):
        scenario = LinearScenario()
        spec = linear_learner_specs()[0]
        (report,) = run_studies(scenario, [spec], 0.05, 200, 1, 12, (True,), n_train=300)
        assert 1 - 0.05 - 0.04 <= report.coverage <= 1.0

    def test_paired_datasets_across_learners(self):
        # same (seed, rep) stream means both learners face identical data;
        # their widths are then ordered rep by rep, not just on average
        scenario = LinearScenario()
        mu0 = linear_learner_specs()[0]
        mu3 = linear_learner_specs()[3]
        (r0,) = run_studies(scenario, [mu0], 0.05, 30, 1, 21, (True,), n_train=120)
        (r3,) = run_studies(scenario, [mu3], 0.05, 30, 1, 21, (True,), n_train=120)
        assert r3.avg_width > r0.avg_width


class TestTableLinear:
    def test_runs_and_orders_widths(self):
        rows = run_table_linear(seed=77, n_train=120, reps=40)
        assert len(rows) == 8
        iid = {r.learner: r for r in rows if r.scenario == "linear-iid"}
        assert iid["mu0"].avg_width < iid["mu1"].avg_width < iid["mu2"].avg_width
        assert iid["mu0"].avg_width < iid["mu3"].avg_width

    def test_paper_scale_invariants(self):
        rows = run_table_linear(seed=8, n_train=300, reps=200)
        iid = {r.learner: r for r in rows if r.scenario == "linear-iid"}
        noniid = {r.learner: r for r in rows if r.scenario == "linear-noniid"}
        # coverage floor for every learner under iid sampling
        alpha, reps = 0.05, 200
        floor = coverage_floor(alpha, reps)
        assert all(r.coverage >= floor for r in iid.values())
        # width ordering with a margin of 3 width standard errors; datasets
        # are paired across learners so the per-rep ordering is near-certain
        # and the rep-to-rep spread of each width is the relevant scale
        margin = 3.0 * 0.4 / np.sqrt(reps)
        assert iid["mu0"].avg_width + margin < iid["mu1"].avg_width
        assert iid["mu1"].avg_width + margin < iid["mu2"].avg_width
        assert iid["mu0"].avg_width + margin < iid["mu3"].avg_width
        # covariate shift destroys coverage for the badly misspecified models
        assert noniid["mu2"].coverage <= 0.6
        assert noniid["mu3"].coverage <= 0.6


class TestTablesShareFitsAcrossLaws:
    """The tables fit each learner once per rep for both laws; per-law studies fit per law."""

    @staticmethod
    def _per_law_rows(scenario, specs, alpha, reps, test_points, seed, n_train):
        rows = []
        for iid in (True, False):
            for spec in specs:
                rows += run_studies(scenario, [spec], alpha, reps, test_points, seed, (iid,), n_train)
        return rows

    def test_linear_table_equals_per_law_studies(self):
        scenario = LinearScenario(cov_shift_scale=1.0)
        rows = run_table_linear(seed=5, alpha=0.1, n_train=25, reps=6, test_points=3, scenario=scenario)
        expected = self._per_law_rows(scenario, linear_learner_specs(), 0.1, 6, 3, 5, 25)
        assert rows == expected

    def test_nn_table_equals_per_law_studies(self):
        opt = TrainerConfig(restarts=2, max_iterations=15)
        single = TrainerConfig(restarts=1, max_iterations=15)
        rows = run_table_nn(
            seed=4, alpha=0.2, n_train=10, reps=2, test_points=3,
            deep_depths=(3, 4), opt_config=opt, single_config=single,
        )
        specs = nn_learner_specs((3, 4), opt, single)
        expected = self._per_law_rows(NnScenario(), specs, 0.2, 2, 3, 4, 10)
        assert rows == expected

    @pytest.mark.parametrize("scenario", [LinearScenario(), NnScenario()], ids=["linear", "nn"])
    def test_one_training_draw_per_repetition(self, scenario, monkeypatch):
        calls = []
        generate = studies.draw_dataset

        def counted(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(studies, "draw_dataset", counted)
        learner = OlsLearner(FeatureMap("intercept", input_dim=scenario.cov_x.shape[0]))
        run_studies(scenario, [LearnerSpec("mu", "ols", learner)], 0.2, 3, 2, 0, (True, False), 10)
        assert len(calls) == 3


class TestRepetitionBlocks:
    """``run_studies`` scores a block of repetitions per call; the block size moves no byte."""

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_size_moves_no_byte(self, block, monkeypatch, capsys):
        command = "table1 --scale desk --seed 0"  # 50 repetitions
        manifest = json.loads((Path(__file__).with_name("byte_manifest.json")).read_text())
        monkeypatch.setattr(studies, "REPETITION_BLOCK", block)
        assert main(command.split()) == 0
        assert hashlib.md5(capsys.readouterr().out.encode("utf-8")).hexdigest() == manifest[command]

    def test_one_least_squares_fit_per_learner_and_block(self, monkeypatch):
        calls = []
        fit = closed_form.least_squares

        def counted(X, y):
            calls.append(X.shape)
            return fit(X, y)

        monkeypatch.setattr(closed_form, "least_squares", counted)
        run_table_linear(seed=2, n_train=30, reps=20)
        assert studies.REPETITION_BLOCK >= 20
        assert calls == [(20, 30, p) for p in (3, 2, 2, 1)]

    @staticmethod
    def _doctor(monkeypatch, rep, train=None, test=None):
        """Pass repetition ``rep``'s training covariates through ``train`` and its test rows through ``test``."""
        draw, draw_laws, seen = studies.draw_dataset, studies.draw_test_laws, []

        def draw_dataset(*args):
            dataset, pairs = draw(*args)
            seen.append(len(seen))
            if train is not None and seen[-1] == rep:
                dataset = Dataset(train(dataset.X), dataset.y)
            return dataset, pairs

        def draw_test_laws(*args):
            pairs = draw_laws(*args)
            if test is not None and seen[-1] == rep:
                pairs = [(test(X), y) for X, y in pairs]
            return pairs

        monkeypatch.setattr(studies, "draw_dataset", draw_dataset)
        monkeypatch.setattr(studies, "draw_test_laws", draw_test_laws)

    @pytest.mark.parametrize("block", [1, 2, 5])
    @pytest.mark.parametrize(
        "train, message",
        [
            (lambda X: np.column_stack([X[:, 0], np.arange(X.shape[0]) == 4]), "leverage-one point"),
            (lambda X: np.column_stack([X[:, 0], np.zeros(X.shape[0])]), "rank-deficient design"),
        ],
        ids=["leverage-one", "rank-deficient"],
    )
    def test_a_later_repetition_fails_its_block_as_it_fails_alone(self, block, train, message, monkeypatch):
        # only repetition 3 of 5 is faulty: mu0's second covariate picks out row 4, or is zero;
        # in blocks of 1 it fails alone, in blocks of 2 and 5 as the second and the fourth
        monkeypatch.setattr(studies, "REPETITION_BLOCK", block)
        self._doctor(monkeypatch, 3, train=train)
        with pytest.raises(ValueError) as caught:
            run_table_linear(seed=6, n_train=20, reps=5)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "n_train, test, message",
        [
            (2, None, "at least 3 training rows"),
            (20, lambda X: np.where(np.arange(X.shape[0])[:, None] == 0, np.nan, X), "test rows must be finite"),
            (20, lambda X: np.full_like(X, np.inf), "test rows must be finite"),
        ],
        ids=["two-rows", "nan-test-row", "inf-test-rows"],
    )
    def test_input_checks_run_before_any_stacked_fit(self, n_train, test, message, monkeypatch):
        fits = []
        monkeypatch.setattr(closed_form, "least_squares", lambda *args: fits.append(args))
        self._doctor(monkeypatch, 3, test=test)
        with pytest.raises(ValueError, match=message):
            run_table_linear(seed=6, n_train=n_train, reps=5)
        assert fits == []

    @SCORING_PATHS
    def test_score_matrix_stacks_every_path(self, learner):
        draws = [draw_dataset(LinearScenario(), True, RngStream(7, rep).generator(), 12, 3) for rep in range(3)]
        data = Dataset(np.stack([d.X for d, _ in draws]), np.stack([d.y for d, _ in draws]))
        X_test = np.stack([X for _, (X, _) in draws])
        stacked = score_matrix(data, learner, X_test, [RngStream(8, rep).generator() for rep in range(3)])
        for rep, (dataset, (X, _)) in enumerate(draws):
            alone = score_matrix(dataset, learner, X, RngStream(8, rep).generator())
            assert stacked[rep].tobytes() == alone.tobytes()
        with pytest.raises(ValueError, match=r"must be an \(m, 2\) matrix"):
            score_matrix(data, learner, X_test[:2], None)


class TestTrainingSizeIsTheArgument:
    """``NnScenario.n_train`` is read by nothing: every draw takes the size it is given."""

    SCENARIO = NnScenario(n_train=7)
    SPEC = LearnerSpec("mu4", "ols", OlsLearner(FeatureMap("intercept", input_dim=3)))

    @pytest.fixture
    def drawn(self, monkeypatch):
        sizes = []
        generate = studies.draw_dataset

        def recorded(*args, **kwargs):
            dataset, test = generate(*args, **kwargs)
            sizes.append(dataset.n)
            return dataset, test

        monkeypatch.setattr(studies, "draw_dataset", recorded)
        return sizes

    def test_draw_dataset(self):
        dataset, _ = draw_dataset(self.SCENARIO, True, RngStream(0, 0).generator(), 12, 1)
        assert dataset.n == 12

    def test_run_studies(self, drawn):
        (report,) = run_studies(self.SCENARIO, [self.SPEC], 0.2, 2, 1, 0, (True,), 12)
        assert drawn == [12, 12]
        assert report.n_train == 12

    def test_export_curves(self, drawn):
        export_curves(self.SCENARIO, [self.SPEC], "sample-mean", 10, 0, 12)
        assert drawn == [12]


@pytest.mark.parametrize(
    "function",
    [run_table_linear, run_table_nn, run_param_mse_study, nn_learner_specs, run_studies,
     export_curves, draw_dataset],
    ids=lambda function: function.__name__,
)
def test_no_size_has_a_default(function):
    # cli.SIZES is the one home of the training size, repetitions and deep depths;
    # a default here would be a second one that the CLI never reads
    params = inspect.signature(function).parameters
    sizes = [params[name] for name in ("n_train", "reps", "deep_depths") if name in params]
    assert sizes, f"{function.__name__} takes none of n_train, reps, deep_depths"
    assert [p.name for p in sizes if p.default is not inspect.Parameter.empty] == []


class TestNearestReference:
    @staticmethod
    def _disguise(params):
        """Swap the hidden units, then scale the first row by 3 and its output weight by 1/3."""
        a1, a2 = params[0][::-1].copy(), params[1][:, ::-1].copy()
        a1[0] *= 3.0
        a2[:, 0] /= 3.0
        return [a1, a2]

    def test_every_true_member_matches_exactly(self):
        members = NnScenario().equivalent_true_params()
        refs = [canonicalize_mlp(p) for p in members]
        for params in members:
            err = nearest_reference_sq_err(self._disguise(params), refs)
            assert err.shape == (8,)
            np.testing.assert_array_equal(err, 0.0)

    def test_sheared_member_is_off_the_true_reference(self):
        true, sheared = NnScenario().equivalent_true_params()
        err = nearest_reference_sq_err(self._disguise(sheared), [canonicalize_mlp(true)])
        assert err.sum() == pytest.approx(5.0)

    def test_errors_sit_at_their_names(self):
        params = NnScenario().true_params()
        refs = [canonicalize_mlp(p) for p in NnScenario().equivalent_true_params()]
        params[0][0, 2] = 0.5
        expected = np.zeros(len(PARAM_NAMES))
        expected[PARAM_NAMES.index("l1_02")] = 0.25
        np.testing.assert_array_equal(nearest_reference_sq_err(params, refs), expected)


class TestParamMseStudy:
    def test_single_rep_reproducible(self):
        cfg = TrainerConfig(restarts=3, max_iterations=400)
        a = run_param_mse_study(seed=5, n_train=60, reps=1, opt_config=cfg)
        b = run_param_mse_study(seed=5, n_train=60, reps=1, opt_config=cfg)
        assert a.keys() == b.keys() == {"opt-mse", "single"}
        for est in a:
            np.testing.assert_array_equal(a[est], b[est])

    def test_zero_noise_identification(self):
        scenario = NnScenario(sigma2=1e-30)
        mse = run_param_mse_study(seed=7, n_train=200, reps=1, scenario=scenario)
        assert np.max(mse["opt-mse"]) < 1e-3

    def test_has_eight_parameters(self):
        cfg = TrainerConfig(restarts=2, max_iterations=200)
        mse = run_param_mse_study(seed=2, n_train=50, reps=1, opt_config=cfg)
        assert len(PARAM_NAMES) == len(set(PARAM_NAMES)) == 8
        assert all(v.shape == (8,) for v in mse.values())

    def test_opt_mse_per_entry_bound_at_full_size(self):
        mse = run_param_mse_study(seed=6, n_train=300, reps=10)
        assert np.max(mse["opt-mse"]) <= 0.5


class TestExportCurves:
    def test_linear_curves_structure(self):
        scenario = LinearScenario()
        specs = linear_learner_specs()
        curves = export_curves(scenario, specs, "sample-mean", 100, seed=8, n_train=80)
        # one block per learner in spec order, then the oracle's
        assert [label for label, _, _ in curves] == [spec.label for spec in specs] + ["oracle"]
        labels = {label for label, _, _ in curves}
        assert labels == {"mu0", "mu1", "mu2", "mu3", "oracle"}
        assert all(np.all((0.0 <= pv) & (pv <= 1.0)) for _, _, pv in curves)
        for _, ys, pv in curves:
            assert ys.shape == pv.shape
            assert np.all(np.diff(ys) > 0)
        _, oracle_ys, oracle_pv = curves[-1]
        peak_y = oracle_ys[np.argmax(oracle_pv)]
        assert max(oracle_pv) == pytest.approx(1.0, abs=0.01)
        assert list(oracle_ys) == sorted(oracle_ys)
        # oracle peaks at the true mean response at the test covariate
        gen = RngStream(8, 0).generator()
        dataset, _ = draw_dataset(scenario, True, gen, n_train=80, n_test=1)
        x_bar = dataset.X.mean(axis=0)
        assert peak_y == pytest.approx(float(scenario.mean_response(x_bar[None])[0]), abs=0.1)
        # each learner block holds its curve_grid's columns, every grid point of it
        for spec, sub, (_, ys, pv) in zip(specs, gen.spawn(len(specs)), curves):
            grid = curve_grid(score_matrix(dataset, spec.learner, x_bar[None], sub)[:, 0], 100)
            assert len(ys) == len(grid)
            np.testing.assert_array_equal(np.column_stack([ys, pv]), grid)

    def test_explicit_vector(self):
        scenario = LinearScenario()
        rows = export_curves(
            scenario, linear_learner_specs()[:1], np.array([2.44, 2.09]), 50, seed=8, n_train=60
        )
        assert {label for label, _, _ in rows} == {"mu0", "oracle"}

    def test_true_model_curve_tracks_oracle(self):
        scenario = LinearScenario()
        curves = export_curves(
            scenario, linear_learner_specs()[:1], "iid-draw", 200, seed=15, n_train=300
        )
        from scipy.special import ndtr

        assert [label for label, _, _ in curves] == ["mu0", "oracle"]
        (_, mu0_ys, mu0_pv), (_, oracle_ys, oracle_pv) = curves
        for ys in (mu0_ys, oracle_ys):
            assert np.all(np.diff(ys) > 0)
        mu_new = oracle_ys[np.argmax(oracle_pv)]

        def oracle_pv_at(y):
            q = ndtr(y - mu_new)
            return 2 * min(q, 1 - q)

        sup = max(abs(pv - oracle_pv_at(y)) for y, pv in zip(mu0_ys, mu0_pv))
        assert sup < 0.15
