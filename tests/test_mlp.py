import inspect
import mmap
import os
import re
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predcurves import mlp
from predcurves.conformal import Dataset
from predcurves.mlp import (
    OPT_MSE,
    SINGLE_RESTART,
    MlpArchitecture,
    MlpLearner,
    MlpModel,
    TrainerConfig,
    _GRADIENT_TOLERANCE,
    _MIN_STEP,
    _MOMENTUM,
    _forward,
    _gradients,
    _init_params,
    _network_bytes,
    _sse,
    train_batched,
)
from predcurves.rng import RngStream
from predcurves.scenarios import NnScenario, draw_dataset
from predcurves.studies import TRUE_SHAPE, canonicalize_mlp, nearest_reference_sq_err
from predcurves.verify import gradient_error

TRUE_PARAMS = [np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([[1.0, -1.0]])]


def _output(params, x):
    """Output of the single network ``params`` at one covariate vector."""
    return MlpModel(params).predict(x)[0]


def _loss(params, X, y):
    """Total squared error of each network in the batch ``params``."""
    return _sse(_forward(params, X)[1] - y)


class TestForward:
    def test_true_network_positive_branch(self):
        assert _output(TRUE_PARAMS, np.array([1.0, 1.0, 0.0])) == pytest.approx(2.0)

    def test_true_network_clipped(self):
        assert _output(TRUE_PARAMS, np.array([-1.0, -1.0, 5.0])) == 0.0

    def test_zero_params(self):
        zero = [np.zeros((2, 3)), np.zeros((1, 2))]
        assert _output(zero, np.array([4.0, -3.0, 1.0])) == 0.0

    def test_output_relu_clips_negative(self):
        params = [np.array([[1.0]]), np.array([[-1.0]])]
        assert _output(params, np.array([2.0])) == 0.0

    def test_architecture_validation(self):
        with pytest.raises(ValueError):
            MlpArchitecture((3, 2, 2))
        with pytest.raises(ValueError):
            MlpArchitecture((3,))


class TestGradient:
    def test_all_negative_preactivations_zero_gradient(self):
        params = [np.array([[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]]), np.array([[[1.0, 1.0]]])]
        X = np.ones((4, 3))  # preactivations all negative, output locked at 0
        y = np.ones(4)
        acts, out = _forward(params, X)
        grads = _gradients(params, X, acts, out - y)
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_matches_finite_differences(self):
        assert gradient_error(RngStream(2, 0).generator(), 10) < 1e-5

    def test_linear_regime_matches_least_squares_gradient(self):
        gen = RngStream(3, 0).generator()
        X = np.abs(gen.standard_normal((8, 3))) + 0.1
        w = np.abs(gen.standard_normal((1, 3))) + 0.1  # positive row keeps preactivations > 0
        y = gen.standard_normal(8)
        acts, out = _forward([w[None]], X)
        grads = _gradients([w[None]], X, acts, out - y)
        oracle = 2.0 * (X.T @ (X @ w[0] - y))
        np.testing.assert_allclose(grads[0][0, 0], oracle, atol=1e-10)


    def test_batched_masked_deep_stack_matches_finite_differences(self):
        # three differently masked networks of depth 4, each checked against
        # central differences of its own masked loss
        arch = MlpArchitecture((3, 4, 3, 2, 1))
        masks = np.array([[1.0, 1, 0, 1, 1, 1], [0, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 0]])
        gen = RngStream(4, 0).generator()
        step = 1e-6
        checked = 0
        while checked < 3:
            params = _init_params(arch, gen, 3)
            X = gen.standard_normal((6, 3))
            y = gen.standard_normal(6)
            acts, out = _forward(params, X)
            # preactivations of every layer: the activation below times the weights
            preacts = [a @ W.swapaxes(-1, -2) for a, W in zip([X, *acts[:-1]], params)]
            # away from ReLU kinks, and every network live on some kept row
            if min(np.min(np.abs(z)) for z in preacts) < 1e-3 or np.any((out * masks).max(axis=1) == 0):
                continue
            checked += 1
            grads = _gradients(params, X, acts, (out - y) * masks)
            for layer, grad in enumerate(grads):
                for idx in np.ndindex(grad.shape):
                    plus = [W.copy() for W in params]
                    minus = [W.copy() for W in params]
                    plus[layer][idx] += step
                    minus[layer][idx] -= step
                    b = idx[0]
                    fd = (
                        _sse((_forward(plus, X)[1] - y) * masks)[b]
                        - _sse((_forward(minus, X)[1] - y) * masks)[b]
                    ) / (2 * step)
                    denom = max(abs(fd), abs(grad[idx]), 1e-8)
                    assert abs(fd - grad[idx]) / denom < 1e-5


class TestCanonicalize:
    def test_idempotent_on_canonical(self):
        out = canonicalize_mlp(TRUE_PARAMS)
        np.testing.assert_allclose(out[0], TRUE_PARAMS[0])
        np.testing.assert_allclose(out[1], TRUE_PARAMS[1])

    def test_undoes_row_scaling(self):
        scaled = [TRUE_PARAMS[0].copy(), TRUE_PARAMS[1].copy()]
        scaled[0][0] *= 3.0
        scaled[1][:, 0] /= 3.0
        out = canonicalize_mlp(scaled)
        np.testing.assert_allclose(out[0], TRUE_PARAMS[0], atol=1e-12)
        np.testing.assert_allclose(out[1], TRUE_PARAMS[1], atol=1e-12)

    def test_zero_row_left_alone(self):
        params = [np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]), np.array([[1.0, 1.0]])]
        out = canonicalize_mlp(params)
        np.testing.assert_array_equal(out[0][0], 0.0)
        np.testing.assert_allclose(out[0][1], [0.0, 0.0, 1.0])
        assert out[1][0, 1] == pytest.approx(2.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_predictions_invariant(self, seed):
        gen = np.random.default_rng(seed)
        params = [gen.standard_normal((2, 3)), gen.standard_normal((1, 2))]
        canon = canonicalize_mlp(params)
        for _ in range(10):
            x = gen.standard_normal(3)
            assert _output(params, x) == pytest.approx(_output(canon, x), abs=1e-10)


class TestTrainer:
    def test_zero_noise_identification(self):
        scenario = NnScenario(sigma2=1e-30)
        gen = RngStream(7, 0).generator()
        dataset, _ = draw_dataset(scenario, True, gen, n_train=300, n_test=0)
        best, losses, _ = train_batched(
            TRUE_SHAPE, OPT_MSE, dataset.X, dataset.y, gen, np.ones((1, 300))
        )
        refs = [canonicalize_mlp(p) for p in scenario.equivalent_true_params()]
        err = nearest_reference_sq_err([W[0] for W in best], refs)
        assert np.max(err) < 1e-3
        assert losses[0] < 1e-6

    def test_loss_never_exceeds_initialization(self):
        gen = RngStream(8, 0).generator()
        scenario = NnScenario()
        dataset, _ = draw_dataset(scenario, True, gen, n_train=60, n_test=0)
        config = TrainerConfig(restarts=6, max_iterations=300)
        init_gen = RngStream(8, 1).generator()
        init = _init_params(TRUE_SHAPE, init_gen, 6)
        init_losses = _loss(init, dataset.X, dataset.y)
        _, _, restart_losses = train_batched(
            TRUE_SHAPE, config, dataset.X, dataset.y, RngStream(8, 1).generator(),
            np.ones((1, 60)),
        )
        assert np.all(restart_losses[0] <= init_losses + 1e-9)

    def test_best_restart_selected(self):
        gen = RngStream(9, 0).generator()
        dataset, _ = draw_dataset(NnScenario(), True, gen, n_train=50, n_test=0)
        best, losses, restart_losses = train_batched(
            MlpArchitecture((3, 2, 1)),
            TrainerConfig(restarts=5, max_iterations=200),
            dataset.X,
            dataset.y,
            gen,
            np.ones((1, 50)),
        )
        assert losses[0] == restart_losses[0].min()

    def test_deterministic_given_stream(self):
        scenario = NnScenario()
        ds, _ = draw_dataset(scenario, True, RngStream(10, 0).generator(), n_train=40, n_test=0)
        learner = MlpLearner(TRUE_SHAPE, TrainerConfig(restarts=2, max_iterations=100))
        m1 = learner.fit(ds, RngStream(10, 1).generator())
        m2 = learner.fit(ds, RngStream(10, 1).generator())
        for a, b in zip(m1.params, m2.params):
            np.testing.assert_array_equal(a, b)

    def test_fit_loo_matches_per_fold_training(self):
        # fold-batched training must agree with training each fold separately
        scenario = NnScenario()
        ds, _ = draw_dataset(scenario, True, RngStream(12, 0).generator(), n_train=8, n_test=0)
        config = TrainerConfig(restarts=2, max_iterations=150)
        learner = MlpLearner(TRUE_SHAPE, config)
        models = learner.fit_loo(ds, RngStream(12, 1).generator())
        assert len(models) == 8
        X_probe = RngStream(12, 2).generator().standard_normal((5, 3))
        masks = 1.0 - np.eye(8)
        best, _, _ = train_batched(
            TRUE_SHAPE, config, ds.X, ds.y, RngStream(12, 1).generator(), fold_masks=masks
        )
        for fold in (0, 3, 7):
            np.testing.assert_allclose(
                models[fold].predict(X_probe),
                MlpModel([W[fold] for W in best]).predict(X_probe),
                atol=1e-12,
            )

    @pytest.mark.parametrize("arch", [(3, 2, 1), (3, 6, 6, 1)], ids=["shallow", "depth-3"])
    def test_returned_losses_match_a_fresh_forward(self, arch, monkeypatch):
        # losses are carried from the candidate step's forward pass and merged
        # back on rejection; whatever the budget a run stops at, they must
        # equal the loss of the params actually returned. With one restart per
        # fold every network trained is returned; with three, each fold's best
        # restart must be the one whose params come back
        ds, _ = draw_dataset(NnScenario(), True, RngStream(14, 0).generator(), n_train=12, n_test=0)
        masks = 1.0 - np.eye(12)
        monkeypatch.setattr(mlp, "_INITIAL_STEP", 0.3)
        for restarts in (1, 3):
            for iterations in range(1, 21):
                config = TrainerConfig(restarts=restarts, max_iterations=iterations)
                best, losses, restart_losses = train_batched(
                    MlpArchitecture(arch), config, ds.X, ds.y, RngStream(14, 1).generator(),
                    fold_masks=masks,
                )
                _, out = _forward(best, ds.X)
                np.testing.assert_array_equal(losses, _sse((out - ds.y) * masks))
                np.testing.assert_array_equal(losses, restart_losses.min(axis=1))

    def test_matches_two_forward_reference_loop(self, monkeypatch):
        # the trainer reuses the candidate's forward pass and updates in place;
        # a plain loop that recomputes the forward pass every iteration and
        # keeps finished networks frozen in the batch must give the same bits
        arch = MlpArchitecture((3, 6, 6, 1))
        config = TrainerConfig(restarts=2, max_iterations=60)
        monkeypatch.setattr(mlp, "_INITIAL_STEP", 0.1)
        ds, _ = draw_dataset(NnScenario(), True, RngStream(15, 0).generator(), n_train=10, n_test=0)
        masks = np.repeat(1.0 - np.eye(10), 2, axis=0)
        params = _init_params(arch, RngStream(15, 1).generator(), 20)
        velocity = [np.zeros_like(W) for W in params]
        step = np.full(20, mlp._INITIAL_STEP)
        live = np.ones(20, dtype=bool)
        for _ in range(config.max_iterations):
            acts, out = _forward(params, ds.X)
            r = (out - ds.y) * masks
            loss = _sse(r)
            grads = _gradients(params, ds.X, acts, r)
            gmax = np.max([np.abs(g).reshape(20, -1).max(axis=1) for g in grads], axis=0)
            live &= ~((gmax < _GRADIENT_TOLERANCE) | (step < _MIN_STEP))
            velocity = [_MOMENTUM * V - step[:, None, None] * g for V, g in zip(velocity, grads)]
            cand = [W + V for W, V in zip(params, velocity)]
            accept = _sse((_forward(cand, ds.X)[1] - ds.y) * masks) <= loss
            move = (accept & live)[:, None, None]
            params = [np.where(move, C, W) for C, W in zip(cand, params)]
            velocity = [np.where(move, V, 0.0) for V in velocity]
            step = np.where(live & ~accept, 0.5 * step, step)
        final_loss = _sse((_forward(params, ds.X)[1] - ds.y) * masks)
        _, losses, restart_losses = train_batched(
            arch, config, ds.X, ds.y, RngStream(15, 1).generator(), fold_masks=1.0 - np.eye(10)
        )
        np.testing.assert_array_equal(restart_losses.ravel(), final_loss)

    def test_tracer_binds_these_argument_names(self):
        # perfbench/tracer.py counts each call's networks from these arguments,
        # bound by name; under another name it would count one fold per call
        names = inspect.signature(train_batched).parameters
        assert {"fold_masks", "config"} <= names.keys(), (
            "perfbench/tracer.py's _networks reads train_batched's fold_masks and config by name"
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iterations", -1),
        ],
    )
    def test_config_rejects_a_budget_that_cannot_train(self, field, value):
        TrainerConfig(max_iterations=0)
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: value})

    @pytest.mark.parametrize(
        "masks",
        [np.ones((2, 9)), np.ones(10), np.ones((1, 1, 10)), np.ones((0, 10)),
         np.array([[1.0] * 9 + [2.0]]), np.array([[1.0] * 9 + [np.nan]])],
        ids=["short-rows", "one-dim", "three-dim", "no-folds", "entry-two", "entry-nan"],
    )
    def test_bad_fold_masks_rejected_before_any_draw(self, masks):
        ds, _ = draw_dataset(NnScenario(), True, RngStream(18, 0).generator(), n_train=10, n_test=0)
        gen = RngStream(18, 1).generator()
        with pytest.raises(ValueError, match=re.escape(f"fold_masks of shape {masks.shape}")):
            train_batched(TRUE_SHAPE, SINGLE_RESTART, ds.X, ds.y, gen, masks)
        assert gen.random() == RngStream(18, 1).generator().random()

    @pytest.mark.parametrize(
        "X_shape, y_size, match",
        [((10, 3), 1, "y of shape"), ((10, 3), 9, "y of shape"), ((10, 2), 10, "X of shape"),
         ((10,), 10, "X of shape")],
        ids=["y-length-one", "y-short", "X-narrow", "X-one-dim"],
    )
    def test_bad_data_shapes_rejected_before_any_draw(self, X_shape, y_size, match):
        gen = RngStream(19, 1).generator()
        with pytest.raises(ValueError, match=match):
            train_batched(
                TRUE_SHAPE, SINGLE_RESTART, np.ones(X_shape), np.ones(y_size), gen, np.ones((1, 10))
            )
        assert gen.random() == RngStream(19, 1).generator().random()

    def test_input_indices_subset(self):
        ds = Dataset(np.arange(30.0).reshape(10, 3), np.arange(10.0))
        learner = MlpLearner(
            MlpArchitecture((2, 1)),
            TrainerConfig(restarts=1, max_iterations=50),
            input_indices=(0, 1),
        )
        model = learner.fit(ds, RngStream(1).generator())
        assert model.predict(ds.X).shape == (10,)

    @pytest.mark.parametrize("input_indices", [None, (0,)], ids=["all-inputs", "subset"])
    @pytest.mark.parametrize("method", ["fit", "loo_scores"])
    def test_learner_width_mismatch_rejected_before_any_draw(self, input_indices, method):
        # the width the network sees (after ``input_indices``) is 3 or 1, never its 2
        ds = Dataset(np.arange(30.0).reshape(10, 3), np.arange(10.0))
        learner = MlpLearner(MlpArchitecture((2, 1)), SINGLE_RESTART, input_indices=input_indices)
        gen = RngStream(22, 0).generator()
        args = (ds, gen) if method == "fit" else (ds, ds.X[:2], gen)
        with pytest.raises(ValueError, match=r"X of shape \(10, [13]\) must be \(n, 2\)"):
            getattr(learner, method)(*args)
        assert gen.random() == RngStream(22, 0).generator().random()

    def test_opt_mse_beats_single_restart_on_median(self):
        scenario = NnScenario()
        refs = [canonicalize_mlp(p) for p in scenario.equivalent_true_params()]
        opt_errs, single_errs = [], []
        for rep in range(10):
            gen = RngStream(31, rep).generator()
            ds, _ = draw_dataset(scenario, True, gen, n_train=300, n_test=0)
            subs = gen.spawn(2)
            opt = MlpLearner(TRUE_SHAPE, OPT_MSE).fit(ds, subs[0])
            single = MlpLearner(TRUE_SHAPE, SINGLE_RESTART).fit(ds, subs[1])
            opt_errs.append(nearest_reference_sq_err(opt.params, refs).sum())
            single_errs.append(nearest_reference_sq_err(single.params, refs).sum())
        assert np.median(opt_errs) < np.median(single_errs)


class TestChunks:
    @pytest.mark.parametrize(
        "widths, restarts", [((3, 2, 1), 3), ((3, 6, 6, 1), 2)], ids=["shallow", "depth-3"]
    )
    def test_chunk_size_moves_no_bit(self, widths, restarts, monkeypatch):
        # chunks of 1 network, of 7 (which splits a fold's restarts) and of
        # the whole batch; the large first step makes networks retire by
        # tolerance and by step underflow at different iterations. One slice,
        # so that every chunk runs in this process, where the spy sees it
        monkeypatch.setattr(mlp, "_slice_count", lambda batch, work: 1)
        arch = MlpArchitecture(widths)
        ds, _ = draw_dataset(NnScenario(), True, RngStream(16, 0).generator(), n_train=12, n_test=0)
        config = TrainerConfig(restarts=restarts, max_iterations=200)
        monkeypatch.setattr(mlp, "_INITIAL_STEP", 10.0)
        batch = 12 * restarts
        sizes = []
        train_chunk = mlp._train_chunk

        def spy(params, *args):
            sizes.append(params[0].shape[0])
            return train_chunk(params, *args)

        monkeypatch.setattr(mlp, "_train_chunk", spy)
        runs = {}
        for per_chunk in (batch, 7, 1):
            monkeypatch.setattr(mlp, "_CHUNK_BYTES", per_chunk * _network_bytes(arch, 12))
            sizes.clear()
            runs[per_chunk] = train_batched(
                arch, config, ds.X, ds.y, RngStream(16, 1).generator(), fold_masks=1.0 - np.eye(12)
            )
            assert max(sizes) == per_chunk and sum(sizes) == batch
        best, losses, restart_losses = runs[batch]
        for per_chunk in (7, 1):
            chunk_best, chunk_losses, chunk_restart_losses = runs[per_chunk]
            for a, b in zip(chunk_best, best):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(chunk_losses, losses)
            np.testing.assert_array_equal(chunk_restart_losses, restart_losses)

    def test_small_budget_bounds_peak_memory(self, monkeypatch):
        # numpy reports its buffers to tracemalloc; a call's peak must follow
        # the chunk budget, not the number of folds. One slice, so that the
        # whole call runs in the traced process
        monkeypatch.setattr(mlp, "_slice_count", lambda batch, work: 1)
        arch = MlpArchitecture((3, *[20] * 7, 1))
        ds, _ = draw_dataset(NnScenario(), True, RngStream(17, 0).generator(), n_train=80, n_test=0)
        config = TrainerConfig(restarts=1, max_iterations=3)
        peaks = []
        for per_chunk in (80, 4):
            monkeypatch.setattr(mlp, "_CHUNK_BYTES", per_chunk * _network_bytes(arch, 80))
            tracemalloc.start()
            train_batched(arch, config, ds.X, ds.y, RngStream(17, 1).generator(), 1.0 - np.eye(80))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        whole, small = peaks
        assert small < 0.4 * whole

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_peak_memory_holds_the_selected_networks_once(self, restarts, monkeypatch):
        # all initial weights stay held for the whole call; past them a call
        # may take its chunk budget and a slack of half the selected networks'
        # weights, so a second copy of the selected networks does not fit.
        # One slice, so that the whole call runs in the traced process
        monkeypatch.setattr(mlp, "_slice_count", lambda batch, work: 1)
        arch = MlpArchitecture((3, *[20] * 7, 1))
        ds, _ = draw_dataset(NnScenario(), True, RngStream(17, 0).generator(), n_train=80, n_test=0)
        config = TrainerConfig(restarts=restarts, max_iterations=3)
        monkeypatch.setattr(mlp, "_CHUNK_BYTES", 4 * _network_bytes(arch, 80))
        selected = 80 * 8 * sum(a * b for a, b in zip(arch.widths[:-1], arch.widths[1:]))
        tracemalloc.start()
        train_batched(arch, config, ds.X, ds.y, RngStream(17, 1).generator(), 1.0 - np.eye(80))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < restarts * selected + mlp._CHUNK_BYTES + selected / 2


def _force_slices(monkeypatch, slices: int) -> list:
    """Make ``train_batched`` split its batch into ``slices`` (at most one per network); return its bounds per call."""
    seen = []
    run_slices = mlp._run_slices

    def spy(train, bounds):
        seen.append(bounds)
        return run_slices(train, bounds)

    monkeypatch.setattr(mlp, "_slice_count", lambda batch, work: min(batch, slices))
    monkeypatch.setattr(mlp, "_run_slices", spy)
    return seen


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSlices:
    # the large first step of TestChunks' config makes networks retire by
    # tolerance and by step underflow at different iterations
    @pytest.mark.parametrize(
        "widths, restarts, folds",
        [((3, 2, 1), 1, 1), ((3, 2, 1), 1, 7), ((3, 2, 1), 3, 5), ((3, 2, 1), 3, 12), ((3, 6, 6, 1), 2, 12)],
        ids=["batch-1", "odd-batch", "split-restarts", "retiring", "depth-3"],
    )
    def test_slice_count_moves_no_bit(self, widths, restarts, folds, monkeypatch):
        # 15 networks in 2 or 3 slices split fold 2's restarts, or folds 1 and 3
        arch = MlpArchitecture(widths)
        ds, _ = draw_dataset(NnScenario(), True, RngStream(16, 0).generator(), n_train=12, n_test=0)
        config = TrainerConfig(restarts=restarts, max_iterations=200)
        monkeypatch.setattr(mlp, "_INITIAL_STEP", 10.0)
        masks = np.ones((1, 12)) if folds == 1 else (1.0 - np.eye(12))[:folds]
        runs = {}
        for slices in (1, 2, 3):
            seen = _force_slices(monkeypatch, slices)
            runs[slices] = train_batched(arch, config, ds.X, ds.y, RngStream(16, 1).generator(), masks)
            assert len(seen) == 1 and len(seen[0]) == min(folds * restarts, slices) + 1
            _assert_no_child_left()
        best, losses, restart_losses = runs[1]
        for slices in (2, 3):
            sliced_best, sliced_losses, sliced_restart_losses = runs[slices]
            for a, b in zip(sliced_best, best):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(sliced_losses, losses)
            np.testing.assert_array_equal(sliced_restart_losses, restart_losses)

    def _fail_in(self, monkeypatch, child, parent):
        """Run ``child`` in place of a chunk's training in a forked child, ``parent`` in this process."""
        me = os.getpid()
        monkeypatch.setattr(mlp, "_train_chunk", lambda *args: parent() if os.getpid() == me else child())
        _force_slices(monkeypatch, 2)
        ds, _ = draw_dataset(NnScenario(), True, RngStream(20, 0).generator(), n_train=12, n_test=0)
        return lambda: train_batched(
            TRUE_SHAPE, SINGLE_RESTART, ds.X, ds.y, RngStream(20, 1).generator(), 1.0 - np.eye(12)
        )

    def test_failed_child_names_its_slice(self, monkeypatch):
        def child():
            raise ValueError("slice fails")

        call = self._fail_in(monkeypatch, child, lambda: np.zeros(6))
        with pytest.raises(RuntimeError, match=r"training slice 1 \(networks 6:12\) failed .* exit code 1"):
            call()
        _assert_no_child_left()

    def test_child_killed_by_a_signal_names_its_slice(self, monkeypatch):
        def child():
            os.kill(os.getpid(), signal.SIGKILL)

        call = self._fail_in(monkeypatch, child, lambda: np.zeros(6))
        with pytest.raises(RuntimeError, match=r"training slice 1 \(networks 6:12\) failed .* signal 9"):
            call()
        _assert_no_child_left()

    def test_no_returned_array_views_a_shared_map(self, monkeypatch):
        # a view would keep the whole batch's map of its layer alive
        _force_slices(monkeypatch, 2)
        ds, _ = draw_dataset(NnScenario(), True, RngStream(21, 0).generator(), n_train=12, n_test=0)
        config = TrainerConfig(restarts=2, max_iterations=20)
        best, losses, restart_losses = train_batched(
            TRUE_SHAPE, config, ds.X, ds.y, RngStream(21, 1).generator(), 1.0 - np.eye(12)
        )
        _assert_no_child_left()
        for array in [*best, losses, restart_losses]:
            base = array
            while isinstance(base, np.ndarray) and base.base is not None:
                base = base.base
            assert not isinstance(base, mmap.mmap)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_failed_parent_kills_and_reaps_its_child(self, error, monkeypatch):
        def parent():
            raise error("parent slice fails")

        call = self._fail_in(monkeypatch, lambda: time.sleep(60), parent)
        start = time.perf_counter()
        with pytest.raises(error, match="parent slice fails"):
            call()
        assert time.perf_counter() - start < 30
        _assert_no_child_left()

    def test_a_process_with_threads_trains_in_one_slice(self):
        # a forked child would inherit the other thread's locks, not the thread
        work = 2 * mlp._MIN_FORK_WORK
        assert mlp._slice_count(1, work) == 1
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert mlp._slice_count(64, work) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert mlp._slice_count(64, work) == min(64, len(os.sched_getaffinity(0)))
        assert mlp._slice_count(64, mlp._MIN_FORK_WORK - 1) == 1
