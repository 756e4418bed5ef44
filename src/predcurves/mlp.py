"""From-scratch ReLU multilayer perceptron with two fitting procedures.

Networks are compositions of bias-free affine maps with an elementwise
ReLU after every layer, including the scalar output layer:

    out(x) = f(A_L f(A_{L-1} ... f(A_1 x)))      f(t) = max(t, 0)

Fitting minimizes the total squared error over the training rows by
full-batch gradient descent with momentum. A proposed step is accepted
only if it does not increase the loss; otherwise the step size is halved
and the momentum reset. Two standard configurations are exposed:

* ``OPT_MSE``: 20 random restarts, up to 5000 iterations each, keeping
  the restart with the lowest final loss (ties broken by restart index).
* ``SINGLE_RESTART``: one restart capped at 500 iterations, standing in
  for an off-the-shelf fit that does not try hard to locate the optimum.

Everything is batched: restarts, and optionally leave-one-out folds
(via per-fold sample masks), train together as stacked tensors of
networks, which is what makes jackknife-plus with neural learners
affordable. A large batch is split into contiguous slices, one per CPU
the process may run on: the first trains in the calling process, each
other one in a child forked for that call. Within a process, a slice
trains in chunks of networks that fit a fixed memory budget, one chunk
after another in the same buffers.
"""

from __future__ import annotations

import mmap
import os
import signal
import sys
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .conformal import Dataset, build_loo_ensemble

_MIN_STEP = 1e-15
# bytes of the two activation sets one chunk of networks trains in
_CHUNK_BYTES = 16 * 2**20
# bytes of the two activation sets x iterations below which a call trains in
# one process: a bare fork and wait take ~2.5 ms at ~120 MB RSS, plus the
# child's page faults and the slowdown of two busy cores. Timed at n = 100 on
# 2 cores (depth-5 LOO batches, ~145 MB RSS, medians of 3 runs) when the bytes
# also counted two backward-pass arrays, so the work of those calls now reads
# 0.8x what it did then: calls of half this work took 23-36 ms in one process
# and 30-40 ms in two, of this work 29-43 and 36-45 ms, and of twice this work
# 43-66 and 43-52 ms
_MIN_FORK_WORK = 2**26
_INITIAL_STEP = 1e-2
_MOMENTUM = 0.9
_GRADIENT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths from input to the scalar output, e.g. ``(3, 2, 1)``."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("need at least an input and an output width")
        if self.widths[-1] != 1:
            raise ValueError("output width must be 1")
        if any(w < 1 for w in self.widths):
            raise ValueError("widths must be positive")

    @property
    def input_dim(self) -> int:
        return self.widths[0]


@dataclass(frozen=True)
class TrainerConfig:
    restarts: int = 20
    max_iterations: int = 5000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be at least 0, got {self.max_iterations}")


OPT_MSE = TrainerConfig()
SINGLE_RESTART = TrainerConfig(restarts=1, max_iterations=500)


def _init_params(arch: MlpArchitecture, gen: np.random.Generator, batch: int, empty=np.empty) -> list:
    """ReLU-scaled init: weights ~ Normal(0, 2 / fan_in), drawn and scaled in ``empty(shape)``."""
    params = []
    for fan_in, fan_out in zip(arch.widths[:-1], arch.widths[1:]):
        W = gen.standard_normal(out=empty((batch, fan_out, fan_in)))
        W *= np.sqrt(2.0 / fan_in)
        params.append(W)
    return params


def _shared_empty(shape) -> np.ndarray:
    """An uninitialised float array on its own anonymous shared map, for forked children to write."""
    return np.ndarray(shape, float, mmap.mmap(-1, 8 * int(np.prod(shape))))


def _forward(params: list, X: np.ndarray, bufs: list | None = None) -> tuple[list, np.ndarray]:
    """Forward pass. Returns (post-ReLU activations per layer, outputs (B, n)).

    Layer weights of shape (B, out, in) run a batch of B networks; 2-D
    weights run one network and give outputs of shape (n,). ``bufs``, if
    given, is an activation set of ``train_batched`` with room for at
    least B networks; the activations are written into its first B rows
    instead of into new arrays.
    """
    h = X
    acts = []
    outs = [None] * len(params) if bufs is None else [A[: len(params[0])] for A in bufs]
    for W, buf in zip(params, outs):
        # a contiguous right operand is faster in BLAS than a transposed view
        h = np.matmul(h, np.ascontiguousarray(W.swapaxes(-1, -2)), out=buf)
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts, h[..., 0]


def _sse(r: np.ndarray) -> np.ndarray:
    """Total squared error of each network from its (B, n) masked residual ``(out - y) * mask``."""
    return np.einsum("bn,bn->b", r, r)


def _gradients(params: list, X: np.ndarray, acts: list, r: np.ndarray, bufs: list | None = None) -> list:
    """Backpropagated gradient of the total squared error.

    ``acts`` are the post-ReLU activations of ``_forward`` and ``r`` the
    masked residual ``(out - y) * mask`` of its outputs; a unit is live
    where its activation is positive, which is exactly where its
    preactivation is, so the ReLU subgradient at zero is taken as zero.
    ``bufs``, if given, is an activation set other than the one ``acts``
    lie in, with room for at least B networks; the error backpropagated
    to layer l - 1 goes into the first B rows of ``bufs[l - 1]`` instead
    of into a new array.
    """
    delta = (2.0 * r)[..., None] * (acts[-1] > 0)
    deltas = [None] * len(params) if bufs is None else [A[: len(r)] for A in bufs]
    grads: list = [None] * len(params)
    for layer in range(len(params) - 1, -1, -1):
        a_prev = X if layer == 0 else acts[layer - 1]
        # a_prev^T delta, transposed back: faster than delta^T a_prev on the input layer
        grads[layer] = (np.swapaxes(a_prev, -1, -2) @ delta).swapaxes(-1, -2)
        if layer > 0:
            delta = np.matmul(delta, params[layer], out=deltas[layer - 1])
            np.multiply(delta, a_prev > 0, out=delta)
    return grads


def _network_bytes(arch: MlpArchitecture, n: int) -> int:
    """Bytes one network of ``arch`` on n rows takes in the two activation sets of ``train_batched``."""
    return 16 * n * sum(arch.widths[1:])


def train_batched(
    arch: MlpArchitecture,
    config: TrainerConfig,
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    fold_masks: np.ndarray,
) -> tuple[list, np.ndarray, np.ndarray]:
    """Train ``folds x restarts`` networks.

    X, y
        (n, ``arch.input_dim``) covariates and (n,) responses; any other
        shape raises ``ValueError``.
    fold_masks
        (F, n) 0/1 array, F >= 1; fold f trains only on rows with mask 1.
        A single fold on every row is ``np.ones((1, n))``. Any other shape
        or entry raises ``ValueError``.

    Every check runs before the first weight is drawn, so a rejected call
    leaves ``rng`` where it was.

    Returns ``(params, losses, restart_losses)`` where ``params`` is a list
    of arrays with a leading fold axis (layer l has shape (F, out, in))
    holding each fold's best restart, ``losses`` (F,) their final losses
    and ``restart_losses`` (F, restarts) every restart's final loss.

    Every network's initial weights are drawn up front, in this process,
    in one draw per layer over the whole fold-major batch. The batch is
    then split into contiguous slices of near-equal size, one per CPU in
    the process's affinity mask and at most one per network; a call whose
    buffer bytes times iteration budget is under ``_MIN_FORK_WORK`` keeps
    one slice. This process trains the first slice and a forked child each
    other one. A call of several slices draws the weights, and allocates
    the final losses, on anonymous shared maps, one per array, so every
    child trains its rows in place. Within a process the networks train
    in chunks of consecutive networks, as many as fit ``_CHUNK_BYTES`` of
    buffers (at least one), one chunk after another. Slices and chunks may
    split a fold's restarts. Networks never interact, so each one follows
    the same trajectory, to the bit, whatever the slice and chunk sizes.

    Each process allocates its buffers once, sized to one chunk of its
    slice: two sets of activations, which swap roles between current and
    candidate every iteration; the backward pass writes into the
    candidate set before the candidate's forward pass does. Each chunk's
    final weights and losses overwrite its rows of the batch's, and each
    fold's best restart then replaces the batch one layer at a time, which
    frees that layer's map; no returned array is a view into one. Peak
    memory is per process: in this one, every network's weights, one
    chunk's buffers, and one layer of the selected networks; in a child,
    the pages it shares with this process and its own chunk buffers.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    fold_masks = np.asarray(fold_masks, dtype=float)
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ValueError(f"X of shape {X.shape} must be (n, {arch.input_dim})")
    n = X.shape[0]
    if y.shape != (n,):
        raise ValueError(f"y of shape {y.shape} must be ({n},)")
    if not (
        fold_masks.ndim == 2
        and fold_masks.shape[0] >= 1
        and fold_masks.shape[1] == n
        and ((fold_masks == 0.0) | (fold_masks == 1.0)).all()
    ):
        raise ValueError(
            f"fold_masks of shape {fold_masks.shape} must be (F, {n}) with F >= 1 "
            "and only 0/1 entries"
        )
    n_folds = fold_masks.shape[0]
    n_restarts = config.restarts
    batch = n_folds * n_restarts

    slices = _slice_count(batch, batch * _network_bytes(arch, n) * config.max_iterations)
    # children train their rows in place, so they must share every output array
    empty = np.empty if slices == 1 else _shared_empty
    params = _init_params(arch, rng, batch, empty)
    final_loss = empty(batch)
    widths = arch.widths[1:]

    def train_range(lo: int, hi: int) -> None:
        chunk = min(hi - lo, max(1, _CHUNK_BYTES // _network_bytes(arch, n)))
        act_sets = [[np.empty((chunk, n, w)) for w in widths] for _ in range(2)]
        for start in range(lo, hi, chunk):
            stop = min(start + chunk, hi)
            _train_chunk(
                [W[start:stop] for W in params], X, y, fold_masks[np.arange(start, stop) // n_restarts],
                config, act_sets, final_loss[start:stop],
            )

    _run_slices(train_range, [batch * s // slices for s in range(slices + 1)])

    # copies, so that no returned array keeps a shared map alive
    restart_losses = final_loss.reshape(n_folds, n_restarts).copy()
    sel = np.arange(n_folds) * n_restarts + restart_losses.argmin(axis=1)
    # one layer at a time, so the whole batch is never held twice
    for layer in range(len(params)):
        params[layer] = params[layer][sel]
    return params, final_loss[sel], restart_losses


def _slice_count(batch: int, work: int) -> int:
    """Slices, one process each, that a batch of ``batch`` networks trains in.

    One per CPU in this process's affinity mask, and at most one per
    network. ``work`` is the call's buffer bytes times its iteration
    budget; below ``_MIN_FORK_WORK`` the batch trains in one slice. So does
    a process that runs other threads: a forked child would inherit their
    locks but not the threads that release them.
    """
    if work < _MIN_FORK_WORK or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(batch, len(os.sched_getaffinity(0)))


def _run_slices(train, bounds: list) -> None:
    """Run ``train(lo, hi)`` on each slice ``bounds[s]:bounds[s + 1]``.

    Slice 0 runs in this process; every other slice runs in a child forked
    for it, which leaves by ``os._exit``. A child's results reach this
    process only through what ``train`` writes to shared maps. A child
    that fails raises ``RuntimeError`` here; whatever ends this call early,
    children still running are killed and reaped before it returns.
    """
    children = {}
    try:
        for s in range(1, len(bounds) - 1):
            pid = os.fork()
            if pid == 0:
                # the child never returns into the caller's frames
                code = 1
                try:
                    train(bounds[s], bounds[s + 1])
                    code = 0
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(code)
            children[pid] = s
        train(0, bounds[1])
        for pid in list(children):
            status = os.waitpid(pid, 0)[1]
            s = children.pop(pid)
            if status:
                code = os.waitstatus_to_exitcode(status)
                how = f"exit code {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError(
                    f"training slice {s} (networks {bounds[s]}:{bounds[s + 1]}) failed in child "
                    f"process {pid} with {how}"
                )
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _train_chunk(
    params: list,
    X: np.ndarray,
    y: np.ndarray,
    mask: np.ndarray,
    config: TrainerConfig,
    act_sets: list,
    final_loss: np.ndarray,
) -> None:
    """Train the networks ``params`` in place and write their (B,) final losses into ``final_loss``.

    ``mask`` (B, n) holds each network's fold mask; ``act_sets`` are
    ``train_batched``'s two activation sets, each with room for at least
    B networks.

    Networks stop early when the gradient infinity-norm drops below the
    tolerance or the step size underflows; converged networks are retired
    from the working batch so long runs do not pay for finished restarts.
    A retired network's weights are written back to its row of ``params``.

    Each iteration backpropagates into the activation set that is not
    current, whose rows are dead until the candidate step's forward pass
    overwrites them. That pass's activations, masked residual
    ``(out - y) * mask`` and loss become the next iteration's for the
    networks that accept the step, while rejected networks get their
    current rows copied over, along with their parameters. The two sets
    then swap roles. Retiring networks does not compact the current
    activations; ``rows`` maps each working network to its row there, so
    only the rows of rejected networks are ever copied.
    """
    final_params = params
    batch = params[0].shape[0]
    alive = np.arange(batch)
    velocity = [np.zeros_like(W) for W in params]
    step = np.full(batch, _INITIAL_STEP)
    current, spare = act_sets
    acts, out = _forward(params, X, current)
    r = (out - y) * mask
    loss = _sse(r)
    rows = np.arange(batch)

    def retire(done: np.ndarray) -> None:
        nonlocal alive, params, velocity, step, mask, rows, r, loss
        ids = alive[done]
        for layer in range(len(params)):
            final_params[layer][ids] = params[layer][done]
        final_loss[ids] = loss[done]
        keep = ~done
        alive = alive[keep]
        params = [W[keep] for W in params]
        velocity = [V[keep] for V in velocity]
        rows = rows[keep]
        r = r[keep]
        loss = loss[keep]
        step = step[keep]
        mask = mask[keep]

    for _ in range(config.max_iterations):
        grads = _gradients(params, X, acts, r, spare)
        gmax = np.max([np.abs(g).max(axis=(1, 2)) for g in grads], axis=0)
        done = (gmax < _GRADIENT_TOLERANCE) | (step < _MIN_STEP)
        if done.any():
            retire(done)
            if alive.size == 0:
                break
            keep = ~done
            grads = [g[keep] for g in grads]

        scale = step[:, None, None]
        for V, g in zip(velocity, grads):
            V *= _MOMENTUM
            V -= scale * g
        cand = [W + V for W, V in zip(params, velocity)]
        cand_acts, cand_out = _forward(cand, X, spare)
        cand_r = (cand_out - y) * mask
        cand_loss = _sse(cand_r)
        reject = ~(cand_loss <= loss)
        if reject.any():
            for W, C, V in zip(params, cand, velocity):
                C[reject] = W[reject]
                V[reject] = 0.0
            for H, C in zip(acts, cand_acts):
                C[reject] = H[rows[reject]]
            cand_r[reject] = r[reject]
            cand_loss[reject] = loss[reject]
            step[reject] *= 0.5
        params, acts, r, loss = cand, cand_acts, cand_r, cand_loss
        current, spare = spare, current
        rows = np.arange(alive.size)

    if alive.size:
        retire(np.ones(alive.size, dtype=bool))


class MlpModel:
    """Fitted network; optionally reads only a subset of the covariates."""

    def __init__(self, params: list, input_indices: tuple[int, ...] | None = None):
        self.params = [np.asarray(W, dtype=float) for W in params]
        self.input_indices = input_indices

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.input_indices is not None:
            X = X[:, list(self.input_indices)]
        _, out = _forward(self.params, X)
        return out


@dataclass(frozen=True)
class MlpLearner:
    """Neural-network learner for the conformal engine.

    ``input_indices`` restricts the network to a covariate subset (used by
    the partially specified model that ignores the last covariate). The
    trainer configuration decides between the careful multi-restart fit
    and the single-restart one.
    """

    architecture: MlpArchitecture
    trainer: TrainerConfig
    input_indices: tuple[int, ...] | None = None

    def fit(self, dataset: Dataset, rng: np.random.Generator) -> MlpModel:
        return self._fit(dataset, rng, np.ones((1, dataset.n)))[0]

    def loo_scores(self, dataset: Dataset, X_test: np.ndarray, rng) -> np.ndarray:
        """(n, m) scores; for R stacked repetitions (R, n, m), with ``rng`` one generator per repetition.

        The n folds are different networks: they train as one batch
        (``fit_loo``) and each predicts. Stacked repetitions train one
        after another, each fit costing far more than a call.
        """
        if dataset.X.ndim == 3:
            return np.stack([
                self.loo_scores(Dataset(X, y), X_rows, gen)
                for X, y, X_rows, gen in zip(dataset.X, dataset.y, X_test, rng, strict=True)
            ])
        return build_loo_ensemble(dataset, self, rng).scores(X_test)

    def fit_loo(self, dataset: Dataset, rng: np.random.Generator) -> list[MlpModel]:
        """All n leave-one-out fits, trained as one batch of networks."""
        return self._fit(dataset, rng, 1.0 - np.eye(dataset.n))

    def _fit(self, dataset: Dataset, rng: np.random.Generator, fold_masks: np.ndarray) -> list[MlpModel]:
        """One fitted network per row of ``fold_masks``, all trained as one batch."""
        X = dataset.X
        if self.input_indices is not None:
            X = X[:, list(self.input_indices)]
        best, _, _ = train_batched(self.architecture, self.trainer, X, dataset.y, rng, fold_masks)
        return [MlpModel([W[fold] for W in best], self.input_indices) for fold in range(len(fold_masks))]
