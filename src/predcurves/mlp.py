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
(via per-fold sample masks), train simultaneously as one tensor of
networks, which is what makes jackknife-plus with neural learners
affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .conformal import Dataset
from .rng import RngStream, as_generator

MlpParams = list  # list of weight matrices, layer l has shape (width_out, width_in)

_MIN_STEP = 1e-15


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

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


@dataclass(frozen=True)
class TrainerConfig:
    restarts: int = 20
    max_iterations: int = 5000
    initial_step: float = 1e-2
    momentum: float = 0.9
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


OPT_MSE = TrainerConfig()
SINGLE_RESTART = TrainerConfig(restarts=1, max_iterations=500)


def _init_params(arch: MlpArchitecture, gen: np.random.Generator, batch: int) -> list:
    """ReLU-scaled init: weights ~ Normal(0, 2 / fan_in)."""
    params = []
    for fan_in, fan_out in zip(arch.widths[:-1], arch.widths[1:]):
        std = np.sqrt(2.0 / fan_in)
        params.append(std * gen.standard_normal((batch, fan_out, fan_in)))
    return params


def _forward(params: list, X: np.ndarray) -> tuple[list, np.ndarray]:
    """Forward pass. Returns (preactivations per layer, outputs (B, n)).

    Layer weights of shape (B, out, in) run a batch of B networks; 2-D
    weights run one network and give outputs of shape (n,).
    """
    h = X
    preacts = []
    for W in params:
        z = h @ W.swapaxes(-1, -2)
        preacts.append(z)
        h = np.maximum(z, 0.0)
    return preacts, h[..., 0]


def _sse(out: np.ndarray, y: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    r = out - y
    if mask is not None:
        r = r * mask
    return np.einsum("bn,bn->b", r, r)


def _gradients(
    params: list,
    X: np.ndarray,
    y: np.ndarray,
    preacts: list,
    out: np.ndarray,
    mask: np.ndarray | None,
) -> list:
    """Backpropagated gradient of the total squared error.

    The ReLU subgradient at exactly zero is taken as zero.
    """
    r = out - y
    if mask is not None:
        r = r * mask
    delta = (2.0 * r)[..., None] * (preacts[-1] > 0)
    grads: list = [None] * len(params)
    for layer in range(len(params) - 1, -1, -1):
        a_prev = X if layer == 0 else np.maximum(preacts[layer - 1], 0.0)
        grads[layer] = np.swapaxes(delta, -1, -2) @ a_prev
        if layer > 0:
            delta = (delta @ params[layer]) * (preacts[layer - 1] > 0)
    return grads


def train_batched(
    arch: MlpArchitecture,
    config: TrainerConfig,
    X: np.ndarray,
    y: np.ndarray,
    rng: RngStream | np.random.Generator,
    fold_masks: np.ndarray | None = None,
) -> tuple[list, np.ndarray, np.ndarray]:
    """Train ``folds x restarts`` networks simultaneously.

    fold_masks
        Optional (F, n) 0/1 array; fold f trains only on rows with mask 1.
        ``None`` means a single fold using every row.

    Returns ``(params, losses, restart_losses)`` where ``params`` is a list
    of arrays with a leading fold axis (layer l has shape (F, out, in))
    holding each fold's best restart, ``losses`` (F,) their final losses
    and ``restart_losses`` (F, restarts) every restart's final loss.

    Networks stop early when the gradient infinity-norm drops below the
    tolerance or the step size underflows; converged networks are retired
    from the working batch so long runs do not pay for finished restarts.

    Each iteration runs one forward pass, on the candidate step: its
    preactivations, outputs and loss become the next iteration's for the
    networks that accept the step, while rejected networks get their
    current rows copied back, along with their parameters. Retiring
    networks does not compact the carried preactivations; ``rows`` maps
    each working network to its row there, so only the rows of rejected
    networks are ever copied.
    """
    gen = as_generator(rng)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n_folds = 1 if fold_masks is None else fold_masks.shape[0]
    n_restarts = config.restarts
    batch = n_folds * n_restarts

    params = _init_params(arch, gen, batch)
    mask = None
    if fold_masks is not None:
        mask = np.repeat(np.asarray(fold_masks, dtype=float), n_restarts, axis=0)

    final_params = [np.empty_like(W) for W in params]
    final_loss = np.empty(batch)
    alive = np.arange(batch)
    velocity = [np.zeros_like(W) for W in params]
    step = np.full(batch, config.initial_step)
    preacts, out = _forward(params, X)
    loss = _sse(out, y, mask)
    rows = np.arange(batch)

    def retire(done: np.ndarray) -> None:
        nonlocal alive, params, velocity, step, mask, rows, out, loss
        ids = alive[done]
        for layer in range(len(params)):
            final_params[layer][ids] = params[layer][done]
        final_loss[ids] = loss[done]
        keep = ~done
        alive = alive[keep]
        params = [W[keep] for W in params]
        velocity = [V[keep] for V in velocity]
        rows = rows[keep]
        out = out[keep]
        loss = loss[keep]
        step = step[keep]
        if mask is not None:
            mask = mask[keep]

    for _ in range(config.max_iterations):
        grads = _gradients(params, X, y, preacts, out, mask)
        gmax = np.zeros(alive.size)
        for g in grads:
            gmax = np.maximum(gmax, np.abs(g).reshape(alive.size, -1).max(axis=1))
        done = (gmax < config.gradient_tolerance) | (step < _MIN_STEP)
        if done.any():
            retire(done)
            if alive.size == 0:
                break
            keep = ~done
            grads = [g[keep] for g in grads]

        scale = step[:, None, None]
        for V, g in zip(velocity, grads):
            V *= config.momentum
            V -= scale * g
        cand = [W + V for W, V in zip(params, velocity)]
        cand_preacts, cand_out = _forward(cand, X)
        cand_loss = _sse(cand_out, y, mask)
        reject = ~(cand_loss <= loss)
        if reject.any():
            for W, C, V in zip(params, cand, velocity):
                C[reject] = W[reject]
                V[reject] = 0.0
            for Z, C in zip(preacts, cand_preacts):
                C[reject] = Z[rows[reject]]
            cand_out[reject] = out[reject]
            cand_loss[reject] = loss[reject]
            step[reject] *= 0.5
        params, preacts, out, loss = cand, cand_preacts, cand_out, cand_loss
        rows = np.arange(alive.size)

    if alive.size:
        retire(np.ones(alive.size, dtype=bool))

    restart_losses = final_loss.reshape(n_folds, n_restarts)
    best = restart_losses.argmin(axis=1)
    sel = np.arange(n_folds) * n_restarts + best
    best_params = [W[sel] for W in final_params]
    return best_params, final_loss[sel], restart_losses


def mlp_forward(params: MlpParams, x: np.ndarray) -> float:
    """Network output at a single covariate vector."""
    x = np.asarray(x, dtype=float)
    batched = [np.asarray(W, dtype=float)[None] for W in params]
    _, out = _forward(batched, x[None, :])
    return float(out[0, 0])


def mlp_gradient(params: MlpParams, X: np.ndarray, y: np.ndarray) -> MlpParams:
    """Gradient of the total squared error for a single network."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    batched = [np.asarray(W, dtype=float)[None] for W in params]
    preacts, out = _forward(batched, X)
    grads = _gradients(batched, X, y, preacts, out, None)
    return [g[0] for g in grads]


def mlp_loss(params: MlpParams, X: np.ndarray, y: np.ndarray) -> float:
    """Total squared error of a single network on (X, y)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    batched = [np.asarray(W, dtype=float)[None] for W in params]
    _, out = _forward(batched, X)
    return float(_sse(out, np.asarray(y, dtype=float), None)[0])


def canonicalize_mlp(params: MlpParams, reference: MlpParams | None = None) -> MlpParams:
    """Resolve the ReLU symmetries of a single-hidden-layer network.

    Positive homogeneity (``f(c t) = c f(t)`` for ``c > 0``) lets each
    hidden row of the first layer be rescaled with the reciprocal absorbed
    into the output layer without changing any prediction. Each hidden row
    is scaled by a positive factor so its largest absolute entry is 1;
    all-zero rows are left alone. If ``reference`` (already canonical)
    is supplied, hidden units are additionally reordered to minimize the
    total squared distance to it, resolving the permutation symmetry.
    Per-parameter errors are only meaningful after this normalization.
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
    if reference is not None:
        ref1 = np.asarray(reference[0], dtype=float)
        ref2 = np.asarray(reference[1], dtype=float)
        best_cost = np.inf
        best: tuple[int, ...] | None = None
        for perm in permutations(range(a1.shape[0])):
            p = list(perm)
            cost = np.sum((a1[p] - ref1) ** 2) + np.sum((a2[:, p] - ref2) ** 2)
            if cost < best_cost:
                best_cost = cost
                best = p
        a1 = a1[best]
        a2 = a2[:, best]
    return [a1, a2]


class MlpModel:
    """Fitted network; optionally reads only a subset of the covariates."""

    def __init__(self, params: MlpParams, input_indices: tuple[int, ...] | None = None):
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

    def _inputs(self, dataset: Dataset) -> np.ndarray:
        X = dataset.X
        if self.input_indices is not None:
            X = X[:, list(self.input_indices)]
        if X.shape[1] != self.architecture.input_dim:
            raise ValueError(
                f"architecture expects {self.architecture.input_dim} inputs, got {X.shape[1]}"
            )
        return X

    def fit(self, dataset: Dataset, rng: RngStream | np.random.Generator) -> MlpModel:
        X = self._inputs(dataset)
        best, _, _ = train_batched(self.architecture, self.trainer, X, dataset.y, rng)
        return MlpModel([W[0] for W in best], self.input_indices)

    def fit_loo(self, dataset: Dataset, rng: RngStream | np.random.Generator) -> list[MlpModel]:
        """All n leave-one-out fits, trained as one batch of networks."""
        X = self._inputs(dataset)
        masks = 1.0 - np.eye(dataset.n)
        best, _, _ = train_batched(
            self.architecture, self.trainer, X, dataset.y, rng, fold_masks=masks
        )
        return [
            MlpModel([W[fold] for W in best], self.input_indices) for fold in range(dataset.n)
        ]
