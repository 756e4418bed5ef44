"""Data-generating scenarios for the Monte Carlo studies.

Two families are provided, each with an in-distribution ("iid") and a
covariate-shifted ("non-iid") test law; each scenario class names its
family in ``family``. Training rows are always drawn from the base law;
test responses always follow the true model given the test covariates,
so only the covariate marginal shifts.

linear
    y = b0 + b1 z + b2 w + eps with (z, w) Gaussian, AR(1)-type
    covariance scaled by 1/2. The shifted test law moves the covariate
    mean and changes the correlation; its covariance has its own scale
    (``LinearScenario.cov_shift_scale``), which defaults to the training
    law's 1/2. The paper's Table 1 shifted cells correspond to a unit
    scale, N((2, 2), [[1, .8], [.8, 1]]), not to this default.

nn
    y = max(0, max(0, z1 + z2) - max(0, w)) + eps, a bias-free two-layer
    ReLU network in disguise. The shifted test law replaces the Gaussian
    covariates by three independent noncentral-t draws, which are both
    translated and heavy tailed.

A scenario's law constants are class attributes; its fields are what
callers set (``beta``, ``cov_shift_scale``; ``sigma2``). Every draw takes
the training size as an argument: ``NnScenario.n_train`` is read by
nothing, kept only because ``perfbench`` passes it.

Every row comes from ``draw_pairs``: covariates from the training law
or the scenario's ``shifted_covariates``, then responses.
``draw_dataset`` is the one train-then-test draw for every scenario;
``gen_linear`` and ``gen_nn`` name it only for ``perfbench``. Training
pairs come first on the stream, so no test law or size moves them, and
``draw_test_laws`` starts each law's test pairs where the training rows end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .conformal import Dataset
from .mlp import _forward
from .sampling import sample_mvn, sample_noncentral_t


def ar_covariance(dim: int, rho: float, scale: float = 0.5) -> np.ndarray:
    """Covariance with entries ``scale * rho ** |k - k'|``."""
    idx = np.arange(dim)
    return scale * rho ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class LinearScenario:
    """Gaussian linear model with an iid and a covariate-shifted test law.

    Training and iid test covariates are N(mu_x, ar_covariance(2, rho_x));
    shifted test covariates are
    N(mu_x + shift, ar_covariance(2, rho_shift, cov_shift_scale)).

    The default ``cov_shift_scale`` of 1/2 is not the law behind the
    paper's Table 1. At that table's level (alpha = 0.025) the paper's
    shifted coverages (mu1 0.81, mu2/mu3 0.345/0.33) match a unit scale,
    whose large-n limits are 0.82 and 0.30, against 0.87 and 0.23 at 1/2.
    The default is kept so that existing seeded outputs stay
    byte-identical.
    """

    family: ClassVar[str] = "linear"
    sigma2: ClassVar[float] = 1.0
    mu_x: ClassVar[tuple[float, float]] = (0.0, 0.0)
    rho_x: ClassVar[float] = 0.5
    shift: ClassVar[tuple[float, float]] = (2.0, 2.0)
    rho_shift: ClassVar[float] = 0.8
    beta: tuple[float, float, float] = (-1.0, 2.0, 2.0)
    cov_shift_scale: float = 0.5

    @property
    def cov_x(self) -> np.ndarray:
        return ar_covariance(2, self.rho_x)

    @property
    def cov_shift(self) -> np.ndarray:
        return ar_covariance(2, self.rho_shift, self.cov_shift_scale)

    @property
    def mu_shifted(self) -> np.ndarray:
        return np.asarray(self.mu_x) + np.asarray(self.shift)

    def mean_response(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        b = np.asarray(self.beta)
        return b[0] + X @ b[1:]

    def shifted_covariates(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` covariate rows of the shifted test law."""
        return sample_mvn(self.mu_shifted, self.cov_shift, rng, size=size)


@dataclass(frozen=True)
class NnScenario:
    family: ClassVar[str] = "nn"
    mu_x: ClassVar[tuple[float, float, float]] = (0.0, 0.0, 0.0)
    rho_x: ClassVar[float] = 0.5
    t_df: ClassVar[float] = 3.0
    t_ncp: ClassVar[float] = 1.0
    sigma2: float = 1.0
    n_train: int = 300  # read by nothing; perfbench's DeepLooPaper passes it

    @property
    def cov_x(self) -> np.ndarray:
        return ar_covariance(3, self.rho_x)

    def true_params(self) -> list:
        """Weights whose network computes max(0, max(0, z1+z2) - max(0, w))."""
        a1 = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        a2 = np.array([[1.0, -1.0]])
        return [a1, a2]

    def equivalent_true_params(self) -> list:
        """All canonical weight sets computing the true response surface.

        Beyond scale and permutation, this network has one more exact
        symmetry: pointwise in (a, w),

            max(0, a - max(0, w)) = max(0, max(0, a - w) - max(0, -w)),

        (check the cases w >= 0 and w < 0 separately), so shearing w into
        the first hidden unit while negating the second leaves the response
        surface identical everywhere. Parameters are therefore only
        identified up to this two-member class, and estimation error must
        be measured against the nearest member.
        """
        alt1 = np.array([[1.0, 1.0, -1.0], [0.0, 0.0, -1.0]])
        alt2 = np.array([[1.0, -1.0]])
        return [self.true_params(), [alt1, alt2]]

    def mean_response(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        _, out = _forward([W[None] for W in self.true_params()], X)
        return out[0]

    def shifted_covariates(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` rows ``(T1, T2, T3)``, independent noncentral-t draws (``t_df``, ``t_ncp``)."""
        return sample_noncentral_t(self.t_df, self.t_ncp, rng, size=(size, 3))


def draw_pairs(scenario, iid: bool, rng: np.random.Generator, size: int):
    """``size`` pairs ``(X, y)``: covariates, then responses given them.

    Covariates follow the training law when ``iid``, the scenario's
    shifted law otherwise. A zero-size draw leaves ``rng`` where it was.
    """
    if iid:
        X = sample_mvn(np.asarray(scenario.mu_x), scenario.cov_x, rng, size=size)
    else:
        X = scenario.shifted_covariates(rng, size)
    return X, scenario.mean_response(X) + np.sqrt(scenario.sigma2) * rng.standard_normal(size)


def draw_test_laws(scenario, laws: tuple[bool, ...], rng: np.random.Generator, size: int):
    """``size`` test pairs per ``iid`` flag in ``laws``, each from the current stream position.

    Called right after a training draw, each law gets the test pairs that
    a fresh generator call under that law would draw after the same rows.
    """
    start = rng.bit_generator.state
    pairs = []
    for iid in laws:
        rng.bit_generator.state = start
        pairs.append(draw_pairs(scenario, iid, rng, size))
    return pairs


def draw_dataset(
    scenario: LinearScenario | NnScenario,
    iid: bool,
    rng: np.random.Generator,
    n_train: int,
    n_test: int,
) -> tuple[Dataset, tuple[np.ndarray, np.ndarray]]:
    """``n_train`` training pairs, then ``n_test`` under ``iid``, on one stream."""
    X, y = draw_pairs(scenario, True, rng, n_train)
    return Dataset(X, y), draw_pairs(scenario, iid, rng, n_test)


# names of the one draw kept only for perfbench, whose workloads call and tracer patches both
gen_linear = gen_nn = draw_dataset
