"""Seeded samplers for the simulation scenarios.

Draw order within each function is fixed and documented, so a given
stream position always produces the same values.
"""

from __future__ import annotations

import numpy as np


def sample_mvn(
    mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``size`` multivariate normal draws via the lower Cholesky factor; shape ``(size, d)``.

    Each draw is ``mean + L z`` with ``L L^T = cov`` and ``z`` standard
    normal.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (mean.size, mean.size):
        raise ValueError("cov must be square and match mean")
    if not np.allclose(cov, cov.T):
        raise ValueError("covariance not positive definite")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance not positive definite") from exc
    z = rng.standard_normal((size, mean.size))
    return mean + z @ chol.T


def sample_noncentral_t(
    df: float, ncp: float, rng: np.random.Generator, size: int | tuple[int, ...]
) -> np.ndarray:
    """Noncentral t draws of shape ``size``, built as ``(Z + ncp) / sqrt(V / df)``.

    ``Z`` is standard normal and ``V`` chi-square with ``df`` degrees of
    freedom, drawn independently in that order (all ``Z`` first, then all
    ``V``).
    """
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    z = rng.standard_normal(size)
    v = rng.chisquare(df, size)
    return (z + ncp) / np.sqrt(v / df)
