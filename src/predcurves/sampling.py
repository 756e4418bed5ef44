"""Seeded samplers for the simulation scenarios.

Draw order within each function is fixed and documented, so a given
stream position always produces the same values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def _cholesky_transpose(d: int, cov_bytes: bytes) -> np.ndarray:
    """``L^T`` for the (d, d) covariance whose float64 bytes are ``cov_bytes``; read-only.

    Keyed on the covariance's values, so a matrix changed in place gets a
    new factor. An invalid covariance raises, and ``lru_cache`` stores no
    exception, so it raises again on every call.
    """
    cov = np.frombuffer(cov_bytes).reshape(d, d)
    if not np.allclose(cov, cov.T):
        raise ValueError("covariance not positive definite")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance not positive definite") from exc
    chol_t = chol.T
    chol_t.flags.writeable = False
    return chol_t


def sample_mvn(
    mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``size`` multivariate normal draws via the lower Cholesky factor; shape ``(size, d)``.

    Each draw is ``mean + L z`` with ``L L^T = cov`` and ``z`` standard
    normal. Each distinct covariance is checked and factored once.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (mean.size, mean.size):
        raise ValueError("cov must be square and match mean")
    chol_t = _cholesky_transpose(mean.size, cov.tobytes())
    z = rng.standard_normal((size, mean.size))
    return mean + z @ chol_t


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
