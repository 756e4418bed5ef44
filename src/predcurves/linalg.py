"""Dense least squares and leverage (hat) values.

Solves are done through a QR decomposition of the design matrix rather
than the normal equations, for conditioning. A design whose condition
number exceeds ``CONDITION_LIMIT`` is rejected as rank deficient.

For a full-rank design ``X`` with reduced QR factorization ``X = QR``:

* hat diagonal      ``h_ii = ||Q[i, :]||^2``
* hat cross terms   ``h_{i,s} = x_s^T (X^T X)^{-1} x_i = Q[i, :] @ (R^{-T} x_s)``

Both identities follow from ``(X^T X)^{-1} = R^{-1} R^{-T}`` and
``x_i = R^T Q[i, :]^T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

CONDITION_LIMIT = 1e12
LEVERAGE_TOL = 1e-10


@dataclass(frozen=True)
class LeastSquaresFit:
    """QR-backed least-squares solution, reusable for hat-value queries."""

    beta: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def predict(self, X_new: np.ndarray) -> np.ndarray:
        return np.asarray(X_new, dtype=float) @ self.beta

    def hat_diag(self) -> np.ndarray:
        """Diagonal of the projection matrix; errors on leverage-one points."""
        diag = np.einsum("ij,ij->i", self.q, self.q)
        if np.any(diag >= 1.0 - LEVERAGE_TOL):
            raise ValueError("leverage-one point")
        return diag

    def hat_cross(self, x_s: np.ndarray) -> np.ndarray:
        """Vector of cross leverages h_{i,s} for one query point ``x_s``."""
        t = solve_triangular(self.r, np.asarray(x_s, dtype=float), trans="T")
        return self.q @ t

    def hat_cross_many(self, X_s: np.ndarray) -> np.ndarray:
        """Cross leverages for several query points; shape (n, m).

        One triangular solve per point: OpenBLAS runs a solve with several
        right-hand sides on its thread pool, which for these p x p systems
        costs about ten times as much as single-column solves and keeps a
        second core busy while a study runs.
        """
        X_s = np.asarray(X_s, dtype=float)
        T = np.empty((self.r.shape[0], X_s.shape[0]))
        for j, x_s in enumerate(X_s):
            T[:, j] = solve_triangular(self.r, x_s, trans="T")
        return self.q @ T


def least_squares(X: np.ndarray, y: np.ndarray) -> LeastSquaresFit:
    """Fit ``min ||y - X beta||^2`` via QR with a condition-number guard."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, p) and y (n,) with matching n")
    n, p = X.shape
    if n < p:
        raise ValueError("rank-deficient design")
    q, r = np.linalg.qr(X)
    sv = np.linalg.svd(r, compute_uv=False)
    if sv[-1] <= 0.0 or sv[0] / sv[-1] > CONDITION_LIMIT:
        raise ValueError("rank-deficient design")
    beta = solve_triangular(r, q.T @ y)
    return LeastSquaresFit(beta=beta, q=q, r=r)


def ols_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients for design ``X`` and response ``y``."""
    return least_squares(X, y).beta


def hat_values(X: np.ndarray, x_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hat diagonal of ``X`` and cross leverages against the point ``x_s``.

    Returns ``(diag, cross)`` with ``diag[i] = h_ii`` and
    ``cross[i] = h_{i,s}``. Raises ``ValueError("leverage-one point")``
    whenever some ``h_ii >= 1 - LEVERAGE_TOL``, because deleted residuals
    are undefined there.
    """
    fit = least_squares(X, np.zeros(np.asarray(X).shape[0]))
    return fit.hat_diag(), fit.hat_cross(x_s)
