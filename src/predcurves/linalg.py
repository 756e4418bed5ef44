"""Dense least squares and leverage (hat) values.

Solves are done through a QR decomposition of the design matrix rather
than the normal equations, for conditioning. A design whose condition
number exceeds ``CONDITION_LIMIT`` is rejected as rank deficient.

For a full-rank design ``X`` with reduced QR factorization ``X = QR``:

* hat diagonal      ``h_ii = ||Q[i, :]||^2``
* hat cross terms   ``h_{i,s} = x_s^T (X^T X)^{-1} x_i = Q[i, :] @ (R^{-T} x_s)``

Both identities follow from ``(X^T X)^{-1} = R^{-1} R^{-T}`` and
``x_i = R^T Q[i, :]^T``.

Every triangular solve goes through ``solve_upper``, which calls LAPACK's
``trtrs`` directly: on these p x p systems ``scipy.linalg.solve_triangular``
spends ~25 us per call in argument handling around a ~1 us kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

CONDITION_LIMIT = 1e12
LEVERAGE_TOL = 1e-10

_TRTRS = get_lapack_funcs("trtrs", dtype=np.float64)


def solve_upper(r: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve ``R x = b``, or ``R^T x = b`` when ``trans``, for upper-triangular ``R``.

    ``b`` is (p,) or (p, k). The LAPACK call and its arguments are the ones
    ``scipy.linalg.solve_triangular(r, b, trans)`` makes, so the result is
    the same to the bit. A C-ordered ``R`` is passed as the lower-triangular
    Fortran array ``R^T`` with the transpose flag flipped. Like that
    function, raises ``ValueError`` on a non-finite ``b``, and
    ``LinAlgError`` on a zero on the diagonal of ``R``; ``R`` itself is not
    checked for finiteness.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if r.flags.f_contiguous:
        x, info = _TRTRS(r, b, trans=int(trans))
    else:
        x, info = _TRTRS(r.T, b, lower=1, trans=int(not trans))
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return x


@dataclass(frozen=True)
class LeastSquaresFit:
    """QR-backed least-squares solution, reusable for hat-value queries."""

    beta: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def hat_diag(self) -> np.ndarray:
        """Diagonal of the projection matrix; errors on leverage-one points."""
        diag = np.einsum("ij,ij->i", self.q, self.q)
        if np.any(diag >= 1.0 - LEVERAGE_TOL):
            raise ValueError("leverage-one point")
        return diag

    def hat_cross_many(self, X_s: np.ndarray) -> np.ndarray:
        """Cross leverages ``h_{i,s}`` for the m query rows of ``X_s``; shape (n, m).

        One triangular solve per point: OpenBLAS runs a solve with several
        right-hand sides on its thread pool, which for these p x p systems
        costs about ten times as much as single-column solves and keeps a
        second core busy while a study runs.
        """
        X_s = np.asarray(X_s, dtype=float)
        T = np.empty((self.r.shape[0], X_s.shape[0]))
        for j, x_s in enumerate(X_s):
            T[:, j] = solve_upper(self.r, x_s, trans=True)
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
    beta = solve_upper(r, q.T @ y)
    return LeastSquaresFit(beta=beta, q=q, r=r)

