"""Dense least squares and leverage (hat) values.

Solves are done through a QR decomposition of the design matrix rather
than the normal equations, for conditioning. A design whose condition
number exceeds ``CONDITION_LIMIT`` is rejected as rank deficient.

For a full-rank design ``X`` with reduced QR factorization ``X = QR``:

* hat diagonal      ``h_ii = ||Q[i, :]||^2``
* hat cross terms   ``h_{i,s} = x_s^T (X^T X)^{-1} x_i = Q[i, :] @ (R^{-T} x_s)``

Both identities follow from ``(X^T X)^{-1} = R^{-1} R^{-T}`` and
``x_i = R^T Q[i, :]^T``.

A fit takes one design, ``X`` (n, p) and ``y`` (n,), or a stack of R
designs, ``X`` (R, n, p) and ``y`` (R, n): every result then gains the
leading axis. numpy's QR, SVD, ``einsum`` and ``matmul`` run the same
LAPACK/BLAS call on each matrix of a stack as on that matrix alone, and
``solve_upper`` hands the whole stack to one binding call, which makes one
single-column ``dtrtrs`` per right-hand side, so a stacked fit equals its
repetitions fitted one by one, to the bit. The stack only saves the
per-call overhead, which dominates at these sizes.

Every triangular solve goes through ``solve_upper``, which calls LAPACK's
``dtrtrs`` directly in one layout, QR's: each C-ordered ``R`` is the
lower-triangular Fortran array ``R^T``. On these p x p systems
``scipy.linalg.solve_triangular`` spends ~25 us per call in argument
handling around a ~1 us kernel. ``dtrtrs`` is bound once, at import, from
the OpenBLAS that numpy's wheel bundles and has already loaded, so this
module imports no scipy. Where numpy bundles no such library, it binds
scipy's wrapper of the same routine instead.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONDITION_LIMIT = 1e12
LEVERAGE_TOL = 1e-10


def _openblas_dtrtrs():
    """``(dtrtrs, library path)`` from numpy's bundled OpenBLAS, or None if it has none.

    numpy 2.x wheels ship OpenBLAS with 64-bit integers as
    ``numpy.libs/libscipy_openblas64_*.so``, exporting ``scipy_dtrtrs_64_``.
    Loading it again returns the handle numpy already holds. Every argument
    is passed by reference, Fortran style, followed by the hidden lengths of
    the three one-character strings; the integers live in a block made per
    call, and the pointers are stepped from the two base addresses.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        fn = getattr(ctypes.PyDLL(str(path)), "scipy_dtrtrs_64_", None)
        if fn is not None:
            break
    else:
        return None
    fn.restype = None
    fn.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 7 + [ctypes.c_size_t] * 3

    def dtrtrs(a, x, trans):
        count, k, p = x.shape
        block = (ctypes.c_int64 * 3)(p, 1, 0)  # n, nrhs, info
        n = ctypes.addressof(block)
        op, a0, x0 = (b"N" if trans else b"T"), a.ctypes.data, x.ctypes.data
        for row in range(count * k):
            fn(b"L", op, b"N", n, n + 8, a0 + row // k * 8 * p * p, n, x0 + row * 8 * p, n, n + 16, 1, 1, 1)
            if block[2]:
                return block[2]
        return 0

    return dtrtrs, str(path)


def _scipy_dtrtrs():
    """``(dtrtrs, "scipy")`` through scipy's LAPACK wrapper, solving in place like the OpenBLAS binding."""
    from scipy.linalg import get_lapack_funcs

    trtrs = get_lapack_funcs("trtrs", dtype=np.float64)

    def dtrtrs(a, x, trans):
        for factor, rows in zip(a, x):
            for row in rows:
                info = trtrs(factor.T, row, lower=1, trans=int(not trans), overwrite_b=1)[1]
                if info:
                    return info
        return 0

    return dtrtrs, "scipy"


# the live binding, dtrtrs(a, x, trans) on C-ordered a (M, p, p) and x (M, k, p), and the library it comes from
_dtrtrs, DTRTRS_LIBRARY = _openblas_dtrtrs() or _scipy_dtrtrs()


def solve_upper(r: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve ``R x = b``, or ``R^T x = b`` when ``trans``, for each upper-triangular ``R`` of a stack.

    ``r`` is (..., p, p) and ``b`` (..., k, p); each row of ``b`` is one
    right-hand side, and the result has ``b``'s shape. Shapes and finiteness
    are checked once, for the whole stack. ``r`` and ``b`` are copied once
    each into C order, and one binding call solves every row in place with
    one single-column ``dtrtrs`` call on the lower-triangular Fortran array
    ``R^T``, with the transpose flag flipped: the call
    ``scipy.linalg.solve_triangular`` makes for a C-ordered ``R``, so the
    result is the same to the bit (``tests/test_linalg.py`` holds both
    bindings to it). Columns are never batched: OpenBLAS runs a multi-column
    solve on its thread pool, which on these p x p systems costs about ten
    times as much and keeps a second core busy. Like ``solve_triangular``,
    raises ``ValueError`` on a non-finite ``b`` and ``LinAlgError`` on a zero
    on the diagonal of ``R``, whose finiteness is not checked.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if b.ndim < 2 or b.shape[:-2] + b.shape[-1:] * 2 != r.shape:
        raise ValueError(f"cannot solve a {r.shape} triangle for right-hand sides of shape {b.shape}")
    count, (k, p) = int(np.prod(r.shape[:-2])), b.shape[-2:]
    x = np.array(b, dtype=np.float64, order="C")
    info = _dtrtrs(np.array(r, dtype=np.float64, order="C").reshape(count, p, p), x.reshape(count, k, p), trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return x


@dataclass(frozen=True)
class LeastSquaresFit:
    """QR-backed least-squares solution, reusable for hat-value queries.

    ``beta`` is (..., p), ``q`` (..., n, p) and ``r`` (..., p, p), where
    ``...`` is empty for one design and (R,) for a stack of R designs.
    """

    beta: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def hat_diag(self) -> np.ndarray:
        """Diagonal of each projection matrix, (..., n); errors on a leverage-one point in any design."""
        diag = np.einsum("...ij,...ij->...i", self.q, self.q)
        if np.any(diag >= 1.0 - LEVERAGE_TOL):
            raise ValueError("leverage-one point")
        return diag

    def hat_cross_many(self, X_s: np.ndarray) -> np.ndarray:
        """Cross leverages ``h_{i,s}`` for the m query rows of ``X_s`` (..., m, p); shape (..., n, m).

        The whole stack takes one ``solve_upper`` call, one single-column
        ``dtrtrs`` per query row and design, and one ``matmul``.
        """
        X_s = np.asarray(X_s, dtype=float)
        stacked = self.r.shape[:-2]
        if X_s.shape[:-2] != stacked:
            raise ValueError(f"query rows of shape {X_s.shape} for designs stacked as {stacked}")
        T = solve_upper(self.r, X_s, trans=True)
        return self.q @ np.swapaxes(T, -1, -2)


def least_squares(X: np.ndarray, y: np.ndarray) -> LeastSquaresFit:
    """Fit ``min ||y - X beta||^2`` via QR with a condition-number guard, for one design or a stack.

    Every design of a stack is checked for rank before any is solved;
    one rank-deficient design fails the whole stack.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim < 2 or X.shape[:-1] != y.shape:
        raise ValueError("X must be (n, p) and y (n,) with matching n")
    n, p = X.shape[-2:]
    if n < p:
        raise ValueError("rank-deficient design")
    q, r = np.linalg.qr(X)
    sv = np.linalg.svd(r, compute_uv=False)
    smallest = sv[..., -1]
    if (smallest <= 0.0).any() or (sv[..., 0] / smallest > CONDITION_LIMIT).any():
        raise ValueError("rank-deficient design")
    qty = (np.swapaxes(q, -1, -2) @ y[..., None])[..., 0]
    beta = solve_upper(r, qty[..., None, :])[..., 0, :]
    return LeastSquaresFit(beta=beta, q=q, r=r)
