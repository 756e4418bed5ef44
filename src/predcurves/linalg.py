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
``solve_upper`` solves the whole stack in one call, with one single-column
``dtrtrs`` per right-hand side, so a stacked fit equals its repetitions
fitted one by one, to the bit. The stack only saves the per-call
overhead, which dominates at these sizes.

Every triangular solve goes through ``solve_upper``, which calls LAPACK's
``dtrtrs`` directly: on these p x p systems ``scipy.linalg.solve_triangular``
spends ~25 us per call in argument handling around a ~1 us kernel.
``dtrtrs`` is bound once, at import, from the OpenBLAS that numpy's wheel
bundles and has already loaded, so this module imports no scipy. Where
numpy bundles no such library, it binds scipy's wrapper of the same
routine instead.
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
    the three one-character strings. The integer arguments live in one block
    made here; loaded as a ``PyDLL``, the call keeps the GIL, so two threads
    never share that block. The right-hand side is always one column.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        fn = getattr(ctypes.PyDLL(str(path)), "scipy_dtrtrs_64_", None)
        if fn is not None:
            break
    else:
        return None
    fn.restype = None
    n, nrhs, info = ctypes.c_int64(), ctypes.c_int64(1), ctypes.c_int64()
    n_ref, nrhs_ref, info_ref = ctypes.byref(n), ctypes.byref(nrhs), ctypes.byref(info)
    one = ctypes.c_size_t(1)
    uplo, op = (b"U", b"L"), (b"N", b"T")
    address = ctypes.c_double.from_buffer
    byref = ctypes.byref

    def dtrtrs(a, x, lower, trans):
        n.value = a.shape[0]
        # a.T is the C-contiguous view from_buffer takes of the Fortran array
        fn(uplo[lower], op[trans], b"N", n_ref, nrhs_ref, byref(address(a.T)), n_ref,
           byref(address(x)), n_ref, info_ref, one, one, one)
        return info.value

    return dtrtrs, str(path)


def _scipy_dtrtrs():
    """``(dtrtrs, "scipy")`` through scipy's LAPACK wrapper, solving in place like the OpenBLAS binding."""
    from scipy.linalg import get_lapack_funcs

    trtrs = get_lapack_funcs("trtrs", dtype=np.float64)

    def dtrtrs(a, x, lower, trans):
        return trtrs(a, x, lower=lower, trans=trans, overwrite_b=1)[1]

    return dtrtrs, "scipy"


# the live binding, and the library it comes from
_dtrtrs, DTRTRS_LIBRARY = _openblas_dtrtrs() or _scipy_dtrtrs()


def solve_upper(r: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve ``R x = b``, or ``R^T x = b`` when ``trans``, for each upper-triangular ``R`` of a stack.

    ``r`` is (..., p, p) and ``b`` (..., k, p); each row of ``b`` is one
    right-hand side, and the result has ``b``'s shape. Shapes and finiteness
    are checked once, for the whole stack. ``b`` is copied into one C-ordered
    buffer whose rows are contiguous Fortran columns, and each row is solved
    in place by one single-column ``dtrtrs`` call, the call
    ``scipy.linalg.solve_triangular(r[i], b[i, j], trans)`` makes, so the
    result is the same to the bit (``tests/test_linalg.py`` holds both
    bindings to it). Columns are never batched: OpenBLAS runs a multi-column
    solve on its thread pool, which on these p x p systems costs about ten
    times as much and keeps a second core busy. A C-ordered ``R`` is passed
    as the lower-triangular Fortran array ``R^T`` with the transpose flag
    flipped; one that is not writable, or not Fortran-ordered in that form,
    is copied first, as scipy's wrapper copies it. Like ``solve_triangular``,
    raises ``ValueError`` on a non-finite ``b`` and ``LinAlgError`` on a zero
    on the diagonal of ``R``, whose finiteness is not checked.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if b.ndim < 2 or b.shape[:-2] + b.shape[-1:] * 2 != r.shape:
        raise ValueError(f"cannot solve a {r.shape} triangle for right-hand sides of shape {b.shape}")
    x = np.array(b, dtype=np.float64, order="C")
    for i in np.ndindex(r.shape[:-2]):
        a, lower = (r[i], 0) if r[i].flags.f_contiguous else (r[i].T, 1)
        if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
            a = np.array(a, dtype=np.float64, order="F")
        for column in x[i]:
            info = _dtrtrs(a, column, lower, int(trans) ^ lower)
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
