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
every triangular solve is still made one matrix at a time, so a stacked
fit equals its repetitions fitted one by one, to the bit. The stack only
saves the per-call overhead, which dominates at these sizes.

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
    never share that block.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        fn = getattr(ctypes.PyDLL(str(path)), "scipy_dtrtrs_64_", None)
        if fn is not None:
            break
    else:
        return None
    fn.restype = None
    n, nrhs, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
    n_ref, nrhs_ref, info_ref = ctypes.byref(n), ctypes.byref(nrhs), ctypes.byref(info)
    one = ctypes.c_size_t(1)
    uplo, op = (b"U", b"L"), (b"N", b"T")
    address = ctypes.c_double.from_buffer
    byref = ctypes.byref

    def dtrtrs(a, x, lower, trans):
        n.value = a.shape[0]
        nrhs.value = 1 if x.ndim == 1 else x.shape[1]
        # a.T and x.T are the C-contiguous views from_buffer takes of the Fortran arrays
        fn(uplo[lower], op[trans], b"N", n_ref, nrhs_ref, byref(address(a.T)), n_ref,
           byref(address(x.T)), n_ref, info_ref, one, one, one)
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
    """Solve ``R x = b``, or ``R^T x = b`` when ``trans``, for upper-triangular ``R``.

    ``b`` is (p,) or (p, k). The LAPACK call and its arguments are the ones
    ``scipy.linalg.solve_triangular(r, b, trans)`` makes, so the result is
    the same to the bit: the scipy binding is the wrapper that function
    calls, and the OpenBLAS binding runs the same ``dtrtrs`` on the same
    matrix, right-hand side and flags (``tests/test_linalg.py`` holds both
    to ``solve_triangular``). A C-ordered ``R`` is passed as the
    lower-triangular Fortran array ``R^T`` with the transpose flag flipped.
    An ``R`` that is not writable, or not Fortran-ordered in that form, is
    copied first, as scipy's wrapper copies it; ``b`` is always copied,
    into the Fortran array the solution overwrites. Like
    ``solve_triangular``, raises ``ValueError`` on a non-finite ``b``, and
    ``LinAlgError`` on a zero on the diagonal of ``R``; ``R`` itself is not
    checked for finiteness.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x = np.array(b, dtype=np.float64, order="F")
    a, lower = (r, 0) if r.flags.f_contiguous else (r.T, 1)
    trans = int(trans) ^ lower
    if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
        a = np.array(a, dtype=np.float64, order="F")
    if a.ndim != 2 or x.ndim > 2 or a.shape[1] != a.shape[0] or x.shape[:1] != a.shape[:1]:
        raise ValueError(f"cannot solve a {r.shape} triangle for a right-hand side of shape {x.shape}")
    info = _dtrtrs(a, x, lower, trans)
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

        One triangular solve per point and design: OpenBLAS runs a solve
        with several right-hand sides on its thread pool, which for these
        p x p systems costs about ten times as much as single-column solves
        and keeps a second core busy while a study runs.
        """
        X_s = np.asarray(X_s, dtype=float)
        stacked = self.r.shape[:-2]
        if X_s.shape[:-2] != stacked:
            raise ValueError(f"query rows of shape {X_s.shape} for designs stacked as {stacked}")
        T = np.empty((*stacked, self.r.shape[-1], X_s.shape[-2]))
        for k in np.ndindex(stacked):
            for j, x_s in enumerate(X_s[k]):
                T[k][:, j] = solve_upper(self.r[k], x_s, trans=True)
        return self.q @ T


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
    beta = np.empty(qty.shape)
    for k in np.ndindex(X.shape[:-2]):
        beta[k] = solve_upper(r[k], qty[k])
    return LeastSquaresFit(beta=beta, q=q, r=r)
