import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from predcurves import linalg
from predcurves.closed_form import closed_form_scores
from predcurves.linalg import least_squares, solve_upper


def test_intercept_only_is_mean():
    X = np.ones((3, 1))
    y = np.array([2.0, 2.0, 2.0])
    assert least_squares(X, y).beta == pytest.approx([2.0])


def test_exact_line_interpolation():
    z = np.array([0.0, 1.0, 2.0, 5.0])
    X = np.column_stack([np.ones_like(z), z])
    y = 1.0 + 3.0 * z
    beta = least_squares(X, y).beta
    np.testing.assert_allclose(beta, [1.0, 3.0], atol=1e-12)


def test_matches_normal_equations():
    # independent oracle: solve X'X beta = X'y by explicit 3x3 inversion
    gen = np.random.default_rng(42)
    X = gen.standard_normal((20, 3))
    y = gen.standard_normal(20)
    xtx = X.T @ X
    oracle = np.linalg.inv(xtx) @ (X.T @ y)
    np.testing.assert_allclose(least_squares(X, y).beta, oracle, atol=1e-10)


def test_residual_orthogonality():
    gen = np.random.default_rng(7)
    for _ in range(20):
        n = int(gen.integers(5, 60))
        p = int(gen.integers(1, min(6, n)))
        X = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        beta = least_squares(X, y).beta
        lhs = np.max(np.abs(X.T @ (y - X @ beta)))
        assert lhs < 1e-8 * (1.0 + np.max(np.abs(X.T @ y)))


def test_rank_deficient_rejected():
    X = np.column_stack([np.ones(5), np.ones(5)])
    with pytest.raises(ValueError, match="rank-deficient design"):
        least_squares(X, np.arange(5.0))


def test_more_columns_than_rows_rejected():
    with pytest.raises(ValueError, match="rank-deficient design"):
        least_squares(np.random.default_rng(0).standard_normal((3, 5)), np.zeros(3))


def test_hat_trace_equals_rank():
    gen = np.random.default_rng(3)
    for _ in range(30):
        n = int(gen.integers(6, 80))
        p = int(gen.integers(1, min(7, n - 1)))
        X = gen.standard_normal((n, p))
        diag = least_squares(X, np.zeros(n)).hat_diag()
        # per-design identity; the p/n mean-leverage law follows from it
        assert abs(diag.sum() - p) < 1e-8
        assert abs(diag.mean() - p / n) < 1e-8
        assert np.all(diag >= -1e-12)


def test_cross_at_training_point_matches_diag():
    gen = np.random.default_rng(11)
    X = gen.standard_normal((25, 3))
    fit = least_squares(X, np.zeros(25))
    cross = fit.hat_cross_many(X[4:5])[:, 0]
    assert cross[4] == pytest.approx(fit.hat_diag()[4], abs=1e-10)


def test_cross_at_mean_row_with_intercept():
    # rows of the hat matrix sum to 1 when the design spans the constant
    gen = np.random.default_rng(12)
    X = np.column_stack([np.ones(40), gen.standard_normal((40, 2))])
    x_bar = X.mean(axis=0)
    cross = least_squares(X, np.zeros(40)).hat_cross_many(x_bar[None, :])[:, 0]
    np.testing.assert_allclose(cross, np.full(40, 1.0 / 40), atol=1e-10)


def test_hat_cross_definition():
    gen = np.random.default_rng(13)
    X = gen.standard_normal((15, 3))
    x_s = gen.standard_normal(3)
    cross = least_squares(X, np.zeros(15)).hat_cross_many(x_s[None, :])[:, 0]
    oracle = X @ np.linalg.inv(X.T @ X) @ x_s
    np.testing.assert_allclose(cross, oracle, atol=1e-10)


def test_leverage_one_point_rejected():
    # with n == p every diagonal hat value is 1
    X = np.random.default_rng(5).standard_normal((3, 3))
    with pytest.raises(ValueError, match="leverage-one point"):
        least_squares(X, np.zeros(3)).hat_diag()


def test_hat_cross_many_matches_single():
    gen = np.random.default_rng(21)
    X = gen.standard_normal((18, 3))
    fit = least_squares(X, gen.standard_normal(18))
    points = gen.standard_normal((4, 3))
    many = fit.hat_cross_many(points)
    for j in range(4):
        one_row = fit.hat_cross_many(points[j : j + 1])
        np.testing.assert_allclose(many[:, j], one_row[:, 0], atol=1e-12)
    assert fit.hat_cross_many(points[:0]).shape == (18, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_response_rejected(bad):
    gen = np.random.default_rng(31)
    X = gen.standard_normal((10, 3))
    y = gen.standard_normal(10)
    y[2] = bad
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        least_squares(X, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_design_rejected(bad):
    gen = np.random.default_rng(32)
    X = gen.standard_normal((10, 3))
    X[4, 1] = bad
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        least_squares(X, gen.standard_normal(10))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_query_point_rejected(bad):
    gen = np.random.default_rng(33)
    fit = least_squares(gen.standard_normal((10, 3)), gen.standard_normal(10))
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        fit.hat_cross_many(np.array([[1.0, 0.5, 2.0], [1.0, bad, 2.0]]))


# How each R of a stack reaches solve_upper: C- or Fortran-ordered, read-only, or a strided column slice.
# solve_upper copies each into C order, so all four reach dtrtrs one way and give the same bits.
R_FORMS = ["C", "F", "read-only", "column-slice"]


def _as_form(r: np.ndarray, form: str) -> np.ndarray:
    """The stack ``r`` (..., p, p), with each of its matrices in ``form``."""
    if form == "column-slice":
        wide = np.zeros((*r.shape[:-1], 2 * r.shape[-1]))
        wide[..., ::2] = r
        return wide[..., ::2]
    if form == "C":
        return np.ascontiguousarray(r)
    r = np.swapaxes(np.ascontiguousarray(np.swapaxes(r, -1, -2)), -1, -2)
    r.flags.writeable = form == "F"
    return r


# scipy's wrapper of dtrtrs, the binding solve_upper falls back to
SCIPY_DTRTRS = linalg._scipy_dtrtrs()[0]


@pytest.mark.parametrize("order", R_FORMS)
@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("stack", [(), (2,), (7,)], ids=["single", "stack-2", "stack-7"])
def test_solve_upper_matches_scipy_bit_for_bit(order, trans, stack, monkeypatch):
    # the live dtrtrs is the OpenBLAS numpy bundles, wherever numpy bundles one
    bundled = sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    assert linalg.DTRTRS_LIBRARY == (str(bundled[0]) if bundled else "scipy")
    gen = np.random.default_rng(41)
    systems = []
    for p in [4, *gen.integers(1, 6, 5)]:
        for rows in range(4):
            _, r = np.linalg.qr(gen.standard_normal((*stack, 30, p)))
            systems.append((_as_form(r, order), gen.standard_normal((*stack, rows, p))))
    solutions = []
    for r, b in systems:
        r_before, b_before = r.copy(), b.copy()
        x = solve_upper(r, b, trans=trans == "T")
        assert x.shape == b.shape
        # every form solves as QR's C-ordered factor does, through solve_triangular and through solve_upper
        r_c = np.ascontiguousarray(r)
        for i in np.ndindex(stack):
            for j in range(b.shape[-2]):
                np.testing.assert_array_equal(x[i][j], scipy.linalg.solve_triangular(r_c[i], b[i][j], trans=trans))
        np.testing.assert_array_equal(solve_upper(r_c, b, trans=trans == "T"), x)
        np.testing.assert_array_equal(r, r_before)
        np.testing.assert_array_equal(b, b_before)
        solutions.append(x)
    # the fallback binding, through the same solve_upper, on the same systems
    monkeypatch.setattr(linalg, "_dtrtrs", SCIPY_DTRTRS)
    for (r, b), x in zip(systems, solutions):
        np.testing.assert_array_equal(solve_upper(r, b, trans=trans == "T"), x)


@pytest.mark.parametrize("binding", ["live", "scipy"])
def test_solve_upper_is_thread_safe(binding, monkeypatch):
    # two threads solve p = 2 and p = 5 stacks, switching as often as the interpreter allows;
    # no call may see the other thread's arguments
    if binding == "scipy":
        monkeypatch.setattr(linalg, "_dtrtrs", SCIPY_DTRTRS)
    gen = np.random.default_rng(44)
    systems = {}
    for p in (2, 5):
        _, r = np.linalg.qr(gen.standard_normal((4, 30, p)))
        b = gen.standard_normal((4, 2, p))
        systems[p] = (r, b, solve_upper(r, b))

    def solve(p):
        r, b, _ = systems[p]
        return [solve_upper(r, b) for _ in range(300)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            results = dict(zip(systems, pool.map(solve, systems, timeout=120)))
    finally:
        sys.setswitchinterval(interval)
    wrong = {p: sum(not np.array_equal(x, systems[p][2]) for x in results[p]) for p in systems}
    assert wrong == {2: 0, 5: 0}


@pytest.mark.parametrize("order", R_FORMS)
@pytest.mark.parametrize("stack", [(), (2,), (7,)], ids=["single", "stack-2", "stack-7"])
def test_solve_upper_zero_diagonal_raises(order, stack, monkeypatch):
    # the zero sits in the last matrix of the stack
    r = np.broadcast_to(np.triu(np.ones((3, 3))), (*stack, 3, 3)).copy()
    r.reshape(-1, 3, 3)[-1, 1, 1] = 0.0
    r = _as_form(r, order)
    for binding in (linalg._dtrtrs, SCIPY_DTRTRS):
        monkeypatch.setattr(linalg, "_dtrtrs", binding)
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix: zero at diagonal 1$"):
            solve_upper(r, np.ones((*stack, 2, 3)))


@pytest.mark.parametrize(
    "r_shape, b_shape",
    [
        ((3, 3), (1, 4)),
        ((3, 4), (1, 3)),
        ((3,), (1, 3)),
        ((3, 3), (3,)),
        ((2, 3, 3), (3, 1, 3)),
        ((2, 3, 3), (1, 3)),
        ((3, 3), (2, 1, 3)),
    ],
)
def test_solve_upper_rejects_mismatched_shapes(r_shape, b_shape):
    # dtrtrs reads n x n entries of each R and n entries of each row of b, wherever they end
    with pytest.raises(ValueError, match="cannot solve"):
        solve_upper(np.ones(r_shape), np.ones(b_shape))


def test_closed_form_scores_makes_one_single_column_solve_per_row(monkeypatch):
    # R designs with m test rows: one dtrtrs per design for beta and one per design and row for
    # the cross leverages, each on one column, since a multi-column solve runs on OpenBLAS's threads
    live, lapack_calls = linalg._dtrtrs, []
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def counting_get_lapack_funcs(name, dtype):
        trtrs = get_lapack_funcs(name, dtype=dtype)

        def counted(a, b, **options):
            lapack_calls.append(b.shape)
            return trtrs(a, b, **options)

        return counted

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting_get_lapack_funcs)
    monkeypatch.setattr(linalg, "_dtrtrs", linalg._scipy_dtrtrs()[0])
    gen = np.random.default_rng(43)
    R, n, p, m = 5, 20, 3, 4
    X, y, X_new = gen.standard_normal((R, n, p)), gen.standard_normal((R, n)), gen.standard_normal((R, m, p))
    closed_form_scores(X, y, X_new)
    assert lapack_calls == [(p,)] * (R * (1 + m))
    # the live binding takes the whole stack in one call: one for beta, one for the cross leverages
    binding_calls = []

    def counted(a, x, trans):
        binding_calls.append((a.shape, x.shape, trans))
        return live(a, x, trans)

    monkeypatch.setattr(linalg, "_dtrtrs", counted)
    closed_form_scores(X, y, X_new)
    assert binding_calls == [((R, p, p), (R, 1, p), False), ((R, p, p), (R, m, p), True)]
    # a NaN query row in the last design stops the cross solve before any binding call
    X_new[-1, -1, 1] = np.nan
    fit = least_squares(X, y)
    binding_calls.clear()
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        fit.hat_cross_many(X_new)
    assert binding_calls == []
