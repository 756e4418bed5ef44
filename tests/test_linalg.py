import numpy as np
import pytest

from predcurves.linalg import least_squares


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
