import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from predcurves.conformal import interval_from_scores
from predcurves.quantiles import order_stat_index

# At alpha = 0.9 the interval ends sit at the 0.45 and 0.55 levels.
MIDDLE = 0.9


def test_middle_of_three():
    assert order_stat_index(3, 0.5) == 2
    assert interval_from_scores([3.0, 1.0, 2.0], MIDDLE) == (2.0, 2.0, False)


@pytest.mark.parametrize("alpha", [0.01, 0.3, 0.5, 0.9, 0.999])
def test_single_element(alpha):
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert order_stat_index(1, alpha) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert interval_from_scores([5.0], alpha) == (5.0, 5.0, True)


def test_hundred_elements():
    assert order_stat_index(100, 0.975) == 98  # k = ceil(97.5)
    assert interval_from_scores(np.arange(1.0, 101.0), 0.05) == (3.0, 98.0, False)


def test_result_is_sample_element():
    gen = np.random.default_rng(0)
    scores = gen.standard_normal((37, 4))
    for alpha in (0.06, 0.25, 0.5, 0.93):
        lower, upper, _ = interval_from_scores(scores, alpha)
        for j in range(scores.shape[1]):
            assert lower[j] in scores[:, j] and upper[j] in scores[:, j]


def test_tie_determinism():
    values = np.array([2.0, 1.0, 2.0, 2.0, 1.0])
    # levels 0.2 and 0.8 pick the 1st and 4th order statistics
    assert interval_from_scores(values, 0.4) == (1.0, 2.0, False)
    assert interval_from_scores(values[::-1], 0.4) == (1.0, 2.0, False)
    # levels 0.45 and 0.55 both pick the 3rd, the first of the tied 2.0s
    assert interval_from_scores(values, MIDDLE) == (2.0, 2.0, False)
    assert interval_from_scores(values[::-1], MIDDLE) == (2.0, 2.0, False)


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty sample"):
        order_stat_index(0, 0.5)
    with pytest.raises(ValueError, match="empty sample"):
        interval_from_scores(np.empty(0), 0.5)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_alpha_domain(alpha):
    with pytest.raises(ValueError, match="alpha"):
        order_stat_index(2, alpha)
    with pytest.raises(ValueError, match="alpha"):
        interval_from_scores([1.0, 2.0], alpha)


def test_clamping_at_bottom():
    # alpha * n < 1 requests a level below the first order statistic
    with pytest.warns(RuntimeWarning, match="clamped to the minimum order statistic"):
        assert order_stat_index(10, 0.001) == 1
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert interval_from_scores(np.arange(10.0), 0.002) == (0.0, 9.0, True)


def test_level_k_over_n_picks_the_kth():
    # k / n * n often lands a rounding error above k: 0.07 * 100 is 7.000000000000001
    for n in range(2, 301):
        for k in range(1, n):
            assert order_stat_index(n, k / n) == k


def test_level_one_over_n_is_not_clamped():
    # 49 * (1 / 49) is 0.9999999999999999, yet the level is the first order statistic
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert order_stat_index(49, 1 / 49) == 1
        assert interval_from_scores(np.arange(49.0), 2 / 49) == (0.0, 47.0, False)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
    st.floats(0.001, 0.999),
    st.floats(0.001, 0.999),
)
def test_monotone_in_alpha(values, a1, a2):
    lo, hi = sorted((a1, a2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert order_stat_index(len(values), lo) <= order_stat_index(len(values), hi)
        # a smaller alpha moves both ends outward: its interval contains the other
        wide_lower, wide_upper, _ = interval_from_scores(values, lo)
        lower, upper, _ = interval_from_scores(values, hi)
    assert wide_lower <= lower <= upper <= wide_upper
