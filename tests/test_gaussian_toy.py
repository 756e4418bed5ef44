import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from predcurves.gaussian_toy import (
    GaussianToySample,
    confidence_cdf,
    confidence_curve,
    predictive_cdf_toy,
    predictive_curve_toy,
)
from predcurves.rng import RngStream
from predcurves.verify import toy_gap


def _sample(ybar=1.35, n=5):
    return GaussianToySample(ybar=ybar, n=n)


class TestConfidenceCdf:
    def test_half_at_mean(self):
        assert confidence_cdf(_sample(), 1.35) == pytest.approx(0.5)

    def test_limits(self):
        assert confidence_cdf(_sample(), 100.0) == pytest.approx(1.0)
        assert confidence_cdf(_sample(), -100.0) == pytest.approx(0.0)

    def test_upper_quantile(self):
        s = _sample()
        theta = s.ybar + ndtri(0.95) / np.sqrt(s.n)
        assert confidence_cdf(s, theta) == pytest.approx(0.95, abs=1e-12)

    def test_uniform_under_null(self):
        # H evaluated at the true mean is uniform across samples
        gen = RngStream(200, 0).generator()
        theta = 0.7
        values = []
        for _ in range(10_000):
            y = theta + gen.standard_normal(5)
            values.append(confidence_cdf(GaussianToySample.from_data(y), theta))
        assert stats.kstest(values, "uniform").statistic < 0.02


class TestConfidenceCurve:
    def test_peak_at_mean(self):
        assert confidence_curve(_sample(), 1.35) == pytest.approx(1.0)

    def test_symmetry(self):
        s = _sample()
        for delta in (0.1, 0.5, 2.0):
            assert confidence_curve(s, s.ybar + delta) == pytest.approx(
                confidence_curve(s, s.ybar - delta), abs=1e-12
            )

    def test_level_set_matches_gaussian_quantiles(self):
        s = _sample()
        half = ndtri(0.975) / np.sqrt(s.n)
        for theta in (s.ybar - half, s.ybar + half):
            assert confidence_curve(s, theta) == pytest.approx(0.05, abs=1e-10)
        assert confidence_curve(s, s.ybar + 0.999 * half) > 0.05
        assert confidence_curve(s, s.ybar + 1.001 * half) < 0.05


class TestPredictiveToy:
    def test_half_at_mean(self):
        assert predictive_cdf_toy(_sample(), 1.35) == pytest.approx(0.5)

    def test_large_n_limit(self):
        s = _sample(ybar=0.0, n=10**9)
        from scipy.special import ndtr

        assert predictive_cdf_toy(s, 1.0) == pytest.approx(float(ndtr(1.0)), abs=1e-6)

    def test_pivotal_coverage(self):
        gen = RngStream(200, 1).generator()
        inside = 0
        reps = 10_000
        for _ in range(reps):
            y = gen.standard_normal(5)
            y_new = gen.standard_normal()
            q = predictive_cdf_toy(GaussianToySample.from_data(y), y_new)
            inside += int(0.025 <= q <= 0.975)
        assert inside / reps == pytest.approx(0.95, abs=0.01)

    def test_curve_peak_and_symmetry(self):
        s = _sample()
        assert predictive_curve_toy(s, s.ybar) == pytest.approx(1.0)
        for delta in (0.2, 1.0):
            assert predictive_curve_toy(s, s.ybar + delta) == pytest.approx(
                predictive_curve_toy(s, s.ybar - delta), abs=1e-12
            )

    def test_level_set_matches_gaussian_quantiles(self):
        s = _sample()
        half = ndtri(0.975) * np.sqrt(1.0 + 1.0 / s.n)
        for y in (s.ybar - half, s.ybar + half):
            assert predictive_curve_toy(s, y) == pytest.approx(0.05, abs=1e-10)


class TestArrayCalls:
    def test_array_call_equals_scalar_calls(self):
        gen = RngStream(202, 0).generator()
        s = GaussianToySample.from_data(1.35 + gen.standard_normal(5))
        xs = np.concatenate([s.ybar + 3.0 * gen.standard_normal(50), [s.ybar, -np.inf, np.inf]])
        for fn in (confidence_cdf, confidence_curve, predictive_cdf_toy, predictive_curve_toy):
            values = fn(s, xs)
            assert values.shape == xs.shape
            np.testing.assert_array_equal(values, [fn(s, x) for x in xs])


class TestConformalConsistency:
    def test_conformal_curve_approaches_analytic(self):
        y = 0.5 + RngStream(201, 0).generator().standard_normal(2000)
        assert toy_gap(y, 300) < 0.05
