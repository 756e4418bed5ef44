import numpy as np

from predcurves import rng
from predcurves.rng import LazyGenerator, RngStream, labeled_generator
from predcurves.scenarios import cholesky_t, sample_mvn


class TestRngStream:
    def test_bitwise_determinism(self):
        a = RngStream(123, 7).generator().integers(0, 2**63, 1000)
        b = RngStream(123, 7).generator().integers(0, 2**63, 1000)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(8)
        b = RngStream(123, 1).generator().standard_normal(8)
        assert not np.allclose(a, b)

    def test_value_semantics(self):
        stream = RngStream(9, 2)
        x = sample_mvn(np.zeros(2), cholesky_t(np.eye(2)), stream.generator(), size=1)
        y = sample_mvn(np.zeros(2), cholesky_t(np.eye(2)), stream.generator(), size=1)
        np.testing.assert_array_equal(x, y)

    def test_labeled_generator_stable(self):
        a = labeled_generator(5, 3, "mu2").standard_normal(4)
        b = labeled_generator(5, 3, "mu2").standard_normal(4)
        c = labeled_generator(5, 3, "mu3").standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)

    def test_lazy_generator_is_made_once_on_first_use(self, monkeypatch):
        made = []
        monkeypatch.setattr(rng, "labeled_generator", lambda *key: made.append(key) or labeled_generator(*key))
        lazy = LazyGenerator(5, 3, "mu2")
        assert made == []
        # draws continue one stream: a generator rebuilt per access would replay it
        draws = np.concatenate([lazy.standard_normal(2), lazy.standard_normal(2)])
        assert made == [(5, 3, "mu2")]
        np.testing.assert_array_equal(draws, labeled_generator(5, 3, "mu2").standard_normal(4))
