"""Closed-form confidence and predictive curves for a Gaussian mean.

For ``y_1, ..., y_n`` iid ``N(theta, 1)`` with known unit variance, both
estimation and prediction admit exact sample-dependent distributions:

* confidence distribution  ``H(theta) = Phi(sqrt(n) (theta - ybar))``
* predictive distribution  ``Q(y) = Phi((y - ybar) / sqrt(1 + 1/n))``

and the corresponding curves ``2 min(H, 1 - H)`` and ``2 min(Q, 1 - Q)``
stack the two-sided intervals of every level, peaking at the sample mean
(the median-unbiased point estimate/prediction). These closed forms also
serve as ground truth for the conformal machinery: with an intercept-only
learner the conformal predictive curve converges to the analytic one.

``H`` and ``Q`` read as p-value functions of the one-sided tests about
``theta`` (respectively the unseen response); the curves are the
two-sided versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import two_sided_curve


@dataclass(frozen=True)
class GaussianToySample:
    """Sufficient statistics of the sample: its mean and size (variance fixed at 1)."""

    ybar: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not np.isfinite(self.ybar):
            raise ValueError(f"the sample mean must be finite, got {self.ybar}")

    @classmethod
    def from_data(cls, y: np.ndarray) -> "GaussianToySample":
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):  # an overflowed mean is rejected by __post_init__
            return cls(ybar=float(y.mean()), n=y.size)


def normal_cdf(z):
    """The standard normal CDF ``Phi(z)``, scipy's ``ndtr``; scalar or array ``z``."""
    from scipy.special import ndtr  # here, so that commands drawing no normal CDF load no scipy

    return ndtr(z)


def confidence_cdf(sample: GaussianToySample, theta):
    """``Phi(sqrt(n) (theta - ybar))``; scalar or array ``theta``."""
    return normal_cdf(np.sqrt(sample.n) * (theta - sample.ybar))


def confidence_curve(sample: GaussianToySample, theta):
    """``2 min(H, 1 - H)``; equals 1 at ``theta = ybar``."""
    return two_sided_curve(confidence_cdf(sample, theta))


def predictive_cdf_toy(sample: GaussianToySample, y):
    """``Phi((y - ybar) / sqrt(1 + 1/n))``; scalar or array ``y``."""
    return normal_cdf((y - sample.ybar) / np.sqrt(1.0 + 1.0 / sample.n))


def predictive_curve_toy(sample: GaussianToySample, y):
    """``2 min(Q, 1 - Q)``; peaks at the sample mean."""
    return two_sided_curve(predictive_cdf_toy(sample, y))
