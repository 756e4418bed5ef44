"""Order-statistic quantiles.

The quantile of a sample ``a_1, ..., a_n`` at level ``alpha`` is defined as
the k-th smallest element with ``k = ceil(alpha * n)``, clamped to
``[1, n]``. No interpolation: every quantile is an element of the sample,
so interval endpoints produced downstream are always attained scores, and
the level sets of the empirical step function built with a ``>=``
comparison coincide with quantile intervals. ``order_stat_index`` gives
``k``; ``conformal.interval_from_scores`` is the one place that selects
the element.
"""

from __future__ import annotations

import math
import warnings


def order_stat_index(n: int, alpha: float) -> int:
    """1-based order-statistic index ``ceil(alpha * n)`` clamped to [1, n].

    Clamping at the bottom occurs when ``alpha * n < 1``, i.e. the requested
    level sits below the first order statistic; the minimum is returned and
    a warning is emitted (once per distinct level/size pair).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1:
        raise ValueError("empty sample")
    if alpha * n < 1.0:
        warnings.warn(
            f"quantile level {alpha:g} with n={n} clamped to the minimum order statistic",
            RuntimeWarning,
            stacklevel=2,
        )
    k = math.ceil(alpha * n)
    return min(max(k, 1), n)

