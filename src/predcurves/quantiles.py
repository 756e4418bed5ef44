"""Order-statistic quantiles.

The quantile of a sample ``a_1, ..., a_n`` at level ``alpha`` is defined as
the k-th smallest element with ``k = ceil(alpha * n)``, clamped to
``[1, n]``; ``level_rank`` first snaps ``alpha * n`` to an integer it
equals up to rounding. No interpolation: every quantile is an element of
the sample, so interval endpoints produced downstream are always attained
scores, and the level sets of the empirical step function built with a
``>=`` comparison coincide with quantile intervals. ``order_stat_index`` gives
``k``; ``conformal.interval_from_scores`` is the one place that selects
the element. ``check_two_sided_alpha`` is the one domain check of a
two-sided level, shared by that selection and the command line.
"""

from __future__ import annotations

import math
import warnings


def level_rank(n: int, alpha: float) -> float:
    """``alpha * n``, snapped to the nearest integer when within a relative 1e-12 of it.

    A level meant as ``k / n`` often lands a rounding error above ``k``
    (``0.07 * 100`` is ``7.000000000000001``); snapping keeps its ceiling at ``k``.
    """
    rank = alpha * n
    nearest = round(rank)
    return float(nearest) if abs(rank - nearest) <= 1e-12 * rank else rank


def check_two_sided_alpha(alpha: float) -> None:
    """Raise ``ValueError`` unless the levels ``alpha / 2`` and ``1 - alpha / 2`` both lie in (0, 1)."""
    # at alpha <= 2**-53 the upper level 1 - alpha / 2 rounds to 1
    if not (0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):
        raise ValueError(f"alpha must be in (2**-53, 1), got {alpha}")


def order_stat_index(n: int, alpha: float) -> int:
    """1-based order-statistic index ``ceil(level_rank(n, alpha))`` clamped to [1, n].

    Clamping at the bottom occurs when the rank is below 1, i.e. the requested
    level sits below the first order statistic; the minimum is returned and
    a warning is emitted (once per distinct level/size pair).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1:
        raise ValueError("empty sample")
    rank = level_rank(n, alpha)
    if rank < 1.0:
        warnings.warn(
            f"quantile level {alpha:g} with n={n} clamped to the minimum order statistic",
            RuntimeWarning,
            stacklevel=2,
        )
    return min(max(math.ceil(rank), 1), n)
