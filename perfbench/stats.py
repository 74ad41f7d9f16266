"""Small order statistics shared by the benchmark and its compare report."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def supported(count: int, q: float, beyond: int = 10) -> bool:
    """Whether ``count`` samples leave at least ``beyond`` above the ``q``-quantile."""
    return count * (1.0 - q) >= beyond


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
