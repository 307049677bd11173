"""Order statistics behind the benchmark's metrics.

Percentiles are nearest-rank: the reported value is one that was
actually measured, and the number of samples beyond it is exact, so a
report can state both ("p90 of 134 jobs, 13 beyond").
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

#: A percentile is reported as a tail statistic only when at least this
#: many samples lie beyond it.
MIN_BEYOND = 10


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n`` samples.

    Integer arithmetic, so ``rank(100, 90)`` is exactly 90 (the float
    product ``0.9 * 100`` is not).
    """
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100]: {pct}")
    return max(1, (pct * n + 99) // 100)


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank ``pct``-th percentile: the smallest sample with at
    least ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def beyond(n: int, pct: int) -> int:
    """Samples strictly beyond the nearest-rank ``pct``-th percentile."""
    return n - rank(n, pct)


def highest_reportable(n: int, pcts: Iterable[int] = (50, 90, 95, 99),
                       min_beyond: int = MIN_BEYOND) -> Optional[int]:
    """Highest of ``pcts`` that leaves at least ``min_beyond`` of ``n``
    samples beyond it, or ``None`` when even the lowest does not."""
    ok = [p for p in pcts if beyond(n, p) >= min_beyond]
    return max(ok) if ok else None


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))

