"""Small order statistics shared by the runner, the child passes and compare."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: Percentiles a tail report may name, lowest first, each with the share of
#: the sample beyond it in thousandths (whole numbers keep the test exact).
TAIL_LADDER = ((75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1))

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def grouped_percentile(values: Sequence[int], p: float) -> float:
    """The ``p``-th percentile of whole-numbered data, ties spread out.

    Logical latencies are whole rounds, and where half the sample sits on
    one value the plain median jumps a whole round from one seed to the
    next.  This is the grouped-data percentile: value ``k`` stands for the
    bin ``[k - 0.5, k + 0.5)`` and the percentile is interpolated inside the
    bin its rank falls into, so it moves smoothly with the shares.
    """
    if not values or not 0 <= p <= 100:
        raise ValueError("percentile needs a sample and 0 <= p <= 100")
    counts: Dict[int, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    rank = len(values) * p / 100.0
    below = 0
    for value in sorted(counts):
        if below + counts[value] >= rank:
            break
        below += counts[value]
    return value - 0.5 + (rank - below) / counts[value]


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the lowest rung has fewer: the median is then the
    only order statistic the sample supports.
    """
    best = None
    for p, beyond_per_mille in TAIL_LADDER:
        if count * beyond_per_mille >= MIN_BEYOND * 1000:
            best = p
    return best


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample, as the driver takes them.

    The quartiles are ``statistics.quantiles(values, n=4)``; a sample of
    one has no spread, so its quartiles equal its value.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
