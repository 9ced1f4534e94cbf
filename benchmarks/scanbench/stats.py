"""Order statistics the harness and ``--compare`` share."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

# A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


median = statistics.median


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One value has no spread: all three are that value.
    """
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile with >= 10 samples beyond it.

    ``None`` below 20 samples, where even the median's upper half has
    fewer than ten.  Capped at 99: collector pauses own the top 1 %.
    """
    if count < 2 * MIN_TAIL_SAMPLES:
        return None
    return min(99, math.floor(100.0 * (count - MIN_TAIL_SAMPLES) / count))


def percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile (the value at or above ``percent`` %)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_latency(values: Sequence[float], wanted: int) -> Tuple[Optional[int], float]:
    """``wanted`` percentile, lowered until ten samples lie beyond it.

    Returns (percentile actually used, value); (None, median) when the
    sample supports no tail percentile at all.
    """
    supported = tail_percentile(len(values))
    if supported is None:
        return None, median(values)
    used = min(wanted, supported)
    return used, percentile(values, used)
