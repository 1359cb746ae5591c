"""Order statistics for the benchmark's reported timings.

Timings are reported as a median plus a tail percentile.  A tail
percentile is only meaningful when enough samples lie beyond it, so
:func:`tail_percentile` names the highest standard percentile with at
least :data:`MIN_TAIL_SAMPLES` samples past it.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_TAIL_SAMPLES = 10

#: The percentiles a tail is chosen from, highest last.
STANDARD_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def percentile(values, pct: float) -> float:
    """The ``pct``-th percentile of ``values`` by linear interpolation
    between closest ranks (the ``inclusive`` method of
    :func:`statistics.quantiles`)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    pos = (len(data) - 1) * pct / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values) -> float:
    return percentile(values, 50.0)


def window_rates(events, length: float, width: float) -> list[float]:
    """Rates over consecutive windows of about ``width`` seconds that
    together cover ``[0, length)``: each window's sum of the weights of
    ``events`` -- ``(seconds, weight)`` pairs -- divided by its length."""
    count = max(1, round(length / width))
    width = length / count
    sums = [0.0] * count
    for when, weight in events:
        index = math.floor(when / width)
        if 0 <= index < count:
            sums[index] += weight
    return [total / width for total in sums]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly beyond the
    ``pct``-th percentile (rounded down: the ranks past it)."""
    return math.floor(count * (100.0 - pct) / 100.0 + 1e-9)


def tail_percentile(count: int) -> float | None:
    """The highest standard percentile with at least
    :data:`MIN_TAIL_SAMPLES` of ``count`` samples beyond it, or
    ``None`` when even the median lacks them."""
    best = None
    for pct in STANDARD_PERCENTILES:
        if samples_beyond(count, pct) >= MIN_TAIL_SAMPLES:
            best = pct
    return best
