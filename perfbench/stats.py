"""Order statistics shared by the run report and the compare mode."""

from __future__ import annotations

import statistics

#: Percentiles a run may report, highest last.
PERCENTILES = (50, 75, 90, 95, 99)
#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> "tuple[float, float]":
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def tail_percentile(values) -> "tuple[int, float] | None":
    """The highest percentile with at least ``TAIL_SAMPLES`` samples beyond it.

    ``None`` when the run has too few samples for any percentile above
    the median to qualify.
    """
    values = sorted(values)
    best = None
    for pct in PERCENTILES[1:]:
        beyond = len(values) * (100 - pct) / 100
        if beyond >= TAIL_SAMPLES:
            index = min(len(values) - 1, int(len(values) * pct / 100))
            best = (pct, float(values[index]))
    return best
