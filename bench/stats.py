"""Latency summaries and run-to-run spread."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples):
    """(value, percentile, count) of the tail latency.

    The tail is the highest percentile that still has TAIL_BEYOND samples
    beyond it: the (n - 10)-th smallest of n samples, at percentile
    100 (n - 10) / n.  Below 2 * TAIL_BEYOND samples that percentile would
    not be above the median, so the tail is then the maximum, recorded at
    percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
