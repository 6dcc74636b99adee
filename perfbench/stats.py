"""Order statistics for the benchmark's timings.

A tail percentile is only reported when at least ``TAIL_BEYOND`` samples lie
above it; below that count one slow sample decides the number.
"""

from __future__ import annotations

import itertools
import statistics

TAIL_BEYOND = 10
TAIL_CANDIDATES = (99, 95, 90)


def percentile(samples, q: int):
    """Nearest-rank ``q``-th percentile (integer ``0 < q <= 100``)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    return xs[rank(len(xs), q) - 1]


def rank(count: int, q: int) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count`` samples."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    return max(1, -(-q * count // 100))


def samples_beyond(count: int, q: int) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th rank."""
    return count - rank(count, q)


def tail_percentile(count: int):
    """The highest of ``TAIL_CANDIDATES`` that has ``TAIL_BEYOND`` samples
    above it, or ``None`` when the sample is too small for any of them."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(count, q) >= TAIL_BEYOND:
            return q
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def median_of_columns(rows) -> float:
    """Median over positions of each position's median across ``rows``
    (rows may be ragged: a pass the watchdog stopped is shorter).

    With rows as passes and positions as operations, this is the latency of
    the typical operation.  When a workload has a few operations of very
    different cost, the plain median of all samples falls between two of
    them and takes the slowest sample of one and the fastest of the other;
    per-operation medians keep one slow pass from moving it.
    """
    columns = itertools.zip_longest(*rows)
    return statistics.median(
        statistics.median(x for x in col if x is not None) for col in columns
    )
