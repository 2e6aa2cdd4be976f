"""Order statistics and the closed loop that collects the samples."""

import statistics
import time


def median(values):
    return statistics.median(values)


def mean(values):
    return statistics.fmean(values)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat_time(values):
    """Time of one operation from its repeats on the same input: their 90th
    percentile.

    On a shared host the repeats run at two speeds: slowed by neighbours,
    most of the time and steadily, or faster when the neighbours idle.  The
    share of fast time changes from run to run; the 90th percentile reads
    the slowed speed whenever a tenth of the repeats see it, while rare
    hiccups stay above it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    operations beyond it.  Below 20 operations that percentile would lie
    under the median, so the maximum is returned, marked as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def closed_loop(unit, seconds, min_units):
    """Run ``unit`` back to back; start another only while it is expected
    to end within ``seconds``, but run at least ``min_units``."""
    results = []
    walls = []
    t0 = time.perf_counter()
    while True:
        if len(walls) >= min_units and \
                time.perf_counter() - t0 + median(walls) > seconds:
            return results
        res = unit()
        walls.append(res[0])
        results.append(res)
