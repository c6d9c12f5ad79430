"""Statistics behind the benchmark's metrics: medians, percentiles and the
self time of trace spans. Pure functions, unit-tested by test_perfstats.py.
"""

import math
from collections import defaultdict


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between closest
    ranks, as numpy's default: 0 gives the minimum, 100 the maximum."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile outside 0..100")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(values, beyond=10):
    """(p, value) for the highest whole percentile p with at least `beyond`
    samples above it, or None when there are fewer than 2 * beyond samples
    (then only the median is meaningful)."""
    n = len(values)
    if n < 2 * beyond:
        return None
    p = math.floor(100.0 * (n - beyond) / n)
    return p, percentile(values, p)


def self_times(events):
    """Per span name: (total self time, count, list of inclusive durations),
    all in the trace's microseconds.

    `events` are Chrome trace "X" events whose args carry the span's "id"
    and the "parent" id open on the same thread when it began (0 for none).
    A span's self time is its duration minus the durations of its direct
    children; children never outlive their parent on one thread, so the
    subtraction needs no interval merging.
    """
    child_time = defaultdict(float)
    for e in events:
        parent = e["args"]["parent"]
        if parent:
            child_time[parent] += e["dur"]
    out = {}
    for e in events:
        total, count, durations = out.get(e["name"], (0.0, 0, []))
        own = e["dur"] - child_time.get(e["args"]["id"], 0.0)
        durations.append(e["dur"])
        out[e["name"]] = (total + own, count + 1, durations)
    return out
