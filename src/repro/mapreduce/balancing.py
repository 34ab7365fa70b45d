"""Balanced contiguous partitioning of per-item costs.

The multi-process engine of :mod:`repro.mapreduce.parallel` shards work by
*ordinal ranges*, so each worker streams a contiguous slice of the shared
columns and results concatenate back in ordinal order.  Block sizes in token
blocking are heavily skewed, so equal-length ranges would leave one worker
with most of the work; :func:`contiguous_partitions` cuts the ranges by cost
instead.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def contiguous_partitions(
    costs: Sequence[float], num_workers: int
) -> List[Tuple[int, int]]:
    """Split ``range(len(costs))`` into ``num_workers`` contiguous balanced ranges.

    Walk a prefix sum of the costs and cut whenever the running partition
    reaches the ideal per-worker share of the remaining work.

    Always returns exactly ``num_workers`` ``(start, stop)`` ranges covering
    the input in order; trailing ranges may be empty when there are more
    workers than items.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    total = len(costs)
    ranges: List[Tuple[int, int]] = []
    remaining = float(sum(costs))
    start = 0
    for worker in range(num_workers):
        workers_left = num_workers - worker
        if workers_left == 1:
            ranges.append((start, total))
            break
        target = remaining / workers_left
        stop = start
        accumulated = 0.0
        # leave at least one item per remaining worker while items last
        while stop < total - (workers_left - 1) and (
            accumulated < target or stop == start
        ):
            accumulated += costs[stop]
            stop += 1
        ranges.append((start, stop))
        remaining -= accumulated
        start = stop
    return ranges
