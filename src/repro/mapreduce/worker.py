"""Worker-process job functions of the multi-process parallel engine.

The job here is a top-level callable (so it is picklable under every
``multiprocessing`` start method) that receives one task tuple: the
:class:`~repro.mapreduce.shm.ColumnSegment` spec of the shared input plus a
row range, and returns only the per-partition result columns -- plain
``array`` objects that pickle compactly.  The shared input itself is never
shipped: workers attach the driver's segment and read it through zero-copy
views.

Bit-identity is the contract: :func:`cluster_links_job` runs the sequential
connected-components scan over its range's rows, so merging the range
results in range order reproduces the single-process clusters and their
order.

A job attaches the driver's segment for the length of its task and
releases it, views first, before it returns (see :mod:`repro.mapreduce.shm`):
a worker holds no mapping between tasks or at exit.
"""

from __future__ import annotations

from array import array
from typing import Tuple

from repro.core.unionfind import IntUnionFind
from repro.mapreduce.shm import AttachedSegment


# ----------------------------------------------------------------------
# clustering
# ----------------------------------------------------------------------
def cluster_links_job(args) -> Tuple[array, array]:
    """Union--find pass over the positive decisions of one row range.

    Runs the sequential connected-components scan (first-touch order
    tracking included) over the range's canonical-orientation rows and
    returns ``(order, roots)``: the locally touched ordinals in first-touch
    order, each aligned with its local union-find root.  Linking every
    member to its local root, shard by shard in range order, reproduces both
    the sequential partition (a union of equivalence relations) and the
    sequential first-touch order (contiguous ranges make the earliest
    touching shard the earliest touching row).
    """
    spec, num_ids, start, stop = args
    links = IntUnionFind(num_ids)
    touched = bytearray(num_ids)
    order = array("q")
    segment = AttachedSegment(spec)
    try:
        views = segment.views
        first = views["first"]
        second = views["second"]
        flags = views["is_match"]
        for row in range(start, stop):
            if not flags[row]:
                continue
            f = first[row]
            s = second[row]
            if not touched[f]:
                touched[f] = 1
                order.append(f)
            if not touched[s]:
                touched[s] = 1
                order.append(s)
            links.union(f, s)
    finally:
        segment.release()
    roots = array("q", (links.find(member) for member in order))
    return order, roots
