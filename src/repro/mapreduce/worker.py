"""Worker-process job functions of the multi-process parallel engine.

Each function here is a top-level callable (so it is picklable under every
``multiprocessing`` start method) that receives one task tuple: the
:class:`~repro.mapreduce.shm.ColumnSegment` specs of the shared inputs plus
an entity-ordinal range, and returns only the per-partition result columns --
plain ``array`` objects that pickle compactly.  The shared inputs themselves
are never shipped: workers attach the driver's segments and read them through
zero-copy views.

Bit-identity is the contract.  Every kernel either *is* the sequential code
(the ranged pruning passes of :class:`EntityIndexEngine
<repro.metablocking.entity_index.EntityIndexEngine>` over a
:meth:`from_arrays <repro.metablocking.entity_index.EntityIndexEngine.from_arrays>`
replica) or replicates its exact expressions over the same exact integers,
so concatenating the partition results in range order reproduces the
single-process stream float for float.

Per-process caches keep repeated rounds cheap: attached segments are held in
a small LRU (released view-first, see :mod:`repro.mapreduce.shm`), and
index-engine replicas are memoised per segment name --
segment names are unique per driver allocation, so a name can never refer to
two different payloads.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Tuple

from repro.core.unionfind import IntUnionFind
from repro.mapreduce import faults
from repro.mapreduce.shm import AttachedSegment, SegmentSpec, attach
from repro.metablocking.entity_index import EntityIndexEngine

#: attached segments this worker keeps mapped (evicted view-first, oldest first)
_SEGMENT_CACHE_SIZE = 8

_segments: Dict[str, AttachedSegment] = {}
_engines: Dict[str, EntityIndexEngine] = {}

#: whether attachments must be unregistered from this process's resource
#: tracker -- True only in spawned workers, which run their own tracker
#: (see repro.mapreduce.shm); set by the pool initializer
_unregister_on_attach = False


def configure(unregister_on_attach: bool) -> None:
    """Pool initializer: set this worker process's tracker discipline.

    Also marks the process as a pool worker for the fault-injection harness
    (:mod:`repro.mapreduce.faults`): injected faults only ever fire in
    workers, never on the driver.
    """
    global _unregister_on_attach
    _unregister_on_attach = bool(unregister_on_attach)
    faults.mark_worker()


def release_attachments() -> None:
    """Release every cached segment attachment of this process, view-first.

    Workers never need to call this -- their caches die with the process.
    The *driver* does, after running a worker job inline on the degraded
    recovery path: the job populated this module's per-process caches in the
    driver's own interpreter, and the cached attachments pin shared-memory
    mappings that must be dropped before the owning engine unlinks its
    segments (or the interpreter exits).
    """
    _engines.clear()
    while _segments:
        _, segment = _segments.popitem()
        segment.release()


def _segment(spec: SegmentSpec) -> AttachedSegment:
    """The cached attachment of ``spec``'s segment (LRU over segment names)."""
    name = spec[0]
    segment = _segments.pop(name, None)
    if segment is None:
        segment = attach(spec, unregister=_unregister_on_attach)
    _segments[name] = segment  # re-insertion keeps the dict in LRU order
    while len(_segments) > _SEGMENT_CACHE_SIZE:
        evicted_name, evicted = next(iter(_segments.items()))
        del _segments[evicted_name]
        # derived caches hold copies or views into this mapping: drop them
        _engines.pop(evicted_name, None)
        evicted.release()
    return segment




# ----------------------------------------------------------------------
# block cleaning
# ----------------------------------------------------------------------
def propagate_pairs_job(args):
    """Candidate pair stream of one block range (comparison propagation).

    Walks the range's blocks in block-major order emitting, per comparison,
    the dedup code ``(min << 32) | max``, the canonically-ordered endpoint
    ordinals (rank comparison stands in for identifier-string comparison)
    and an orientation flag (0 unilateral, 1 bilateral with the canonical
    first on the proposing block's left side, 2 swapped).  Pairs already
    seen *within the range* are dropped -- only a pair's first local
    occurrence can be its global first occurrence, which the driver resolves
    in range order.  A bilateral self-pair aborts the range immediately and
    is reported as ``(block, left position, right position)`` so the driver
    can fail exactly like the sequential pass.
    """
    spec, start, stop = args
    views = _segment(spec).views
    blk_ptr = views["blk_ptr"]
    blk_split = views["blk_split"]
    ent_of = views["ent_of"]
    ranks = views["ranks"]
    codes = array("q")
    firsts = array("q")
    seconds = array("q")
    flags = bytearray()
    local_seen = set()
    seen_add = local_seen.add
    for block_index in range(start, stop):
        lo, hi = blk_ptr[block_index], blk_ptr[block_index + 1]
        split = blk_split[block_index]
        if split >= 0:
            left = ent_of[lo : lo + split]
            right = ent_of[lo + split : hi]
            left_set = set(left)
            for left_pos, a in enumerate(left):
                shifted = a << 32
                for right_pos, b in enumerate(right):
                    if a == b:  # self-pair: report, driver fails like the oracle
                        return codes, firsts, seconds, flags, (
                            block_index,
                            left_pos,
                            right_pos,
                        )
                    code = shifted | b if a < b else (b << 32) | a
                    if code in local_seen:
                        continue
                    seen_add(code)
                    codes.append(code)
                    if ranks[a] < ranks[b]:
                        firsts.append(a)
                        seconds.append(b)
                        flags.append(1 if a in left_set else 2)
                    else:
                        firsts.append(b)
                        seconds.append(a)
                        flags.append(1 if b in left_set else 2)
        else:
            members = ent_of[lo:hi]
            size = hi - lo
            for i in range(size):
                a = members[i]
                shifted = a << 32
                for j in range(i + 1, size):
                    b = members[j]
                    code = shifted | b if a < b else (b << 32) | a
                    if code in local_seen:
                        continue
                    seen_add(code)
                    codes.append(code)
                    if ranks[a] < ranks[b]:
                        firsts.append(a)
                        seconds.append(b)
                    else:
                        firsts.append(b)
                        seconds.append(a)
                    flags.append(0)
    return codes, firsts, seconds, flags, None


# ----------------------------------------------------------------------
# meta-blocking
# ----------------------------------------------------------------------
def _index_engine(
    mb_spec: SegmentSpec, factors_spec: Optional[SegmentSpec], scheme: str
) -> EntityIndexEngine:
    segment = _segment(mb_spec)
    engine = _engines.get(mb_spec[0])
    if engine is None:
        engine = _engines[mb_spec[0]] = EntityIndexEngine.from_arrays(segment.views)
    if factors_spec is not None and scheme not in engine._factor_cache:
        engine._factor_cache[scheme] = _segment(factors_spec).views["factors"]
    return engine


def pruning_pass_job(args):
    """One ranged pruning pass (``wep_stats`` ... ``cep``) of one node range.

    It *is* the sequential pass --
    ``EntityIndexEngine._<step>(scheme, start, stop, *params)`` -- over a
    worker-side replica of the index; see
    :meth:`EntityIndexEngine._retained
    <repro.metablocking.entity_index.EntityIndexEngine._retained>` for the
    protocol the driver runs around it.
    """
    mb_spec, factors_spec, step, scheme, start, stop, params = args
    engine = _index_engine(mb_spec, factors_spec, scheme)
    return getattr(engine, "_" + step)(scheme, start, stop, *params)


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
    views = _segment(spec).views
    first = views["first"]
    second = views["second"]
    flags = views["is_match"]
    links = IntUnionFind(num_ids)
    touched = bytearray(num_ids)
    order = array("q")
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
    roots = array("q", (links.find(member) for member in order))
    return order, roots
