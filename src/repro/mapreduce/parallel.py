"""The multi-process parallel engine over shared pipeline columns.

:class:`ParallelEngine` is the driver side of the parallel execution path:
it shards the flat columns of an
:class:`~repro.metablocking.entity_index.EntityIndexEngine`, a
:class:`~repro.blocking.columns.BlockColumns` or a comparison table by
contiguous ranges (:func:`~repro.mapreduce.balancing.contiguous_partitions`
balances the ranges by per-item cost), exposes the columns to a
``multiprocessing`` pool through :class:`~repro.mapreduce.shm.ColumnSegment`
shared memory, and concatenates the per-partition result columns back in
range order.  The worker-side kernels live in :mod:`repro.mapreduce.worker`.

The engine parallelises exactly the stages whose sequential engines it can
reproduce bit for bit -- comparison propagation, the meta-blocking index
engine's ranged pruning passes (WEP, CEP and CNP under every weighting
scheme) and connected-components clustering -- and
the callers fall back to their single-process paths for anything else, so
plugging an engine in never changes a result.  Interning, the blocking build
with purging and filtering, WNP's one pass, the weight sort and matching are
not pooled stages: each is a whole-column kernel in the driver that outruns
the cost of shipping its columns.

Lifecycle: the engine owns every shared-memory segment it creates and every
pool process it forks; :meth:`close` (or use as a context manager) tears both
down deterministically -- segments are unlinked driver-side, and workers only
ever attach (see :mod:`repro.mapreduce.shm` for the tracker discipline that
keeps ``resource_tracker`` silent).  Only retained-edge columns and small
statistics come back from the meta-blocking passes; pruned edges never leave
the worker that expanded them.

Dispatch is one ordered ``executor.map`` over a
:class:`concurrent.futures.ProcessPoolExecutor`: a job's own exception
propagates unchanged, and a worker that dies aborts the run with
:class:`~concurrent.futures.process.BrokenProcessPool` -- nothing is retried,
and :meth:`close` still unlinks every segment.  Segments carry a
janitor-parseable run prefix and engine construction sweeps orphans left by
crashed previous runs (:func:`repro.mapreduce.shm.sweep`).
"""

from __future__ import annotations

import multiprocessing
from array import array
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.unionfind import IntUnionFind
from repro.datamodel.pairs import canonical_pair, identifier_ranks
from repro.mapreduce import shm, worker
from repro.mapreduce.balancing import contiguous_partitions
from repro.mapreduce.shm import ColumnSegment, SegmentSpec
from repro.metablocking.entity_index import DRIVER_PRUNING_SCHEMES, pruning_key

import numpy as _np


def _extend_int64(destination: array, column) -> None:
    """Append ``column`` (array/ndarray/sequence of ints) to an ``array('q')``."""
    if isinstance(column, _np.ndarray):
        destination.frombytes(
            _np.ascontiguousarray(column, dtype=_np.int64).tobytes()
        )
    else:
        destination.extend(column)


def _build_pool(num_workers: int, start_method: Optional[str]) -> ProcessPoolExecutor:
    """An executor of ``num_workers`` processes (``fork`` when offered)."""
    method = start_method
    if method is None and "fork" in multiprocessing.get_all_start_methods():
        method = "fork"
    context = (
        multiprocessing.get_context(method)
        if method is not None
        else multiprocessing.get_context()
    )
    # only spawned workers run their own resource tracker; forked
    # (and forkserver) workers share the driver's -- see shm.py.
    # The driver's tracker must exist BEFORE the fork: otherwise a
    # forked worker's first attach starts a private tracker that,
    # when the worker exits, unlinks every segment it ever saw out
    # from under the driver and its remaining workers.
    if context.get_start_method() != "spawn":
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    return ProcessPoolExecutor(
        max_workers=num_workers,
        mp_context=context,
        initializer=worker.configure,
        initargs=(context.get_start_method() == "spawn",),
    )


class ParallelEngine:
    """Multi-process executor over shared-memory pipeline columns.

    Parameters
    ----------
    num_workers:
        Number of worker processes in the pool.  ``1`` still runs through a
        one-process pool (so single-worker timings measure the real parallel
        path, IPC included).
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` when the
        platform offers it (workers then inherit the interpreter state) and
        the platform default otherwise.

    Notes
    -----
    The engine is handed to :class:`~repro.blocking.engine.BlockingEngine`,
    :class:`~repro.metablocking.pipeline.MetaBlocking` and
    :class:`~repro.matching.cluster_engine.ClusteringEngine` via their
    ``parallel`` parameters; they call back into the public stage methods
    below.
    Always :meth:`close` the engine (or use ``with``): that shuts the
    executor down and unlinks every shared-memory segment.
    """

    def __init__(
        self,
        num_workers: int = 4,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._start_method = start_method
        self._executor: Optional[ProcessPoolExecutor] = None
        self._segments: List[ColumnSegment] = []
        self._segment_prefix = shm.new_run_prefix()
        self._segment_seq = 0
        # caches hold strong references to their keys' objects so an id()
        # can never be recycled while its entry is alive
        self._index_entries: Dict[int, Tuple[object, dict]] = {}
        self._closed = False
        # a crashed previous run cannot clean up after itself: its successor
        # does, before allocating segments of its own
        shm.sweep()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def fault_stats(self) -> Dict[str, Dict[str, int]]:
        """Always ``{}``: nothing is retried any more.

        Kept only because ``benchmarks/perf`` reads it; it goes when that
        reader does.
        """
        return {}

    def _run(self, job, tasks: Sequence[tuple]) -> list:
        """``[job(task) for task in tasks]`` on the executor, in task order."""
        if self._closed:
            raise RuntimeError("ParallelEngine is closed")
        if self._executor is None:
            self._executor = _build_pool(self.num_workers, self._start_method)
        return list(self._executor.map(job, tasks))

    def _segment(self, columns) -> ColumnSegment:
        if self._closed:
            raise RuntimeError("ParallelEngine is closed")
        segment = ColumnSegment(columns, name=f"{self._segment_prefix}-{self._segment_seq}")
        self._segment_seq += 1
        self._segments.append(segment)
        return segment

    def close(self) -> None:
        """Shut the executor down and unlink every shared-memory segment.

        Idempotent and exception-safe: every segment is destroyed even if
        the shutdown or destroying one of them raises.
        """
        if self._closed:
            return
        self._closed = True
        executor, self._executor = self._executor, None
        try:
            if executor is not None:
                executor.shutdown(wait=True)
        finally:
            segments, self._segments = self._segments, []
            errors = []
            for segment in segments:
                try:
                    segment.destroy()
                except Exception as error:  # pragma: no cover - defensive
                    errors.append(error)
            self._index_entries.clear()
            if errors:  # pragma: no cover - defensive
                raise errors[0]

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - safety net only
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # context interning
    # ------------------------------------------------------------------
    def intern_context(self, context) -> bool:
        """Always ``False``: the context interns itself serially.

        Interning is not a pooled stage (shipping the raw strings to workers
        cost more than the whole serial pass).  The method survives only
        because ``benchmarks/perf/tracing.py`` calls it and reads ``False``
        as "force the serial pass"; it goes when that call does.
        """
        return False

    # ------------------------------------------------------------------
    # block cleaning
    # ------------------------------------------------------------------
    def propagate_pairs(self, columns) -> list:
        """Comparison propagation of ``columns``, fanned out over block ranges.

        The driver ships the CSR layout of the
        :class:`~repro.blocking.columns.BlockColumns` plus identifier ranks,
        and workers stream their range's comparisons as dedup codes with
        canonical endpoints and a bilateral orientation flag, deduplicated
        locally.  The driver then resolves global first occurrences through
        one seen-set walked in range order -- reproducing the sequential
        pass's emission sequence, key strings and left/right orientation --
        and re-raises the oracle's self-pair error at the exact comparison
        the sequential pass would.  Returns the pair blocks in emission
        order.
        """
        from repro.blocking.base import Block

        ids = columns.ids
        blk_ptr = columns.blk_ptr
        rank_column = array("q")
        _extend_int64(rank_column, identifier_ranks(ids))
        segment = self._segment(
            {
                "blk_ptr": ("q", blk_ptr),
                "blk_split": ("q", columns.split),
                "ent_of": ("q", columns.members),
                "ranks": ("q", rank_column),
            }
        )
        # one unit per block plus its comparisons
        costs = (1 + columns.cardinalities()).tolist()
        tasks = [
            (segment.spec, start, stop)
            for start, stop in contiguous_partitions(costs, self.num_workers)
        ]
        seen = set()
        seen_add = seen.add
        out = []
        append = out.append
        pair = Block.pair
        bilateral_pair = Block.bilateral_pair
        for codes, firsts, seconds, flags, error in self._run(worker.propagate_pairs_job, tasks):
            for code, f, s, orientation in zip(codes, firsts, seconds, flags):
                if code in seen:
                    continue
                seen_add(code)
                first = ids[f]
                second = ids[s]
                if orientation == 0:
                    append(pair(f"pair:{first}|{second}", first, second))
                elif orientation == 1:
                    append(bilateral_pair(f"pair:{first}|{second}", first, second))
                else:
                    append(bilateral_pair(f"pair:{first}|{second}", second, first))
            if error is not None:
                block_index, left_pos, right_pos = error
                start = blk_ptr[block_index]
                canonical_pair(
                    ids[columns.members[start + left_pos]],
                    ids[columns.members[start + columns.split[block_index] + right_pos]],
                )
        return out

    # ------------------------------------------------------------------
    # meta-blocking
    # ------------------------------------------------------------------
    def retained_edges(self, index_engine, scheme: str, pruning: str, budget=None, k=None):
        """Run ``pruning`` under ``scheme`` with pooled ranged passes.

        :meth:`EntityIndexEngine._retained
        <repro.metablocking.entity_index.EntityIndexEngine._retained>` with
        its ranged passes (WEP's threshold statistics and emission, CEP's and
        CNP's per-range selection) fanned out to the workers over contiguous
        node ranges, so only *retained* edge columns (plus O(1) WEP sums,
        O(k * nodes) endorsements and O(budget) candidate buffers) ever cross
        the process boundary and the driver merge is a concatenation in
        range order.  The protocol, its merges and the run statistics it
        installs on ``index_engine`` are the sequential engine's own code,
        and its result does not depend on how the node range is cut.  The
        ECBS/EJS factor columns are computed on the driver (the EJS degrees
        in one pass) and shared with the workers.
        Returns the retained ``(first, second, weight)`` columns of
        :meth:`~repro.metablocking.entity_index.EntityIndexEngine.retained_columns`,
        or ``None`` -- the caller then runs the sequential path -- for an
        empty index and for WNP and ReciprocalWNP
        (:data:`~repro.metablocking.entity_index.DRIVER_PRUNING_SCHEMES`),
        whose one pass walks all node batches in order and runs on the driver.
        """
        if index_engine.num_entities == 0 or pruning_key(pruning) in DRIVER_PRUNING_SCHEMES:
            return None
        entry = self._index_entry(index_engine)

        def fan_out(step: str, scheme: str, *params) -> list:
            factors_spec = self._factors_spec(index_engine, entry, scheme)
            tasks = [
                (entry["spec"], factors_spec, step, scheme, start, stop, params)
                for start, stop in entry["parts"]
            ]
            return self._run(worker.pruning_pass_job, tasks)

        return index_engine._retained(scheme, pruning, budget, k, fan_out)

    def _index_entry(self, index_engine) -> dict:
        key = id(index_engine)
        cached = self._index_entries.get(key)
        if cached is not None and cached[0] is index_engine:
            return cached[1]
        rank_column = array("q")
        _extend_int64(rank_column, index_engine._ranks())
        segment = self._segment(
            {
                "blk_ptr": ("q", index_engine._blk_ptr),
                "blk_ents": ("q", index_engine._blk_ents),
                "blk_split": ("q", index_engine._blk_split),
                "recip": ("d", index_engine._recip),
                "ent_ptr": ("q", index_engine._ent_ptr),
                "ent_blocks": ("q", index_engine._ent_blocks),
                "ent_side": ("b", index_engine._ent_side),
                "ranks": ("q", rank_column),
            }
        )
        ent_ptr = index_engine._ent_ptr
        costs = [
            ent_ptr[node + 1] - ent_ptr[node] + 1
            for node in range(index_engine.num_entities)
        ]
        entry = {
            "spec": segment.spec,
            "parts": contiguous_partitions(costs, self.num_workers),
            "factors": {},
        }
        self._index_entries[key] = (index_engine, entry)
        return entry

    def _factors_spec(self, index_engine, entry: dict, scheme: str) -> Optional[SegmentSpec]:
        """The shared global-factor column of ECBS/EJS (``None`` for local schemes)."""
        if scheme not in ("ECBS", "EJS"):
            return None
        cached = entry["factors"].get(scheme)
        if cached is not None:
            return cached
        factors = array("d", index_engine._factors(scheme))
        segment = self._segment({"factors": ("d", factors)})
        entry["factors"][scheme] = segment.spec
        return segment.spec

    # ------------------------------------------------------------------
    # clustering
    # ------------------------------------------------------------------
    def cluster_links(self, first, second, is_match, num_ids: int):
        """Connected components of the positive rows, via per-shard union--find.

        ``first``/``second`` must already be in canonical orientation
        (:func:`~repro.matching.clustering.canonical_rows`).  Workers scan
        contiguous row ranges -- each running the sequential union--find pass locally
        -- and the driver links every locally touched member to its local
        root, shard by shard in range order.  The merged partition equals
        the sequential one (a union of equivalence relations over the same
        edges) and the deduplicated shard orders reproduce the sequential
        first-touch order, so the grouped clusters come out in the identical
        list order.  Returns ``(links, order)``, or ``None`` when there is
        nothing to fan out.
        """
        n = len(first)
        if n == 0 or num_ids == 0:
            return None
        segment = self._segment(
            {
                "first": ("q", first),
                "second": ("q", second),
                "is_match": ("B", is_match),
            }
        )
        tasks = [
            (segment.spec, num_ids, start, stop)
            for start, stop in contiguous_partitions([1] * n, self.num_workers)
        ]
        links = IntUnionFind(num_ids)
        touched = bytearray(num_ids)
        order: List[int] = []
        append = order.append
        for shard_order, shard_roots in self._run(worker.cluster_links_job, tasks):
            for member, root in zip(shard_order, shard_roots):
                if not touched[member]:
                    touched[member] = 1
                    append(member)
                if member != root:
                    links.union(root, member)
        return links, order
