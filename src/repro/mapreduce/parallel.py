"""The multi-process parallel engine over shared pipeline columns.

:class:`ParallelEngine` is the driver side of the parallel execution path.
It runs one pooled stage, connected-components clustering
(:meth:`ParallelEngine.cluster_links`): the positive decision rows are cut
into contiguous row ranges, exposed to a ``multiprocessing`` pool through
:class:`~repro.mapreduce.shm.ColumnSegment` shared memory, and the per-range
union--find results are merged back in range order.  The worker-side kernel
lives in :mod:`repro.mapreduce.worker`.

Every other stage runs in the driver, whatever engine the caller passes:
interning, the blocking build with purging, filtering and comparison
propagation, every meta-blocking pruning scheme, the weight sort and
matching are whole-column kernels that outrun the cost of shipping their
columns.  Their ``parallel=`` parameters are accepted and ignored.

Lifecycle: the engine owns every shared-memory segment it creates and every
pool process it forks; :meth:`close` (or use as a context manager) tears both
down deterministically -- segments are unlinked driver-side, and workers only
ever attach (see :mod:`repro.mapreduce.shm` for the tracker discipline that
keeps ``resource_tracker`` silent).

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
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.core.unionfind import IntUnionFind
from repro.mapreduce import shm, worker
from repro.mapreduce.balancing import contiguous_partitions
from repro.mapreduce.shm import ColumnSegment


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
    # every worker must share the driver's resource tracker (see shm.py):
    # spawned and forkserver workers are handed its descriptor, a forked
    # worker inherits it only if it exists BEFORE the fork -- otherwise the
    # worker's first attach starts a private tracker that, when the worker
    # exits, unlinks every segment it ever saw out from under the driver
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    return ProcessPoolExecutor(max_workers=num_workers, mp_context=context)


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
    The engine is handed to every stage engine via its ``parallel``
    parameter; only :class:`~repro.matching.cluster_engine.ClusteringEngine`
    calls back into it (:meth:`cluster_links`), the others ignore it.
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
    # clustering
    # ------------------------------------------------------------------
    def cluster_links(self, first, second, is_match, num_ids: int):
        """Connected components of the positive rows, via per-shard union--find.

        ``first``/``second`` must already be in canonical orientation
        (:func:`~repro.datamodel.pairs.canonical_orientation`).  Workers scan
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
