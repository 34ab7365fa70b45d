"""Parallel execution: a multi-process engine over shared columns.

The tutorial discusses MapReduce-based parallelisations of blocking (Dedoop,
parallel token blocking) and of meta-blocking.  This package runs the
workflow's parallelisable stages on real worker processes
(:mod:`repro.mapreduce.parallel`):

* :class:`~repro.mapreduce.parallel.ParallelEngine` shards the flat columns
  of the blocks and of the meta-blocking CSR index by contiguous ranges
  (:func:`~repro.mapreduce.balancing.contiguous_partitions` balances the
  ranges by per-item cost) and runs every parallelisable workflow stage
  in ``multiprocessing`` workers (interning, the blocking build with purging
  and filtering, the weight sort and matching are not among them: each runs
  whole-column kernels in the driver, as is WNP's one pass): comparison
  propagation, the meta-blocking index engine's ranged pruning passes
  (retained-edge columns of WEP, CEP and CNP) and the connected-components
  clustering (per-shard union--find merged in first-touch order);
* the columns cross the process boundary through
  :class:`~repro.mapreduce.shm.ColumnSegment` shared memory -- workers
  attach zero-copy and only the small per-partition result columns are
  pickled back;
* results are **bit-identical** to the single-process array engines (same
  blocks, same edge weights, same clusters, same tie order), because
  every worker kernel (:mod:`repro.mapreduce.worker`) either is the
  sequential code run over a range, or replicates its exact expressions over
  the same exact integers;
* the engines it plugs into (``BlockingEngine``, ``MetaBlocking``,
  ``ClusteringEngine``) fall back to their single-process paths for anything
  the workers cannot reproduce -- custom weighting/pruning subclasses,
  any clustering other than the library's connected-components ``cluster``
  -- so enabling the
  engine never changes a result.

Shared-memory lifecycle: the driver (the ``ParallelEngine``) owns every
segment and unlinks all of them in :meth:`~repro.mapreduce.parallel.ParallelEngine.close`
(use the engine as a context manager); workers only ever attach, and
unregister their attachments from the ``resource_tracker`` so no spurious
leak warnings (and no double unlinks) occur -- see :mod:`repro.mapreduce.shm`.

**Failure**: shards dispatch through one ordered ``executor.map`` over a
:class:`concurrent.futures.ProcessPoolExecutor`.  A worker that dies aborts
the run with :class:`~concurrent.futures.process.BrokenProcessPool`; nothing
is retried, and closing the engine still unlinks every segment.  Segment
names carry a parseable ``repro-<pid>-<token>-<seq>`` prefix so the janitor
(:func:`~repro.mapreduce.shm.orphaned_segments` /
:func:`~repro.mapreduce.shm.sweep`) can reclaim ``/dev/shm`` leftovers of a
SIGKILLed driver.
"""

from repro.mapreduce.balancing import contiguous_partitions
from repro.mapreduce.parallel import ParallelEngine

__all__ = [
    "ParallelEngine",
    "contiguous_partitions",
]
