"""Parallel execution: a multi-process engine over shared columns.

The tutorial discusses MapReduce-based parallelisations of blocking (Dedoop,
parallel token blocking) and of meta-blocking.  This package runs one
workflow stage on real worker processes (:mod:`repro.mapreduce.parallel`):

* :class:`~repro.mapreduce.parallel.ParallelEngine` cuts the positive
  decision rows into contiguous ranges
  (:func:`~repro.mapreduce.balancing.contiguous_partitions`) and runs the
  connected-components clustering in ``multiprocessing`` workers (per-range
  union--find merged in first-touch order); every other stage runs
  whole-column kernels in the driver;
* the columns cross the process boundary through
  :class:`~repro.mapreduce.shm.ColumnSegment` shared memory -- workers
  attach zero-copy and only the small per-partition result columns are
  pickled back;
* results are **bit-identical** to the single-process engine (same
  clusters in the same list order), because the worker kernel
  (:mod:`repro.mapreduce.worker`) is the sequential scan run over a range;
* ``ClusteringEngine`` falls back to its single-process path for anything
  the workers cannot reproduce -- any clustering other than the library's
  connected-components ``cluster`` -- so enabling the engine never changes
  a result.

Shared-memory lifecycle: the driver (the ``ParallelEngine``) owns every
segment and unlinks all of them in :meth:`~repro.mapreduce.parallel.ParallelEngine.close`
(use the engine as a context manager); workers only ever attach, and
leave the driver's ``resource_tracker`` entry alone, so no spurious leak
warnings (and no double unlinks) occur -- see :mod:`repro.mapreduce.shm`.

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
