"""Parallel execution: a real multi-process engine and a MapReduce simulation.

The tutorial discusses MapReduce-based parallelisations of blocking (Dedoop,
parallel token blocking) and of meta-blocking.  This package provides both a
*real* multi-core execution path and the original single-process simulation,
and the two serve different purposes:

**The multi-process engine** (:mod:`repro.mapreduce.parallel`) delivers
actual wall-clock speedup on multi-core machines:

* :class:`~repro.mapreduce.parallel.ParallelEngine` shards the flat columns
  of the blocks and of the meta-blocking CSR index by contiguous ranges
  (:func:`~repro.mapreduce.balancing.contiguous_partitions` balances the
  ranges by per-item cost) and runs every parallelisable workflow stage
  in ``multiprocessing`` workers (interning, the blocking build with purging
  and filtering, the weight sort and matching are not among them: each runs
  whole-column kernels in the driver): comparison propagation, the
  meta-blocking index engine's ranged pruning passes (retained-edge columns
  for all pruning schemes) and the connected-components clustering
  (per-shard union--find merged in first-touch order);
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
  clustering algorithms other than connected components -- so enabling the
  engine never changes a result.

Shared-memory lifecycle: the driver (the ``ParallelEngine``) owns every
segment and unlinks all of them in :meth:`~repro.mapreduce.parallel.ParallelEngine.close`
(use the engine as a context manager); workers only ever attach, and
unregister their attachments from the ``resource_tracker`` so no spurious
leak warnings (and no double unlinks) occur -- see :mod:`repro.mapreduce.shm`.

**Fault tolerance** (:mod:`repro.mapreduce.supervisor`,
:mod:`repro.mapreduce.faults`): every parallel stage dispatches its shards
through a :class:`~repro.mapreduce.supervisor.Supervisor` that detects dead
or hung workers, rebuilds the pool, retries lost shards with bounded
exponential backoff, and -- on retry exhaustion -- either raises or (the
default) recomputes the lost shards serially on the driver, preserving the
bit-identity contract because the shard jobs are deterministic and every
merge walks shards in range order.  Segment names carry a parseable
``repro-<pid>-<token>-<seq>`` prefix so the janitor
(:func:`~repro.mapreduce.shm.orphaned_segments` /
:func:`~repro.mapreduce.shm.sweep`) can reclaim ``/dev/shm`` leftovers of a
SIGKILLed driver; a deterministic fault-injection harness
(:mod:`repro.mapreduce.faults`) lets the chaos suite kill, hang or delay a
chosen worker at an exact (stage, shard, attempt) coordinate.

**The MapReduce simulation** (:mod:`repro.mapreduce.engine`,
:mod:`repro.mapreduce.jobs`) remains the readable oracle for the *semantics*
of the published MapReduce formulations, and the path custom user-defined
jobs run on:

* :class:`~repro.mapreduce.engine.MapReduceEngine` executes map, shuffle and
  reduce phases exactly once in-process with a configurable number of
  simulated workers, charging each worker a per-record cost and reporting
  the simulated makespan (the maximum per-worker cost), which is what
  speedup and load-balance experiments measure;
* :mod:`repro.mapreduce.jobs` defines the parallel token-blocking job and
  the three-stage parallel meta-blocking jobs;
* :mod:`repro.mapreduce.balancing` provides reduce-side load-balancing
  strategies (naive hashing vs. greedy longest-processing-time placement),
  the knob the parallel meta-blocking papers study under block-size skew.
"""

from repro.mapreduce.balancing import (
    GreedyBalancedPartitioner,
    HashPartitioner,
    Partitioner,
    contiguous_partitions,
)
from repro.mapreduce.engine import JobStatistics, MapReduceEngine, MapReduceJob
from repro.mapreduce.jobs import (
    ParallelMetaBlocking,
    ParallelTokenBlocking,
    block_collection_from_reduce_output,
)
from repro.mapreduce.parallel import ParallelEngine
from repro.mapreduce.supervisor import (
    DegradedExecutionWarning,
    Supervisor,
    WorkerFailureError,
)

__all__ = [
    "DegradedExecutionWarning",
    "GreedyBalancedPartitioner",
    "HashPartitioner",
    "JobStatistics",
    "MapReduceEngine",
    "MapReduceJob",
    "ParallelEngine",
    "Supervisor",
    "WorkerFailureError",
    "ParallelMetaBlocking",
    "ParallelTokenBlocking",
    "Partitioner",
    "block_collection_from_reduce_output",
    "contiguous_partitions",
]
