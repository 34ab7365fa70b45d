"""Configuration of the end-to-end ER workflow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class WorkflowConfig:
    """Declarative configuration of :class:`~repro.core.workflow.ERWorkflow`.

    The configuration only holds simple, serialisable choices; component
    instances (a custom matcher, a custom scheduler) can be passed directly to
    the workflow constructor and take precedence over the corresponding
    fields here.

    Attributes
    ----------
    blocking:
        Name of the blocking scheme: ``"token"``, ``"attribute_clustering"``,
        ``"prefix_infix_suffix"``, ``"standard"``, ``"sorted_neighborhood"``,
        ``"extended_sorted_neighborhood"``, ``"qgrams"``,
        ``"similarity_join"``, ``"minhash_lsh"``, ``"canopy"``.
    blocking_engine:
        Execution engine of the blocking and block-cleaning stages:
        ``"index"`` (default, array-backed interned-token builders and
        streaming CSR cleaning passes) or ``"oracle"`` (the legacy
        per-``dict``/``set`` builders and cleaners).  Both produce
        block-for-block identical collections; every builtin scheme has an
        index implementation, and custom :class:`~repro.blocking.base.BlockBuilder`
        subclasses fall back to the oracle automatically (with a one-time
        :class:`RuntimeWarning` naming the scheme).  See
        :mod:`repro.blocking`.
    enable_purging / enable_filtering:
        Whether block purging / block filtering run after blocking.
    filtering_ratio:
        Ratio of the block filtering step (ignored when filtering is off).
    enable_metablocking:
        Whether meta-blocking restructures the blocks before scheduling.
    weighting_scheme / pruning_scheme:
        Meta-blocking configuration (ignored when meta-blocking is off).
    metablocking_engine:
        Execution engine of the meta-blocking stage: ``"index"`` (default,
        array-backed streaming engine) or ``"graph"`` (legacy object graph).
        Both retain identical comparisons; see :mod:`repro.metablocking`.
    scheduler:
        Progressive scheduler name: ``"weight_order"``, ``"random"``,
        ``"sorted_list"``, ``"hierarchy"``, ``"psnm"``, ``"progressive_blocks"``,
        ``"cost_benefit"``.
    scheduling_engine:
        Execution engine of the scheduling stage: ``"array"`` (default,
        orders and drains the candidate comparisons as flat ordinal/weight
        arrays) or ``"object"`` (the schedulers' own generator
        implementations).  Schedules are bit-identical; adaptive and custom
        schedulers fall back to the object path automatically.  See
        :mod:`repro.progressive`.
    matching_engine:
        Comparison-execution engine of the matching phase: ``"batch"``
        (default, scores candidate pairs in vectorised passes against a
        columnar profile store) or ``"pairwise"`` (the per-pair oracle).
        Decisions are bit-identical; see :mod:`repro.matching`.
    budget:
        Optional comparison budget for the matching phase (``None`` = resolve
        every scheduled comparison).
    match_threshold:
        Similarity threshold of the default profile matcher.
    use_tfidf:
        Whether the default matcher weights tokens by TF-IDF.
    iterate_merges:
        Whether the update phase merges matched descriptions and re-runs
        matching on the merge results (merging-based iteration).
    max_iterations:
        Upper bound on update/iterate rounds; must be at least 1 when
        ``iterate_merges`` is on (``ERWorkflow.run`` raises otherwise).
    clustering:
        Final clustering: ``"connected_components"``, ``"center"`` or
        ``"merge_center"``.
    clustering_engine:
        Execution engine of the final clustering stage: ``"array"``
        (default, integer union-find / argsort passes over decision
        columns) or ``"object"`` (the clustering algorithms' own
        string-keyed implementations).  Clusters are bit-identical --
        including the heaviest-first tie order; custom clustering
        algorithms fall back to the object path automatically.  See
        :mod:`repro.matching.cluster_engine`.
    shared_context:
        Whether the workflow interns the input collection once into a shared
        :class:`~repro.core.context.PipelineContext` (default) and threads
        it through blocking, meta-blocking, the TF-IDF fit and matching, or
        lets every engine intern its own per-stage store (the historical
        behaviour).  Results are bit-identical either way; the shared
        context only removes the redundant tokenisation passes.
    incremental_engine:
        Execution engine of :meth:`~repro.core.workflow.ERWorkflow.run_incremental`:
        ``"array"`` (default, the growable columnar
        :class:`~repro.iterative.index.IncrementalIndex` with snapshot
        support) or ``"object"`` (the per-pair oracle).  Streams resolve
        bit-identically on both -- clusters, merged representations, match
        decisions and comparison counts; TF-IDF and custom matchers fall
        back to the object path automatically.  See
        :mod:`repro.iterative.incremental`.
    num_workers:
        Number of worker processes of the multi-process parallel engine
        (:class:`~repro.mapreduce.parallel.ParallelEngine`).  The default
        ``1`` runs everything in-process; with ``num_workers > 1`` (and the
        shared context enabled, whose columns the workers read through
        shared memory) one engine is opened for the whole run and every
        parallelisable stage fans out to the pool: the sharded context
        interning, the blocking postings pass, the block-cleaning passes
        (purging cardinalities, filtering keep flags, comparison
        propagation), the meta-blocking weight streams and retained-edge
        emission, the weight sort of the comparison columns, the batched
        matching scores, and the connected-components clustering.  Stages
        the workers cannot reproduce (custom subclasses, foreign
        collections, the greedy center clusterings) silently run
        in-process.  Results -- blocks, retained edges, match decisions,
        clusters, tie orders -- are bit-identical to the single-process run
        at every worker count.
    worker_timeout:
        No-progress timeout (seconds) of the parallel engine's shard
        batches: if no shard completes within it, the pool is assumed hung,
        torn down and the outstanding shards retried.  ``None`` (default)
        disables the clock; crashed workers are still detected without it --
        the timeout is what recovers from silently *hung* ones.  Ignored
        when ``num_workers == 1``.
    max_shard_retries:
        How many times a failed shard is re-dispatched to a rebuilt pool
        (with bounded exponential backoff) before ``on_worker_failure``
        applies.  Retried shards are recomputed deterministically, so
        recovery never changes a result.
    on_worker_failure:
        What to do when a shard exhausts its retries: ``"degrade"``
        (default) recomputes the failed shards serially on the driver --
        results stay bit-identical, only the speedup is lost -- warning
        with :class:`~repro.mapreduce.supervisor.DegradedExecutionWarning`
        and recording per-stage counts in the workflow report
        (``fault_events`` on :class:`~repro.core.results.WorkflowResult`);
        ``"raise"`` aborts the run with
        :class:`~repro.mapreduce.supervisor.WorkerFailureError`.
    """

    blocking: str = "token"
    blocking_engine: str = "index"
    enable_purging: bool = True
    enable_filtering: bool = True
    filtering_ratio: float = 0.8
    enable_metablocking: bool = True
    weighting_scheme: str = "CBS"
    pruning_scheme: str = "WNP"
    metablocking_engine: str = "index"
    scheduler: str = "weight_order"
    scheduling_engine: str = "array"
    matching_engine: str = "batch"
    budget: Optional[int] = None
    match_threshold: float = 0.55
    use_tfidf: bool = True
    iterate_merges: bool = False
    max_iterations: int = 3
    clustering: str = "connected_components"
    clustering_engine: str = "array"
    incremental_engine: str = "array"
    shared_context: bool = True
    num_workers: int = 1
    worker_timeout: Optional[float] = None
    max_shard_retries: int = 2
    on_worker_failure: str = "degrade"

    def describe(self) -> str:
        """One-line human-readable summary of the configured pipeline."""
        stages = [f"{self.blocking}(engine={self.blocking_engine})"]
        if self.enable_purging:
            stages.append("purging")
        if self.enable_filtering:
            stages.append(f"filtering({self.filtering_ratio})")
        if self.enable_metablocking:
            stages.append(
                f"metablocking({self.weighting_scheme}+{self.pruning_scheme},"
                f" engine={self.metablocking_engine})"
            )
        stages.append(f"scheduler={self.scheduler}(engine={self.scheduling_engine})")
        stages.append(
            f"matcher(threshold={self.match_threshold}, engine={self.matching_engine})"
        )
        if self.iterate_merges:
            stages.append("iterative-merging")
        stages.append(f"{self.clustering}(engine={self.clustering_engine})")
        budget = f", budget={self.budget}" if self.budget is not None else ""
        context = ", shared-context" if self.shared_context else ""
        workers = f", workers={self.num_workers}" if self.num_workers > 1 else ""
        return " -> ".join(stages) + budget + context + workers
