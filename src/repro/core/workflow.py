"""The configurable end-to-end ER workflow (tutorial Figure 1).

``ERWorkflow.run`` executes the four phases of the framework:

1. **Blocking** -- a blocking scheme builds blocks, optionally cleaned by
   block purging and block filtering, optionally restructured by
   meta-blocking (which also provides matching-likelihood weights).
2. **Scheduling** -- a progressive scheduler orders the candidate
   comparisons; with no budget this only affects the order in which matches
   are found, with a budget it decides which comparisons run at all.
3. **Matching** -- a pairwise matcher resolves the scheduled comparisons.
4. **Update / Iterate** (optional) -- matched descriptions are merged and the
   merged descriptions are matched against related candidates, possibly
   yielding new matches (merging-based iteration); the loop stops when an
   iteration finds no new match or ``max_iterations`` is reached.

Finally the declared matches are clustered into equivalence clusters.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.blocking.base import BlockBuilder, BlockCollection, ERInput
from repro.blocking.canopy import CanopyClusteringBlocking
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.blocking.minhash import MinHashLSHBlocking
from repro.blocking.sorted_neighborhood import (
    ExtendedSortedNeighborhoodBlocking,
    SortedNeighborhoodBlocking,
)
from repro.blocking.standard import QGramsBlocking, StandardBlocking, attribute_key
from repro.blocking.similarity_join import SimilarityJoinBlocking
from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
)
from repro.core.config import WorkflowConfig
from repro.core.context import PipelineContext
from repro.core.results import WorkflowResult
from repro.core.unionfind import IntUnionFind
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import merge_descriptions
from repro.datamodel.ground_truth import GroundTruth
from repro.datamodel.pairs import Comparison, ComparisonColumns, DecisionColumns
from repro.evaluation.metrics import (
    cluster_spanning_pairs,
    evaluate_blocks,
    evaluate_comparisons,
    evaluate_matches,
)
from repro.matching.cluster_engine import ClusteringEngine
from repro.matching.clustering import (
    CenterClustering,
    ConnectedComponentsClustering,
    MergeCenterClustering,
)
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import Matcher, ProfileSimilarityMatcher
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.budget import Budget
from repro.progressive.engine import SchedulingEngine
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.progressive.psnm import ProgressiveBlockScheduler, ProgressiveSortedNeighborhood
from repro.progressive.runner import run_progressive
from repro.progressive.scheduler import CostBenefitScheduler
from repro.progressive.schedulers import (
    ProgressiveScheduler,
    RandomOrderScheduler,
    WeightOrderScheduler,
)
from repro.progressive.sorted_list import SortedListScheduler
from repro.text.vectorizer import TfIdfVectorizer

_BLOCKING_FACTORIES = {
    "token": lambda: TokenBlocking(),
    "attribute_clustering": lambda: AttributeClusteringBlocking(),
    "prefix_infix_suffix": lambda: PrefixInfixSuffixBlocking(),
    "qgrams": lambda: QGramsBlocking(),
    "sorted_neighborhood": lambda: SortedNeighborhoodBlocking(),
    "extended_sorted_neighborhood": lambda: ExtendedSortedNeighborhoodBlocking(),
    "similarity_join": lambda: SimilarityJoinBlocking(threshold=0.4),
    "minhash_lsh": lambda: MinHashLSHBlocking(),
    "canopy": lambda: CanopyClusteringBlocking(),
    "standard": lambda: StandardBlocking([attribute_key(["name"], length=6)]),
}

_SCHEDULER_FACTORIES = {
    "weight_order": lambda: WeightOrderScheduler(),
    "random": lambda: RandomOrderScheduler(),
    "sorted_list": lambda: SortedListScheduler(),
    "hierarchy": lambda: PartitionHierarchyScheduler(),
    "psnm": lambda: ProgressiveSortedNeighborhood(),
    "progressive_blocks": lambda: ProgressiveBlockScheduler(),
    "cost_benefit": lambda: CostBenefitScheduler(),
}

_CLUSTERING_FACTORIES = {
    "connected_components": ConnectedComponentsClustering,
    "center": CenterClustering,
    "merge_center": MergeCenterClustering,
}


class ERWorkflow:
    """Configurable blocking -> scheduling -> matching -> update workflow.

    Parameters
    ----------
    config:
        Declarative configuration; defaults are reasonable for schema-free
        Web data.
    blocking, matcher, scheduler:
        Optional component instances overriding the configuration's named
        choices.
    """

    def __init__(
        self,
        config: Optional[WorkflowConfig] = None,
        blocking: Optional[BlockBuilder] = None,
        matcher: Optional[Matcher] = None,
        scheduler: Optional[ProgressiveScheduler] = None,
    ) -> None:
        self.config = config or WorkflowConfig()
        self._blocking_override = blocking
        self._matcher_override = matcher
        self._scheduler_override = scheduler

    # ------------------------------------------------------------------
    # component resolution
    # ------------------------------------------------------------------
    def _make_blocking(self) -> BlockBuilder:
        if self._blocking_override is not None:
            return self._blocking_override
        name = self.config.blocking
        if name not in _BLOCKING_FACTORIES:
            raise KeyError(
                f"unknown blocking scheme {name!r}; available: {sorted(_BLOCKING_FACTORIES)}"
            )
        return _BLOCKING_FACTORIES[name]()

    def _make_scheduler(self) -> ProgressiveScheduler:
        if self._scheduler_override is not None:
            return self._scheduler_override
        name = self.config.scheduler
        if name not in _SCHEDULER_FACTORIES:
            raise KeyError(
                f"unknown scheduler {name!r}; available: {sorted(_SCHEDULER_FACTORIES)}"
            )
        return _SCHEDULER_FACTORIES[name]()

    def _make_matcher(
        self, data: ERInput, context: Optional[PipelineContext] = None
    ) -> Matcher:
        if self._matcher_override is not None:
            return self._matcher_override
        vectorizer = None
        if self.config.use_tfidf:
            # the shared context fits from its interned postings -- no second
            # tokenisation pass; the fitted frequencies are identical integers
            if context is not None:
                vectorizer = context.fit_vectorizer()
            else:
                vectorizer = TfIdfVectorizer().fit(iter(data))
        return ProfileSimilarityMatcher(
            threshold=self.config.match_threshold, vectorizer=vectorizer
        )

    def _make_clustering(self):
        name = self.config.clustering
        if name not in _CLUSTERING_FACTORIES:
            raise KeyError(
                f"unknown clustering {name!r}; available: {sorted(_CLUSTERING_FACTORIES)}"
            )
        return _CLUSTERING_FACTORIES[name]()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        data: ERInput,
        ground_truth: Optional[GroundTruth] = None,
    ) -> WorkflowResult:
        """Execute the workflow over ``data``; evaluate against ``ground_truth`` if given.

        With ``config.num_workers > 1`` (and the shared context enabled,
        which the parallel engine's shared columns require), a
        :class:`~repro.mapreduce.parallel.ParallelEngine` is opened for the
        duration of the run and handed to the blocking, meta-blocking and
        matching engines; each fans its hot pass out to worker processes
        when it can reproduce the single-process result bit for bit, and
        runs single-process otherwise.  Results are identical either way --
        including under worker failure: the engine retries lost shards on a
        rebuilt pool and, per ``config.on_worker_failure``, degrades to
        serial recomputation (recording per-stage counts in the result's
        ``fault_events``) or raises
        :class:`~repro.mapreduce.supervisor.WorkerFailureError`.
        """
        config = self.config
        if config.iterate_merges and config.max_iterations < 1:
            raise ValueError(
                "max_iterations must be at least 1 when iterate_merges is on, "
                f"got {config.max_iterations}"
            )
        parallel = None
        if config.num_workers > 1 and config.shared_context:
            from repro.mapreduce.parallel import ParallelEngine

            parallel = ParallelEngine(
                num_workers=config.num_workers,
                worker_timeout=config.worker_timeout,
                max_shard_retries=config.max_shard_retries,
                on_worker_failure=config.on_worker_failure,
            )
        try:
            return self._run(data, ground_truth, parallel)
        finally:
            if parallel is not None:
                parallel.close()

    def run_incremental(
        self,
        data: ERInput,
        ground_truth: Optional[GroundTruth] = None,
        snapshot: Optional[str] = None,
        restore: Optional[str] = None,
    ) -> WorkflowResult:
        """Resolve ``data`` as an arrival stream instead of a batch pipeline.

        Every description is resolved on arrival by an
        :class:`~repro.iterative.incremental.IncrementalResolver` running on
        ``config.incremental_engine``; the amortised cost per arrival is
        bounded by its candidate cap instead of a full re-resolution.

        Parameters
        ----------
        data:
            The arrival stream (any iterable of descriptions; a
            clean--clean task streams left then right).
        ground_truth:
            Optional ground truth; the final clusters are evaluated against
            it like the batch pipeline's.
        snapshot:
            Optional directory path: after the stream is resolved, the full
            resolution state is persisted there (array engine only).
        restore:
            Optional directory path of a previous snapshot: the resolver
            starts from that state (memory-mapped, nothing re-interned) and
            the stream is resolved *on top of* it.

        The default matcher is a plain set-mode
        :class:`~repro.matching.matchers.ProfileSimilarityMatcher` at
        ``config.match_threshold`` -- not TF-IDF, whose global document
        frequencies are a moving target under online arrivals.  A matcher
        override is honoured; custom types fall back to the object oracle
        (the stage label reports the engine that ran).
        """
        from repro.iterative.incremental import IncrementalResolver

        config = self.config
        result = WorkflowResult()
        report = result.report

        if restore is not None:
            start = time.perf_counter()
            resolver = IncrementalResolver.restore(
                restore, matcher=self._matcher_override
            )
            report.add_stage(
                "incremental_restore",
                records=len(resolver),
                clusters=resolver.num_clusters,
                seconds=time.perf_counter() - start,
            )
        else:
            matcher = self._matcher_override or ProfileSimilarityMatcher(
                threshold=config.match_threshold
            )
            resolver = IncrementalResolver(
                matcher, engine=config.incremental_engine
            )

        if isinstance(data, CleanCleanTask):
            arriving = list(data.left) + list(data.right)
        else:
            arriving = list(data)
        start = time.perf_counter()
        arrivals = resolver.add_all(arriving)
        comparisons = sum(arrival.comparisons for arrival in arrivals)
        report.add_stage(
            f"incremental[{resolver.matcher.name}@{resolver.last_engine}]",
            arrivals=len(arrivals),
            matched_arrivals=sum(
                1 for arrival in arrivals if not arrival.is_new_entity
            ),
            clusters=resolver.num_clusters,
            comparisons=comparisons,
            seconds=time.perf_counter() - start,
        )
        result.comparisons_executed = comparisons
        # every merge an arrival declared, in declaration order (the
        # incremental analogue of the batch pipeline's declared matches)
        result.matches = [
            (arrival.identifier, matched)
            for arrival in arrivals
            for matched in arrival.matched_clusters
        ]
        result.clusters = resolver.non_trivial_clusters()

        if snapshot is not None:
            start = time.perf_counter()
            resolver.save(snapshot)
            stage = report.add_stage(
                "incremental_snapshot",
                records=len(resolver),
                seconds=time.perf_counter() - start,
            )
            stage.notes = str(snapshot)

        if ground_truth is not None:
            result.matching_quality = evaluate_matches(
                cluster_spanning_pairs(result.clusters), ground_truth
            )
        return result

    def _run(
        self,
        data: ERInput,
        ground_truth: Optional[GroundTruth],
        parallel,
    ) -> WorkflowResult:
        config = self.config
        result = WorkflowResult()
        report = result.report

        # shared columnar context: the collection is interned exactly once
        # and every phase derives its token view from the shared columns
        context = PipelineContext(data) if config.shared_context else None
        if parallel is not None and context is not None:
            start = time.perf_counter()
            if parallel.intern_context(context):
                report.add_stage(
                    "interning@parallel",
                    descriptions=context.num_descriptions,
                    tokens=context.vocabulary_size,
                    seconds=time.perf_counter() - start,
                )

        # ---------------- blocking ----------------
        start = time.perf_counter()
        builder = self._make_blocking()
        blocking_engine = BlockingEngine(
            builder, engine=config.blocking_engine, context=context, parallel=parallel
        )
        blocks = blocking_engine.build(data)
        raw_blocks = blocks
        report.add_stage(
            f"blocking[{builder.name}@{blocking_engine.last_engine}]",
            blocks=len(blocks),
            comparisons=blocks.total_comparisons(),
            seconds=time.perf_counter() - start,
        )

        if config.enable_purging:
            start = time.perf_counter()
            blocks = blocking_engine.clean(blocks, purging=BlockPurging())
            report.add_stage(
                f"block_purging@{blocking_engine.last_engine}",
                blocks=len(blocks),
                comparisons=blocks.total_comparisons(),
                seconds=time.perf_counter() - start,
            )
        if config.enable_filtering:
            start = time.perf_counter()
            blocks = blocking_engine.clean(
                blocks, filtering=BlockFiltering(ratio=config.filtering_ratio)
            )
            report.add_stage(
                f"block_filtering@{blocking_engine.last_engine}",
                blocks=len(blocks),
                comparisons=blocks.total_comparisons(),
                seconds=time.perf_counter() - start,
            )

        # ---------------- meta-blocking ----------------
        candidates: Union[BlockCollection, ComparisonColumns, List[Comparison]]
        if config.enable_metablocking:
            start = time.perf_counter()
            metablocking = MetaBlocking(
                config.weighting_scheme,
                config.pruning_scheme,
                engine=config.metablocking_engine,
            )
            candidates = metablocking.weighted_columns(
                blocks, context=context, parallel=parallel
            )
            report.add_stage(
                f"metablocking[{config.weighting_scheme}+{config.pruning_scheme}"
                f"@{metablocking.last_engine}]",
                graph_edges=metablocking.last_graph_edges,
                retained=metablocking.last_retained_edges,
                seconds=time.perf_counter() - start,
            )
        else:
            candidates = blocks

        if ground_truth is not None:
            if isinstance(candidates, BlockCollection):
                candidate_pairs = candidates.distinct_pairs()
            elif isinstance(candidates, ComparisonColumns):
                # columns are evaluated on the ordinal-coded fast path --
                # no per-pair tuple is ever materialised
                candidate_pairs = candidates
            else:
                # a lazy candidate source would be exhausted by evaluating it
                # here and then again by the scheduler: materialise it once
                if not isinstance(candidates, (list, tuple)):
                    candidates = list(candidates)
                candidate_pairs = {c.pair for c in candidates}
            result.blocking_quality = evaluate_comparisons(candidate_pairs, ground_truth, data)

        # ---------------- scheduling + matching ----------------
        start = time.perf_counter()
        scheduler = self._make_scheduler()
        matcher = self._make_matcher(data, context)
        engine = MatchingEngine(
            matcher, engine=config.matching_engine, context=context, parallel=parallel
        )
        scheduling = SchedulingEngine(scheduler, engine=config.scheduling_engine)
        progressive = run_progressive(
            scheduler=scheduler,
            matcher=matcher,
            data=data,
            candidates=candidates,
            budget=config.budget,
            ground_truth=ground_truth,
            keep_decisions=False,
            engine=engine,
            scheduling=scheduling,
        )
        result.comparisons_executed += progressive.comparisons_executed
        result.matches = list(progressive.declared_matches)
        result.curve = progressive.curve
        report.add_stage(
            f"matching[{scheduler.name}@{scheduling.last_engine or scheduling.engine}"
            f"+{engine.last_engine or engine.engine}]",
            comparisons=progressive.comparisons_executed,
            declared_matches=len(progressive.declared_matches),
            seconds=time.perf_counter() - start,
        )

        # ---------------- update / iterate ----------------
        if config.iterate_merges and result.matches:
            start = time.perf_counter()
            new_matches, counts, path = self._iterate_merges(
                data,
                engine,
                result.matches,
                blocks=raw_blocks if self._merge_blocks_reusable(builder) else None,
                context=context,
            )
            result.matches.extend(new_matches)
            result.comparisons_executed += counts["comparisons"]
            result.iterations = counts["iterations"]
            report.add_stage(
                "update_iterate",
                **counts,
                new_matches=len(new_matches),
                seconds=time.perf_counter() - start,
            ).notes = path

        # ---------------- clustering ----------------
        start = time.perf_counter()
        clustering = self._make_clustering()
        cluster_engine = ClusteringEngine(
            clustering, engine=config.clustering_engine, parallel=parallel
        )
        # the declared matches become positive decision columns directly; on
        # the array engine they are clustered as flat ordinals, and only a
        # custom algorithm (object fallback) materialises decision objects
        # through the columns' lazy bridge
        result.clusters = cluster_engine.cluster(
            DecisionColumns.from_match_pairs(result.matches)
        )
        report.add_stage(
            f"clustering[{clustering.name}@{cluster_engine.last_engine}]",
            clusters=len(result.clusters),
            seconds=time.perf_counter() - start,
        )

        if ground_truth is not None:
            # spanning pairs close to exactly the final clusters, so the
            # metrics equal evaluating matched_pairs() without materialising
            # the quadratic within-cluster pair set
            result.matching_quality = evaluate_matches(
                cluster_spanning_pairs(result.clusters), ground_truth
            )

        if parallel is not None and parallel.fault_stats:
            # worker failures were survived (retried and/or degraded):
            # surface the per-stage counts in the result and the report
            result.fault_events = {
                stage: dict(counts) for stage, counts in parallel.fault_stats.items()
            }
            for stage, counts in result.fault_events.items():
                report.add_stage(f"fault_recovery[{stage}]", **counts)

        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _merge_blocks_reusable(builder: BlockBuilder) -> bool:
        """Whether the blocking stage's raw blocks equal the update phase's.

        The update phase neighbours merged descriptions through plain
        default-parameter token blocking.  When the workflow's own blocking
        stage already ran exactly that scheme (the exact type with the
        default tokenisation -- subclasses such as prefix--infix--suffix add
        keys and must not be reused), its pre-cleaning output is the very
        collection the update phase would rebuild, so rebuilding is skipped.
        """
        if type(builder) is not TokenBlocking:
            return False
        # full-configuration equality: any future TokenBlocking parameter is
        # covered automatically, so a non-default builder can never slip
        # through and hand the update phase the wrong neighbourhoods
        return vars(builder) == vars(TokenBlocking())

    def _iterate_merges(
        self,
        data: ERInput,
        engine: MatchingEngine,
        matches: Sequence[Tuple[str, str]],
        blocks: Optional[BlockCollection] = None,
        context: Optional[PipelineContext] = None,
    ) -> Tuple[List[Tuple[str, str]], Dict[str, int], str]:
        """Merging-based update phase, over ordinals.

        Matched descriptions are merged; each merged description is compared
        against the (not yet matched) descriptions that share a token-blocking
        block with any of its sources, which may reveal matches missed by the
        pairwise phase.  Returns the new matches, the stage counts
        (``iterations``, ``merges``, ``candidates``, ``comparisons``) and the
        path that ran (``"batch"`` or ``"pairwise: <why>"``).

        ``blocks`` is the blocking stage's raw (pre-cleaning) token-block
        collection when it is known to equal what this phase would rebuild
        (see :meth:`_merge_blocks_reusable`); otherwise the blocks are rebuilt
        here -- from the shared ``context``'s postings when one is supplied,
        so even the rebuild adds no tokenisation pass.

        Everything per candidate is an integer: descriptions are numbered in
        collection order (the shared context's ordinals), neighbourhoods come
        from the CSR of an :class:`EntityIndexEngine` built on those
        ordinals, cluster state is an :class:`IntUnionFind`, and identifier
        pairs are produced for the new matches only.  **Order rule:** a
        merge's candidates are visited in identifier order, and the cluster
        check runs at visit time, because a union made for an earlier
        candidate can absorb a later one.

        On the batch path (a natively supported matcher and a shared context)
        the whole neighbourhood is scored in one
        :meth:`MatchingEngine.score_against` pass before the visit loop --
        scoring is stateless, so scoring a candidate the cluster check then
        skips changes nothing.  Otherwise the matcher may be stateful (e.g.
        the noisy oracle's RNG): only the candidates that survive the
        cluster check reach ``engine.decide``, one at a time, in visit order.
        """
        if blocks is None:
            blocks = BlockingEngine(
                TokenBlocking(), engine=self.config.blocking_engine, context=context
            ).build(data)
        descriptions = list(data) if context is None else context.descriptions
        index = EntityIndexEngine(
            blocks, ids=[description.identifier for description in descriptions]
        )
        why = None  # ... the one-vs-many batch pass cannot run
        if engine.engine == "pairwise":
            why = "matching_engine"
        elif not engine.batch_applicable:
            why = type(engine.matcher).__name__
        elif context is None:
            why = "no shared context"
        path = "batch" if why is None else f"pairwise: {why}"
        threshold = engine.matcher.threshold if why is None else None

        pending = [(index.ordinal(first), index.ordinal(second)) for first, second in matches]
        clusters = IntUnionFind(index.num_entities)
        for first, second in pending:
            clusters.union(first, second)

        new_matches: List[Tuple[str, str]] = []
        counts = {"iterations": 0, "merges": 0, "candidates": 0}
        comparisons = 0
        for iteration in range(self.config.max_iterations):
            if not pending:
                break
            counts["iterations"] = iteration + 1
            counts["merges"] += len(pending)
            found: List[Tuple[int, int]] = []
            for first, second in pending:
                merged = merge_descriptions(descriptions[first], descriptions[second])
                candidates = index.co_blocked((first, second))
                counts["candidates"] += len(candidates)
                scores = engine.score_against(merged, candidates) if why is None else None
                # first-root-wins unions: this stays the root of ``first``'s
                # cluster through every union the loop below makes
                root = clusters.find(first)
                for position, candidate in enumerate(candidates):
                    if clusters.find(candidate) == root:
                        continue
                    comparisons += 1
                    if scores is None:
                        is_match = engine.decide(merged, descriptions[candidate]).is_match
                    else:
                        is_match = scores[position] >= threshold
                    if is_match:
                        clusters.union(first, candidate)
                        found.append((first, candidate))
                if scores is None:
                    engine.invalidate(merged.identifier)
            new_matches.extend(
                (index.identifier(first), index.identifier(candidate))
                for first, candidate in found
            )
            pending = found
        counts["comparisons"] = comparisons
        return new_matches, counts, path


def default_workflow(budget: Optional[int] = None, **overrides) -> ERWorkflow:
    """A ready-to-use workflow for schema-free Web data.

    Token blocking with purging and filtering, CBS+WNP meta-blocking,
    weight-ordered scheduling and a TF-IDF profile matcher.  Keyword
    overrides are applied to the underlying :class:`WorkflowConfig`.
    """
    config = WorkflowConfig(budget=budget)
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise AttributeError(f"WorkflowConfig has no field {key!r}")
        setattr(config, key, value)
    return ERWorkflow(config)
