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

**Extension seam.**  How a stage executes is not an option.  Blocking and
cleaning run the components' own ``build`` / ``process`` (each is the one
body of its algorithm).  The later stage engines run their columnar
implementation when the component is *exactly* a library type, and the
component's own method (``ProgressiveScheduler.schedule``,
``Matcher.decide``) for anything else.  A subclass or custom component
passed as ``ERWorkflow(blocking=, matcher=, scheduler=)`` therefore just
works; the stage label shows the path those engines took
(``matching[...@object+pairwise]``) and the stage's ``notes`` name the
component type that selected it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.blocking.base import BlockBuilder, BlockCollection, ERInput
from repro.blocking.canopy import CanopyClusteringBlocking
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.columns import BlockColumns
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
from repro.datamodel.pairs import ComparisonColumns, DecisionColumns
from repro.evaluation.metrics import (
    evaluate_blocks,
    evaluate_cluster_pairs,
    evaluate_comparisons,
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

import numpy as _np

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

#: The names ``WorkflowConfig.blocking`` / ``.scheduler`` / ``.clustering``
#: accept (the CLI's ``choices=`` are these tuples too).
BLOCKING_SCHEMES = tuple(_BLOCKING_FACTORIES)
SCHEDULERS = tuple(_SCHEDULER_FACTORIES)
CLUSTERINGS = tuple(_CLUSTERING_FACTORIES)


def _by_name(factories, kind: str, name: str):
    if name not in factories:
        raise KeyError(f"unknown {kind} {name!r}; available: {sorted(factories)}")
    return factories[name]()


class ERWorkflow:
    """Configurable blocking -> scheduling -> matching -> update workflow.

    Parameters
    ----------
    config:
        Declarative configuration; defaults are reasonable for schema-free
        Web data.
    blocking, matcher, scheduler:
        Optional component instances overriding the configuration's named
        choices (the extension seam, see the module docstring).
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

    def _resolve_components(self):
        """Build every named component before any stage runs, so a misspelt
        ``clustering`` fails at once."""
        config = self.config
        builder = self._blocking_override
        if builder is None:
            builder = _by_name(_BLOCKING_FACTORIES, "blocking scheme", config.blocking)
        metablocking = None
        if config.enable_metablocking:
            metablocking = MetaBlocking(config.weighting_scheme, config.pruning_scheme)
        scheduler = self._scheduler_override
        if scheduler is None:
            scheduler = _by_name(_SCHEDULER_FACTORIES, "scheduler", config.scheduler)
        clustering = _by_name(_CLUSTERING_FACTORIES, "clustering", config.clustering)
        return builder, metablocking, scheduler, clustering

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        data: ERInput,
        ground_truth: Optional[GroundTruth] = None,
    ) -> WorkflowResult:
        """Execute the workflow over ``data``; evaluate against ``ground_truth`` if given.

        With ``config.num_workers > 1`` a
        :class:`~repro.mapreduce.parallel.ParallelEngine` is opened for the
        duration of the run and handed to every stage engine; only the
        clustering engine fans its pass out to worker processes (when it can
        reproduce the single-process result bit for bit), the others run in
        the driver.  Results are identical either way.
        A worker that dies aborts the run with
        :class:`~concurrent.futures.process.BrokenProcessPool`; the engine
        is closed, and its shared-memory segments unlinked, on the way out.
        """
        config = self.config
        components = self._resolve_components()
        parallel = None
        if config.num_workers > 1:
            from repro.mapreduce.parallel import ParallelEngine

            parallel = ParallelEngine(num_workers=config.num_workers)
        try:
            return self._run(data, ground_truth, parallel, components)
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
        :class:`~repro.iterative.incremental.IncrementalResolver`; the
        amortised cost per arrival is bounded by its candidate cap instead
        of a full re-resolution.

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
            resolution state is persisted there (columnar index only: a
            matcher that runs on the object path has no columns to save).
        restore:
            Optional directory path of a previous snapshot: the resolver
            starts from that state (memory-mapped, nothing re-interned) and
            the stream is resolved *on top of* it.

        The default matcher is a plain set-mode
        :class:`~repro.matching.matchers.ProfileSimilarityMatcher` at
        ``config.match_threshold`` -- not TF-IDF, whose global document
        frequencies are a moving target under online arrivals.  A matcher
        override is honoured; a TF-IDF or custom-type matcher resolves
        through the resolver's readable per-pair path (stage label
        ``@object``, the reason in the stage's ``notes``).
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
            resolver = IncrementalResolver(matcher)

        if isinstance(data, CleanCleanTask):
            arriving = list(data.left) + list(data.right)
        else:
            arriving = list(data)
        start = time.perf_counter()
        arrivals = resolver.add_all(arriving)
        comparisons = sum(arrival.comparisons for arrival in arrivals)
        stage = report.add_stage(
            f"incremental[{resolver.matcher.name}@{resolver.last_engine}]",
            arrivals=len(arrivals),
            matched_arrivals=sum(
                1 for arrival in arrivals if not arrival.is_new_entity
            ),
            clusters=resolver.num_clusters,
            comparisons=comparisons,
            seconds=time.perf_counter() - start,
        )
        if resolver.last_engine == "object":
            # the index implements the exact library matcher in set mode only
            tfidf = type(resolver.matcher) is ProfileSimilarityMatcher
            stage.notes = f"object: {'TF-IDF' if tfidf else type(resolver.matcher).__name__}"
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
            result.matching_quality = evaluate_cluster_pairs(result.clusters, ground_truth)
        return result

    def _run(
        self,
        data: ERInput,
        ground_truth: Optional[GroundTruth],
        parallel,
        components,
    ) -> WorkflowResult:
        config = self.config
        builder, metablocking, scheduler, clustering = components
        result = WorkflowResult()
        report = result.report

        # shared columnar context: the collection is interned exactly once
        # and every phase derives its token view from the shared columns
        context = PipelineContext(data)

        # ---------------- blocking ----------------
        start = time.perf_counter()
        blocking_engine = BlockingEngine(builder, context=context, parallel=parallel)
        blocks = blocking_engine.build(data)
        raw_blocks = blocks
        report.add_stage(
            f"blocking[{builder.name}]",
            blocks=len(blocks),
            comparisons=blocks.total_comparisons(),
            seconds=time.perf_counter() - start,
        )

        if config.enable_purging:
            start = time.perf_counter()
            blocks = blocking_engine.clean(blocks, purging=BlockPurging())
            report.add_stage(
                "block_purging",
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
                "block_filtering",
                blocks=len(blocks),
                comparisons=blocks.total_comparisons(),
                seconds=time.perf_counter() - start,
            )

        # ---------------- meta-blocking ----------------
        candidates: Union[BlockCollection, ComparisonColumns]
        if metablocking is not None:
            start = time.perf_counter()
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
            # both are counted from columns: no Block and no per-pair tuple
            if isinstance(candidates, BlockCollection):
                quality = evaluate_blocks(candidates, ground_truth, data)
            else:
                quality = evaluate_comparisons(candidates, ground_truth, data)
            result.blocking_quality = quality

        # ---------------- scheduling + matching ----------------
        start = time.perf_counter()
        matcher = self._matcher_override
        if matcher is None:
            # the context fits from its interned postings: no tokenisation pass
            vectorizer = context.fit_vectorizer() if config.use_tfidf else None
            matcher = ProfileSimilarityMatcher(
                threshold=config.match_threshold, vectorizer=vectorizer
            )
        engine = MatchingEngine(matcher, context=context)
        scheduling = SchedulingEngine(scheduler)
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
        result.matches = progressive.declared_matches
        result.curve = progressive.curve
        # the declared matches as context ordinals, the form clustering reads
        matches = progressive.match_columns
        if matches.ids is not context.ids:
            # the per-row drain interned its own table
            at = [context.ordinal(identifier) for identifier in matches.ids].__getitem__
            own, matches = matches, DecisionColumns(context.ids)
            matches.extend(map(at, own.first), map(at, own.second), own.similarity, own.is_match)
        stage = report.add_stage(
            f"matching[{scheduler.name}@{scheduling.last_engine}+{engine.last_engine}]",
            comparisons=progressive.comparisons_executed,
            declared_matches=len(result.matches),
            seconds=time.perf_counter() - start,
        )
        notes = []
        if scheduling.last_engine == "object":
            notes.append(f"object: {type(scheduler).__name__}")
        if engine.last_engine == "pairwise":
            notes.append(f"pairwise: {type(matcher).__name__}")
        stage.notes = "; ".join(notes)

        # ---------------- update / iterate ----------------
        if config.iterate_merges and result.matches:
            start = time.perf_counter()
            new_matches, counts, path = self._iterate_merges(
                data,
                engine,
                list(zip(matches.first, matches.second)),
                context,
                blocks=raw_blocks if self._merge_blocks_reusable(builder) else None,
            )
            for first, second in new_matches:
                matches.append(first, second, 1.0, True)
                result.matches.append((context.ids[first], context.ids[second]))
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
        cluster_engine = ClusteringEngine(clustering, parallel=parallel)
        result.clusters = cluster_engine.cluster(matches)
        report.add_stage(
            f"clustering[{clustering.name}@{cluster_engine.last_engine}]",
            clusters=len(result.clusters),
            seconds=time.perf_counter() - start,
        )

        if ground_truth is not None:
            # the final clusters counted on ground-truth cluster indices: the
            # metrics of matched_pairs(), without its quadratic pair set
            result.matching_quality = evaluate_cluster_pairs(result.clusters, ground_truth)

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
        matches: Sequence[Tuple[int, int]],
        context: PipelineContext,
        blocks: Optional[BlockCollection] = None,
    ) -> Tuple[List[Tuple[int, int]], Dict[str, int], str]:
        """Merging-based update phase, over ordinals.

        Matched descriptions (pairs of context ordinals) are merged; each
        merged description is compared against the (not yet matched)
        descriptions that share a token-blocking block with any of its
        sources, which may reveal matches missed by the pairwise phase.
        Returns the new matches (ordinal pairs), the stage counts
        (``iterations``, ``merges``, ``candidates``, ``comparisons``) and the
        path that ran (``"batch"``, or ``"pairwise: <matcher type>"`` for a
        matcher the batch engine does not implement).

        ``blocks`` is the blocking stage's raw (pre-cleaning) token-block
        collection when it is known to equal what this phase would rebuild
        (see :meth:`_merge_blocks_reusable`); otherwise the blocks are rebuilt
        here from the shared ``context``'s postings, so even the rebuild
        adds no tokenisation pass.

        Everything per candidate is an integer: descriptions are numbered in
        collection order (the shared context's ordinals), neighbourhoods come
        from the CSR of an :class:`EntityIndexEngine` built on those
        ordinals and cluster state is an :class:`IntUnionFind`.  **Order rule:** a
        merge's candidates are visited in identifier order, and the cluster
        check runs at visit time, because a union made for an earlier
        candidate can absorb a later one.

        On the batch path (a natively supported matcher) the whole
        neighbourhood is scored in one
        :meth:`MatchingEngine.score_against` pass before the visit loop --
        scoring is stateless, so scoring a candidate the cluster check then
        skips changes nothing.  Unions happen only at matches, so up to the
        first visited match the cluster state is fixed: that **visit
        prefix** is counted in one pass (every candidate's root from
        :meth:`IntUnionFind.roots`, visited where it differs from the
        merge's) and the per-candidate loop runs from that match on.
        Otherwise the matcher may be stateful (e.g. the noisy oracle's RNG):
        only the candidates that survive the cluster check reach
        ``engine.decide``, one at a time, in visit order.
        """
        if blocks is None:
            blocks = BlockingEngine(TokenBlocking(), context=context).build(data)
        descriptions = context.descriptions
        index = EntityIndexEngine.from_columns(BlockColumns.from_collection(blocks, context.ids))
        # the one-vs-many batch pass needs a matcher the batch engine implements
        batch = engine.batch_applicable
        path = "batch" if batch else f"pairwise: {type(engine.matcher).__name__}"
        threshold = engine.matcher.threshold if batch else None

        pending = list(matches)
        clusters = IntUnionFind(index.num_entities)
        for first, second in pending:
            clusters.union(first, second)

        new_matches: List[Tuple[int, int]] = []
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
                # first-root-wins unions: this stays the root of ``first``'s
                # cluster through every union the loop below makes
                root = clusters.find(first)
                # one ordinal array serves the scoring and the visit prefix
                ordinals = _np.asarray(candidates, dtype=_np.int64) if batch else candidates
                scores = engine.score_against(merged, ordinals) if batch else None
                start = 0
                if batch:
                    # the visit prefix: no union before the first visited match
                    visit = clusters.roots(ordinals) != root
                    matched = _np.flatnonzero(visit & (_np.asarray(scores) >= threshold))
                    start = int(matched[0]) if len(matched) else len(candidates)
                    comparisons += int(_np.count_nonzero(visit[:start]))
                for position in range(start, len(candidates)):
                    candidate = candidates[position]
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
            new_matches.extend(found)
            pending = found
        counts["comparisons"] = comparisons
        return new_matches, counts, path


def default_workflow(budget: Optional[int] = None, **overrides) -> ERWorkflow:
    """A ready-to-use workflow for schema-free Web data.

    Token blocking with purging and filtering, CBS+WNP meta-blocking,
    weight-ordered scheduling and a TF-IDF profile matcher.  Keyword
    overrides are applied to the underlying :class:`WorkflowConfig`.
    """
    valid = [config_field.name for config_field in dataclasses.fields(WorkflowConfig)]
    for key in overrides:
        if key not in valid:
            raise AttributeError(f"WorkflowConfig has no field {key!r}; fields: {valid}")
    return ERWorkflow(WorkflowConfig(budget=budget, **overrides))
