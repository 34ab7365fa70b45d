"""Tracing from outside the program: spans around the calls into each layer.

The program under test is not instrumented.  ``mirror_workflow`` repeats
``ERWorkflow._run`` step by step from here, with default-constructed public
objects, and wraps each call into a layer in a span; the run that calls it
then checks that the mirror's clusters hash to the same digest as the
untraced ``ERWorkflow.run``, so the mirror cannot drift from the program.
The program's own ``report`` timers are never read (ROADMAP item 1 replaces
them).

Spans ``{name, start, end, parent, workload, repeat}`` and counts stay in
memory until the run ends and are then written to
``results/trace_<workload>.json``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.blocking.base import BlockCollection
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core.context import PipelineContext
from repro.datamodel.pairs import DecisionColumns
from repro.evaluation.metrics import (
    cluster_spanning_pairs,
    evaluate_comparisons,
    evaluate_matches,
)
from repro.matching.cluster_engine import ClusteringEngine
from repro.matching.clustering import ConnectedComponentsClustering
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.engine import SchedulingEngine
from repro.progressive.runner import run_progressive
from repro.progressive.schedulers import WeightOrderScheduler


#: name of the span a mirrored run opens around all its layer spans
ROOT_SPAN = "workflow.mirror"


def layer_sum(seconds: Dict[str, float]) -> float:
    """Sum of the layer spans of ``Tracer.seconds(root)``: all but the root's own time."""
    return sum(value for name, value in seconds.items() if name != ROOT_SPAN)


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.repeat = 0
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "repeat": self.repeat,
        }
        self._open.append(record["id"])
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, root: dict) -> Dict[str, float]:
        """Self time per span name under ``root``: duration minus child spans.

        Spans are appended in start order, so the spans ``root`` caused are
        the ones after it whose chain of parents reaches it.
        """
        inside = {root["id"]}
        totals: Dict[str, float] = {}
        for span in self.spans[root["id"] :]:
            if span["id"] != root["id"] and span["parent"] not in inside:
                continue
            inside.add(span["id"])
            duration = span["end"] - span["start"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + duration
            if span["id"] != root["id"]:
                parent = self.spans[span["parent"]]["name"]
                totals[parent] = totals.get(parent, 0.0) - duration
        return totals

    def write(self, path, **header) -> None:
        payload = dict(header, workload=self.workload, counts=self.counts, spans=self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


@dataclass
class Mirror:
    """Everything the mirrored pipeline produced, for counts and digests."""

    #: the root span: ``Tracer.seconds(mirror.root)`` is the per-layer self time
    root: dict
    context: PipelineContext
    raw_blocks: BlockCollection
    blocks: BlockCollection
    #: what the scheduler receives: the cleaned blocks or the retained columns
    candidates: object
    metablocking: Optional[MetaBlocking] = None
    progressive: Optional[object] = None
    clusters: Optional[list] = None
    #: ``ParallelEngine.fault_stats`` at close (empty on the happy path)
    fault_stats: Optional[dict] = None


def _blocking(tracer: Tracer, root: dict, data, filtering_ratio: float, parallel) -> Mirror:
    context = PipelineContext(data)
    with tracer.span("context.intern"):
        if parallel is None or not parallel.intern_context(context):
            context.num_descriptions  # forces the serial interning pass
    engine = BlockingEngine(TokenBlocking(), context=context, parallel=parallel)
    with tracer.span("blocking.build"):
        raw = engine.build(data)
    with tracer.span("blocking.purge"):
        purged = engine.clean(raw, purging=BlockPurging())
    with tracer.span("blocking.filter"):
        blocks = engine.clean(purged, filtering=BlockFiltering(ratio=filtering_ratio))
    return Mirror(root, context, raw, blocks, blocks)


def mirror_blocking(tracer: Tracer, data, filtering_ratio: float) -> Mirror:
    """``PipelineContext`` -> ``BlockingEngine.build`` -> ``clean`` x2, one span each."""
    with tracer.span(ROOT_SPAN) as root:
        return _blocking(tracer, root, data, filtering_ratio, None)


def mirror_workflow(tracer: Tracer, data, config, truth=None, workers: int = 0) -> Mirror:
    """``ERWorkflow.run`` without the update phase, a span around each layer.

    ``config`` is the workload's ``WorkflowConfig``; only its pipeline
    choices are read, never an engine knob.  ``workers`` > 0 opens a
    ``ParallelEngine`` the way ``ERWorkflow.run`` does and hands it to every
    stage through their public ``parallel=`` parameters.
    """
    parallel = None
    fault_stats: dict = {}
    with tracer.span(ROOT_SPAN) as root:
        if workers:
            from repro.mapreduce.parallel import ParallelEngine

            with tracer.span("mapreduce.engine_open"):
                parallel = ParallelEngine(num_workers=workers)
        try:
            mirror = _blocking(tracer, root, data, config.filtering_ratio, parallel)
            context = mirror.context
            if config.enable_metablocking:
                mirror.metablocking = MetaBlocking(config.weighting_scheme, config.pruning_scheme)
                with tracer.span("metablocking.prune"):
                    mirror.candidates = mirror.metablocking.weighted_columns(
                        mirror.blocks, context=context, parallel=parallel
                    )
            if truth is not None:
                with tracer.span("evaluation.score"):
                    candidates = mirror.candidates
                    if isinstance(candidates, BlockCollection):
                        candidates = candidates.distinct_pairs()
                    evaluate_comparisons(candidates, truth, data)
            with tracer.span("text.fit_vectorizer"):
                vectorizer = context.fit_vectorizer()
            matcher = ProfileSimilarityMatcher(
                threshold=config.match_threshold, vectorizer=vectorizer
            )
            scheduler = WeightOrderScheduler()
            with tracer.span("progressive.run"):
                mirror.progressive = run_progressive(
                    scheduler=scheduler,
                    matcher=matcher,
                    data=data,
                    candidates=mirror.candidates,
                    budget=config.budget,
                    ground_truth=truth,
                    keep_decisions=False,
                    engine=MatchingEngine(matcher, context=context, parallel=parallel),
                    scheduling=SchedulingEngine(scheduler),
                )
            with tracer.span("clustering.cluster"):
                mirror.clusters = ClusteringEngine(
                    ConnectedComponentsClustering(), parallel=parallel
                ).cluster(DecisionColumns.from_match_pairs(mirror.progressive.declared_matches))
            if truth is not None:
                with tracer.span("evaluation.score"):
                    evaluate_matches(cluster_spanning_pairs(mirror.clusters), truth)
        finally:
            if parallel is not None:
                fault_stats = {
                    stage: dict(counts) for stage, counts in parallel.fault_stats.items()
                }
                with tracer.span("mapreduce.close"):
                    parallel.close()
    mirror.fault_stats = fault_stats
    return mirror


def standalone_schedule(tracer: Tracer, data, candidates) -> Tuple[int, float]:
    """``SchedulingEngine.schedule_rows`` on its own; returns (rows, seconds).

    The rows are a lazy generator behind an eager sort: they are drained
    inside the span so the span covers the whole schedule.
    """
    scheduled = 0
    with tracer.span("progressive.schedule") as span:
        rows = SchedulingEngine(WeightOrderScheduler()).schedule_rows(data, candidates)
        for _row in rows.rows:
            scheduled += 1
    return scheduled, span["end"] - span["start"]
