"""The six benchmark workloads: inputs, timed operation, checks, traced run.

Every workload is one object with the same methods:

``sizes(scale)``   the generation parameters (recorded in the results file;
                   ``compare.py`` refuses files whose sizes differ)
``setup(seed, scale)``  generate the inputs -- the only place a seed is used
``run(inputs)``    the timed operation; receives only the generated inputs
``digest(output)`` a hash of the sorted output, compared across repeats
``checks(inputs, output, seed, scale)``  quality measured from the
                   ground-truth side plus named pass/fail checks, computed
                   after the timer
``facts(output)``  the few numbers of an output a traced repeat needs
``trace(inputs, tracer, untraced)``  one traced repeat: per-layer values and
                   the two digests that must agree (mirror, program);
                   ``untraced.output`` is the untraced run's ``facts``

Only default engines are used: nothing here passes a ``*_engine`` knob or
``use_numpy`` (ROADMAP item 4 deletes them and may not edit this directory).

Sizes are the measured starting point on a 2-core box for a 15 s measuring
window (a timed repeat is 1-2.5 s, so a run holds 6-12 of them).  They are a
quarter to a half of the sizes ISSUE 11 first measured: the benchmark driver
caps a run at ``run_seconds`` and makes 136 runs inside 57 minutes.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro import (
    DatasetConfig,
    default_workflow,
    generate_clean_clean_task,
    generate_dirty_dataset,
)
from repro.blocking.base import BlockCollection
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core.context import PipelineContext
from repro.datamodel.ground_truth import GroundTruth
from repro.datasets.corruption import CorruptionConfig
from repro.iterative.index import IncrementalIndex
from repro.matching.matchers import ProfileSimilarityMatcher

from tracing import (
    ROOT_SPAN,
    Mirror,
    Tracer,
    layer_sum,
    mirror_blocking,
    mirror_workflow,
    standalone_schedule,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: the seed whose quality floors are frozen below; other seeds only get the
#: determinism checks and the ``f1 > 0.5`` sanity floor
BASELINE_SEED = 330
SANITY_FLOOR = 0.5
FILTERING_RATIO = 0.8


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Timed(NamedTuple):
    output: object
    wall: float
    cpu: float


def timed(operation, *arguments) -> Timed:
    cpu = cpu_seconds()
    start = time.perf_counter()
    output = operation(*arguments)
    wall = time.perf_counter() - start
    return Timed(output, wall, cpu_seconds() - cpu)


# ----------------------------------------------------------------------
# quality from the ground-truth side, and digests
# ----------------------------------------------------------------------
def true_pairs(truth: GroundTruth, live: Optional[set] = None) -> Iterator[Tuple[str, str]]:
    """Every matching pair of ``truth`` (restricted to ``live`` identifiers)."""
    for cluster in truth.clusters:
        members = sorted(m for m in cluster if live is None or m in live)
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                yield first, second


def _quality(found: int, declared: int, total: int) -> Dict[str, float]:
    precision = found / declared if declared else 0.0
    recall = found / total if total else 0.0
    both = precision + recall
    return {
        "precision": precision,
        "recall": recall,
        "f1": 2 * precision * recall / both if both else 0.0,
    }


def cluster_quality(
    clusters: Iterable[Iterable[str]], truth: GroundTruth, live: Optional[set] = None
) -> Dict[str, float]:
    """Pair-level precision / recall / F1 of ``clusters``: one lookup per true pair.

    Linear in the ground truth and the clusters; the declared pairs are never
    enumerated (their number is the closed form over cluster sizes).
    """
    cluster_of: Dict[str, int] = {}
    declared = 0
    for index, cluster in enumerate(clusters):
        members = list(cluster)
        declared += len(members) * (len(members) - 1) // 2
        for member in members:
            cluster_of[member] = index
    total = found = 0
    for first, second in true_pairs(truth, live):
        total += 1
        index = cluster_of.get(first)
        found += index is not None and index == cluster_of.get(second)
    return _quality(found, declared, total)


def block_quality(blocks: BlockCollection, truth: GroundTruth) -> Dict[str, float]:
    """Pairs completeness of ``blocks``: does each true pair share a block?

    ``evaluate_blocks`` materialises every distinct candidate pair (27.7 s
    for 12.6M pairs, more than the workload); this asks from the
    ground-truth side instead.  Precision is true pairs covered over the
    aggregate comparison cardinality (redundant comparisons counted, as the
    cleaning passes count them).
    """
    placed = blocks.entity_index()
    total = found = 0
    for first, second in true_pairs(truth):
        total += 1
        blocks_of_first = placed.get(first)
        blocks_of_second = placed.get(second)
        if blocks_of_first and blocks_of_second:
            found += not set(blocks_of_first).isdisjoint(blocks_of_second)
    return _quality(found, blocks.total_comparisons(), total)


def columns_completeness(columns, context: PipelineContext, truth: GroundTruth) -> float:
    """Share of true pairs among the retained comparison columns."""
    width = context.num_descriptions
    retained = {
        (f * width + s) if f < s else (s * width + f)
        for f, s in zip(columns.first, columns.second)
    }
    total = found = 0
    for first, second in true_pairs(truth):
        total += 1
        f, s = context.ordinal(first), context.ordinal(second)
        found += ((f * width + s) if f < s else (s * width + f)) in retained
    return found / total if total else 0.0


def _digest(lines: Iterable[str]) -> str:
    return hashlib.sha256("\x1e".join(sorted(lines)).encode("utf-8")).hexdigest()


def cluster_digest(clusters: Iterable[Iterable[str]]) -> str:
    """Order-independent hash of a clustering."""
    return _digest("\x1f".join(sorted(cluster)) for cluster in clusters)


def block_digest(blocks: BlockCollection) -> str:
    """Order-independent hash of a block collection (keys and members)."""
    return _digest(f"{block.key}\x1f" + "\x1f".join(block.members) for block in blocks)


# ----------------------------------------------------------------------
# workload plumbing
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """What a timed operation receives: generated data, never the seed."""

    data: object
    truth: GroundTruth
    #: the workload's ``sizes(scale)``
    params: Dict[str, object]
    #: incremental_mixed only: the arrival stream and the seed of its
    #: operation mix (which record a resolve, update or remove picks)
    arrivals: Sequence = ()
    mix_seed: int = 0

    @property
    def descriptions(self) -> int:
        return len(self.data)


Check = Tuple[str, bool]


class TraceStep(NamedTuple):
    """One traced repeat."""

    #: per-layer metric name -> value of this repeat
    values: Dict[str, float]
    #: wall of the traced equivalent of the timed operation
    traced_wall: float
    mirror_digest: str
    program_digest: str


@dataclass
class Workload:
    name: str
    entities: int
    domain: str
    #: frozen quality floors at ``BASELINE_SEED``, full scale: the measured
    #: values, cut after four decimals
    floors: Dict[str, float] = field(default_factory=dict)
    #: the quality that must stay above ``SANITY_FLOOR`` at any other seed
    sanity: str = "f1"
    #: processes the timed operation computes on: the speed probe runs on as
    #: many, and the contention guard (wall / CPU per repeat) knows the quiet
    #: value only for one
    processes: int = 1

    @staticmethod
    def scaled(value: int, scale: float) -> int:
        return max(20, int(round(value * scale)))

    def sizes(self, scale: float) -> Dict[str, object]:
        return {"domain": self.domain, "entities": self.scaled(self.entities, scale)}

    def setup(self, seed: int, scale: float) -> Inputs:
        sizes = self.sizes(scale)
        dataset = generate_dirty_dataset(
            DatasetConfig(
                num_entities=sizes["entities"],
                domain=sizes["domain"],
                duplicates_per_entity=sizes.get("duplicates_per_entity", 1.0),
                seed=seed,
            )
        )
        return Inputs(dataset.collection, dataset.ground_truth, sizes)

    def facts(self, output) -> Dict[str, object]:
        """What a traced repeat needs of the untraced output.  The output
        itself is dropped before the traced repeat starts, so both repeats
        run on the same heap (the collector's pace depends on its size)."""
        return {"digest": self.digest(output)}

    def quality_checks(self, quality: Dict[str, float], seed: int, scale: float) -> List[Check]:
        """Frozen floors at the baseline seed, a sanity floor at any other."""
        if scale != 1.0:
            return []
        if seed == BASELINE_SEED:
            return [
                (f"{metric}>={floor}", quality[metric] >= floor)
                for metric, floor in self.floors.items()
            ]
        return [(f"{self.sanity}>{SANITY_FLOOR}", quality[self.sanity] > SANITY_FLOOR)]


def pipeline_values(
    tracer: Tracer, mirror: Mirror, inputs: Inputs, truth_in_run: bool = False
) -> Dict[str, float]:
    """Per-layer values of one mirrored pipeline: span self times plus counts.

    The counts repeat exactly, so they are taken on the first traced repeat
    only and kept in ``tracer.counts``.
    """
    seconds = tracer.seconds(mirror.root)
    values = {
        "workflow.layers_s": layer_sum(seconds),
        "context.intern_s": seconds["context.intern"],
        "blocking.build_s": seconds["blocking.build"],
        "blocking.purge_s": seconds["blocking.purge"],
        "blocking.filter_s": seconds["blocking.filter"],
    }
    for layer in ("metablocking.prune", "text.fit_vectorizer", "progressive.run",
                  "clustering.cluster", "evaluation.score"):
        if layer in seconds:
            values[f"{layer}_s"] = seconds[layer]
    counts = tracer.counts
    if not counts:
        context, blocks = mirror.context, mirror.blocks
        counts["context.vocabulary_size"] = context.vocabulary_size
        counts["context.token_occurrences"] = sum(
            len(context.token_stream(ordinal)) for ordinal in range(context.num_descriptions)
        )
        counts["blocking.blocks"] = len(blocks)
        counts["blocking.comparisons_raw"] = mirror.raw_blocks.total_comparisons()
        counts["blocking.comparisons_clean"] = blocks.total_comparisons()
        counts["blocking.pairs_completeness"] = block_quality(blocks, inputs.truth)["recall"]
        counts["blocking.reduction_ratio"] = (
            1.0 - blocks.total_comparisons() / inputs.data.total_comparisons()
        )
        metablocking = mirror.metablocking
        if metablocking is not None:
            counts["metablocking.graph_edges"] = metablocking.last_graph_edges
            counts["metablocking.retained_edges"] = metablocking.last_retained_edges
            counts["metablocking.retained_ratio"] = (
                metablocking.last_retained_edges / metablocking.last_graph_edges
            )
            counts["metablocking.pairs_completeness"] = columns_completeness(
                mirror.candidates, context, inputs.truth
            )
        progressive = mirror.progressive
        if progressive is not None:
            counts["matching.comparisons"] = progressive.comparisons_executed
            counts["matching.declared_matches"] = len(progressive.declared_matches)
            counts["progressive.matches_per_1k_comparisons"] = (
                1000.0 * len(progressive.declared_matches) / progressive.comparisons_executed
            )
            counts["clustering.clusters"] = len(mirror.clusters)
            if truth_in_run:
                counts["progressive.recall_at_budget"] = progressive.curve.final_recall()
                counts["progressive.auc"] = progressive.curve.auc()
    values.update(counts)
    values["context.tokens_per_s"] = counts["context.token_occurrences"] / values["context.intern_s"]
    if "metablocking.prune_s" in values:
        values["metablocking.edges_per_s"] = (
            counts["metablocking.graph_edges"] / values["metablocking.prune_s"]
        )
    return values


# ----------------------------------------------------------------------
# blocking_web
# ----------------------------------------------------------------------
class BlockingWeb(Workload):
    """The blocking product on its own: intern the collection, build, purge, filter."""

    def run(self, inputs: Inputs) -> BlockCollection:
        context = PipelineContext(inputs.data)
        context.num_descriptions  # forces the interning pass
        engine = BlockingEngine(TokenBlocking(), context=context)
        return engine.run(inputs.data, BlockPurging(), BlockFiltering(ratio=FILTERING_RATIO))

    def digest(self, blocks: BlockCollection) -> str:
        return block_digest(blocks)

    def checks(self, inputs: Inputs, blocks: BlockCollection, seed: int, scale: float):
        quality = block_quality(blocks, inputs.truth)
        return quality, self.quality_checks(quality, seed, scale)

    def trace(self, inputs: Inputs, tracer: Tracer, untraced: Timed) -> TraceStep:
        mirror = mirror_blocking(tracer, inputs.data, FILTERING_RATIO)
        return TraceStep(
            pipeline_values(tracer, mirror, inputs),
            mirror.root["end"] - mirror.root["start"],
            block_digest(mirror.blocks),
            untraced.output["digest"],
        )


# ----------------------------------------------------------------------
# the ERWorkflow.run workloads
# ----------------------------------------------------------------------
@dataclass
class WorkflowWorkload(Workload):
    """``default_workflow(**overrides).run(data[, ground_truth])``."""

    overrides: Dict[str, object] = field(default_factory=dict)
    #: comparison budget per entity (the budget scales with the input)
    budget_per_entity: int = 0
    #: ground truth goes into the run (progressive recall curve)
    truth_in_run: bool = False
    clean_clean: bool = False

    def sizes(self, scale: float) -> Dict[str, object]:
        sizes = super().sizes(scale)
        if self.budget_per_entity:
            sizes["budget"] = self.budget_per_entity * sizes["entities"]
        if self.clean_clean:
            sizes.update(noise="somehow_similar", missing_in_right=0.25)
        return sizes

    def workflow(self, inputs: Inputs, **overrides):
        options = dict(self.overrides, **overrides)
        return default_workflow(budget=inputs.params.get("budget"), **options)

    def setup(self, seed: int, scale: float) -> Inputs:
        if not self.clean_clean:
            return super().setup(seed, scale)
        sizes = self.sizes(scale)
        dataset = generate_clean_clean_task(
            DatasetConfig(
                num_entities=sizes["entities"],
                domain=sizes["domain"],
                noise=CorruptionConfig.somehow_similar(),
                missing_in_right=sizes["missing_in_right"],
                seed=seed,
            )
        )
        return Inputs(dataset.task, dataset.ground_truth, sizes)

    def run(self, inputs: Inputs, **overrides):
        truth = inputs.truth if self.truth_in_run else None
        return self.workflow(inputs, **overrides).run(inputs.data, truth)

    def digest(self, result) -> str:
        return cluster_digest(result.clusters)

    def checks(self, inputs: Inputs, result, seed: int, scale: float):
        quality = cluster_quality(result.clusters, inputs.truth)
        if self.truth_in_run:
            quality["auc"] = result.curve.auc()
            quality["recall_at_budget"] = result.curve.final_recall()
        return quality, self.quality_checks(quality, seed, scale)

    def facts(self, result) -> Dict[str, object]:
        return {
            "digest": self.digest(result),
            "comparisons": result.comparisons_executed,
            "matches": len(result.matches),
        }

    def mirror(self, inputs: Inputs, tracer: Tracer, workers: int = 0) -> Mirror:
        config = self.workflow(inputs).config
        truth = inputs.truth if self.truth_in_run else None
        return mirror_workflow(tracer, inputs.data, config, truth, workers)

    def trace(self, inputs: Inputs, tracer: Tracer, untraced: Timed) -> TraceStep:
        mirror = self.mirror(inputs, tracer)
        scheduled, schedule_s = standalone_schedule(tracer, inputs.data, mirror.candidates)
        values = pipeline_values(tracer, mirror, inputs, self.truth_in_run)
        values["progressive.schedule_s"] = schedule_s
        values["progressive.scheduled_comparisons"] = scheduled
        values["matching.decide_s"] = values["progressive.run_s"] - schedule_s
        values["matching.comparisons_per_s"] = (
            values["matching.comparisons"] / values["matching.decide_s"]
        )
        traced_wall = mirror.root["end"] - mirror.root["start"]
        mirror_digest = cluster_digest(mirror.clusters)
        program = untraced.output
        if self.overrides.get("iterate_merges"):
            # the update phase is private to ERWorkflow: it is measured as the
            # untraced run with iterate_merges on minus the same run with it off
            del mirror  # the run below starts from the heap the untraced run had
            off = timed(lambda: self.run(inputs, iterate_merges=False))
            on, program = program, self.facts(off.output)
            update_s = untraced.wall - off.wall
            values["matching.update_s"] = update_s
            values["matching.update_comparisons"] = on["comparisons"] - program["comparisons"]
            values["matching.update_new_matches"] = on["matches"] - program["matches"]
            values["workflow.layers_s"] += update_s
            traced_wall += update_s
        return TraceStep(values, traced_wall, mirror_digest, program["digest"])


class ParallelWorkload(WorkflowWorkload):
    """``batch_balanced`` with ``num_workers=2``; identity against one serial run."""

    def checks(self, inputs: Inputs, result, seed: int, scale: float):
        from repro.mapreduce import shm

        quality, checks = super().checks(inputs, result, seed, scale)
        reference = self.run(inputs, num_workers=1)
        checks.append(("parallel==serial", self.digest(reference) == self.digest(result)))
        checks.append(("no shard retried or degraded", not result.fault_events))
        checks.append(("no orphaned /dev/shm segment", not shm.orphaned_segments()))
        return quality, checks

    def trace(self, inputs: Inputs, tracer: Tracer, untraced: Timed) -> TraceStep:
        from repro.mapreduce import shm

        serial = timed(self.mirror, inputs, tracer)
        values = pipeline_values(tracer, serial.output, inputs)
        one = tracer.seconds(serial.output.root)
        # the workers are forked from this heap: drop the serial mirror first,
        # so the parallel one forks from what the untraced run forked from
        serial = serial._replace(output=None)
        gc.collect()
        driver_cpu = time.process_time()
        parallel = timed(self.mirror, inputs, tracer, self.overrides["num_workers"])
        driver_cpu = time.process_time() - driver_cpu
        mirror = parallel.output
        two = tracer.seconds(mirror.root)
        blocking = ("blocking.build", "blocking.purge", "blocking.filter")
        faults = mirror.fault_stats.values()
        values.update(
            {
                "mapreduce.engine_open_s": two["mapreduce.engine_open"],
                "mapreduce.intern_s": two["context.intern"],
                "mapreduce.blocking_s": sum(two[name] for name in blocking),
                "mapreduce.metablocking_s": two["metablocking.prune"],
                "mapreduce.matching_s": two["progressive.run"],
                "mapreduce.clustering_s": two["clustering.cluster"],
                "mapreduce.close_s": two["mapreduce.close"],
                "mapreduce.intern_speedup": one["context.intern"] / two["context.intern"],
                "mapreduce.metablocking_speedup": one["metablocking.prune"] / two["metablocking.prune"],
                "mapreduce.matching_speedup": one["progressive.run"] / two["progressive.run"],
                "mapreduce.parallel_speedup": serial.wall / parallel.wall,
                "mapreduce.driver_cpu_s": driver_cpu,
                "mapreduce.children_cpu_s": parallel.cpu - driver_cpu,
                "mapreduce.cpu_inflation": parallel.cpu / serial.cpu,
                "mapreduce.shard_retries": sum(stage.get("retries", 0) for stage in faults),
                "mapreduce.shards_degraded": sum(stage.get("degraded", 0) for stage in faults),
                "mapreduce.shm_orphans": len(shm.orphaned_segments()),
                "workflow.layers_s": layer_sum(two),
            }
        )
        return TraceStep(
            values, parallel.wall, cluster_digest(mirror.clusters), untraced.output["digest"]
        )


# ----------------------------------------------------------------------
# incremental_mixed
# ----------------------------------------------------------------------
@dataclass
class IncrementalOutput:
    live: IncrementalIndex
    restored_clusters: List
    probes: List
    restored_answers: List
    removed: set
    snapshot_bytes: int
    comparisons: int
    #: per-operation latencies in seconds, filled by the traced run only
    latencies: Dict[str, List[float]]
    root: Optional[dict] = None


def percentile(samples: Sequence[float], share: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class IncrementalMixed(Workload):
    """Writes beside reads on one ``IncrementalIndex``, then a snapshot round trip."""

    resolve_every, update_every, remove_every = 10, 50, 100

    def sizes(self, scale: float) -> Dict[str, object]:
        sizes = super().sizes(scale)
        sizes.update(duplicates_per_entity=1.5, restored_resolves=self.scaled(200, scale))
        return sizes

    def setup(self, seed: int, scale: float) -> Inputs:
        inputs = super().setup(seed, scale)
        inputs.arrivals = list(inputs.data)
        inputs.mix_seed = seed
        return inputs

    def run(self, inputs: Inputs, tracer: Optional[Tracer] = None) -> IncrementalOutput:
        """The closed loop, one client.  With a ``tracer`` every operation is
        timed on its own and every phase is a span."""
        clock = time.perf_counter
        latencies: Dict[str, List[float]] = {
            name: [] for name in ("add", "resolve", "update", "remove", "restored_resolve")
        }

        def span(name):
            return tracer.span(name) if tracer is not None else nullcontext()

        def call(kind, operation, argument):
            if tracer is None:
                return operation(argument)
            start = clock()
            result = operation(argument)
            latencies[kind].append(clock() - start)
            return result

        rng = random.Random(inputs.mix_seed)
        arrivals = inputs.arrivals
        live: List = []
        removed: set = set()
        comparisons = 0
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="snapshot-", dir=RESULTS_DIR))
        try:
            with span(ROOT_SPAN) as root:
                index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
                with span("iterative.stream"):
                    for position, description in enumerate(arrivals, start=1):
                        comparisons += call("add", index.add, description).comparisons
                        live.append(description)
                        if position % self.resolve_every == 0:
                            call("resolve", index.resolve, arrivals[rng.randrange(position)])
                        if position % self.update_every == 0:
                            call("update", index.update, live[rng.randrange(len(live))])
                        if position % self.remove_every == 0:
                            victim = rng.randrange(len(live))
                            live[victim], live[-1] = live[-1], live[victim]
                            gone = live.pop().identifier
                            call("remove", index.remove, gone)
                            removed.add(gone)
                with span("snapshot.save"):
                    index.save(directory / "index")
                with span("snapshot.load"):
                    restored = IncrementalIndex.load(directory / "index")
                probes = [
                    arrivals[rng.randrange(len(arrivals))]
                    for _ in range(inputs.params["restored_resolves"])
                ]
                with span("iterative.restored_resolves"):
                    answers = [call("restored_resolve", restored.resolve, p) for p in probes]
            snapshot_bytes = sum(
                path.stat().st_size for path in directory.rglob("*") if path.is_file()
            )
            # the restored index reads its columns through memory maps: take
            # what the checks need before the snapshot directory goes away
            restored_clusters = restored.clusters()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return IncrementalOutput(
            index, restored_clusters, probes, answers, removed, snapshot_bytes,
            comparisons, latencies, root,
        )

    def digest(self, output: IncrementalOutput) -> str:
        return cluster_digest(output.live.clusters())

    def checks(self, inputs: Inputs, output: IncrementalOutput, seed: int, scale: float):
        live_ids = {d.identifier for d in inputs.arrivals} - output.removed
        quality = cluster_quality(output.live.clusters(), inputs.truth, live_ids)
        checks = self.quality_checks(quality, seed, scale)
        checks.append(
            (
                "restored clusters==live clusters",
                cluster_digest(output.restored_clusters) == self.digest(output),
            )
        )
        live_answers = [output.live.resolve(probe) for probe in output.probes]
        checks.append(("restored resolves==live resolves", live_answers == output.restored_answers))
        return quality, checks

    def trace(self, inputs: Inputs, tracer: Tracer, untraced: Timed) -> TraceStep:
        output = self.run(inputs, tracer)
        seconds = tracer.seconds(output.root)
        adds = output.latencies["add"]
        resolves = output.latencies["resolve"]
        decile = max(1, len(adds) // 10)
        ms = 1000.0
        values = {
            "iterative.add_total_s": sum(adds),
            "iterative.add_first_decile_ms": ms * sum(adds[:decile]) / decile,
            "iterative.add_last_decile_ms": ms * sum(adds[-decile:]) / decile,
            "iterative.insert_p50_ms": ms * statistics.median(adds),
            "iterative.insert_p99_ms": ms * percentile(adds, 0.99),
            "iterative.inserts_per_s": len(adds) / sum(adds),
            "iterative.comparisons_per_add": output.comparisons / len(adds),
            "iterative.resolve_total_s": sum(resolves) + sum(output.latencies["restored_resolve"]),
            "iterative.resolve_p50_ms": ms * statistics.median(resolves),
            "iterative.resolve_p95_ms": ms * percentile(resolves, 0.95),
            "iterative.update_p50_ms": ms * statistics.median(output.latencies["update"]),
            "iterative.remove_p50_ms": ms * statistics.median(output.latencies["remove"]),
            "iterative.clusters": output.live.num_clusters,
            "snapshot.save_s": seconds["snapshot.save"],
            "snapshot.load_s": seconds["snapshot.load"],
            "snapshot.bytes_per_record": output.snapshot_bytes / len(output.live),
            "snapshot.first_resolve_ms": ms * output.latencies["restored_resolve"][0],
            "workflow.layers_s": layer_sum(seconds),
        }
        return TraceStep(
            values,
            output.root["end"] - output.root["start"],
            self.digest(output),
            untraced.output["digest"],
        )


# ----------------------------------------------------------------------
# the registry (names are fixed by ISSUE 11; floors frozen at seed 330)
# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        BlockingWeb(
            "blocking_web",
            entities=10000,
            domain="publication",
            floors={"recall": 0.9062, "f1": 0.0287},
            sanity="recall",
        ),
        WorkflowWorkload(
            "batch_balanced",
            entities=3000,
            domain="publication",
            floors={"f1": 0.8552, "recall": 0.7521},
        ),
        WorkflowWorkload(
            "progressive_budget",
            entities=2500,
            domain="person",
            budget_per_entity=16,
            truth_in_run=True,
            floors={"f1": 0.8847, "recall": 0.8066, "auc": 0.7155, "recall_at_budget": 0.7489},
        ),
        WorkflowWorkload(
            "cleanclean_iterate",
            entities=700,
            domain="person",
            overrides={"enable_metablocking": False, "iterate_merges": True},
            clean_clean=True,
            floors={"f1": 0.7087, "recall": 0.5488},
        ),
        IncrementalMixed(
            "incremental_mixed",
            entities=1500,
            domain="person",
            floors={"f1": 0.8460, "recall": 0.7331},
        ),
        ParallelWorkload(
            "batch_parallel2",
            entities=3000,
            domain="publication",
            overrides={"num_workers": 2},
            processes=2,
            floors={"f1": 0.8552, "recall": 0.7521},
        ),
    )
}
