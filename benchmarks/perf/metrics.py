"""The benchmark's metric tables: one declaration per metric.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json` written
out (``python3 benchmarks/perf/metrics.py`` prints it; the smoke test holds
the two equal).  Its schema has no room for what a per-layer metric is
*expected to move*, so that prediction -- written down before measuring, see
README.md -- lives here beside the metric.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple

RUN_SECONDS = 15

#: workload name -> why it was chosen (names are fixed by ISSUE 11)
WORKLOAD_WHY: Dict[str, str] = {
    "blocking_web": "context + blocking are ~100% of the time, on data where purging does not collapse",
    "batch_balanced": "the mainstream batch path: blocking, meta-blocking and matching all do real work",
    "progressive_budget": "pay-as-you-go ER under a comparison budget: meta-blocking and the schedule dominate",
    "cleanclean_iterate": "matching-dominated clean-clean linkage, meta-blocking bypassed, merge iteration on",
    "incremental_mixed": "adds beside resolves, updates and removes on one index, then a snapshot round trip",
    "batch_parallel2": "the batch_balanced input on 2 worker processes: the only workload where mapreduce works",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metric and workload this metric should move
    moves: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "import of the program + median of three input generations, at reference speed"),
    EndToEnd("run_wall_s", "s", "lower", 0.25,
             "median wall time of the timed operation over the repeats of a run, at reference speed"),
    EndToEnd("run_cpu_s", "s", "lower", 0.25,
             "median user+sys CPU of the process plus reaped children per repeat, at reference speed"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the benchmark process plus its largest child"),
    EndToEnd("descriptions_per_s", "1/s", "higher", 0.25,
             "input descriptions (arrivals on incremental_mixed) per second of run_wall_s"),
    EndToEnd("f1", "ratio", "higher", 0.15,
             "pair-level F1 of the output against the ground truth "
             "(clusters; on blocking_web the co-blocked pairs)"),
    EndToEnd("recall", "ratio", "higher", 0.25,
             "share of true pairs the output keeps together (pairs completeness on "
             "blocking_web, recall inside the budget on progressive_budget)"),
]

_CPU = "run_cpu_s on "
PER_LAYER: List[PerLayer] = [
    # datasets
    PerLayer("datasets.generate_s", "s", "lower", "setup_s on every workload"),
    PerLayer("datasets.descriptions", "count", "higher", "setup_s on every workload"),
    # core.context
    PerLayer("context.intern_s", "s", "lower", _CPU + "blocking_web (2/3 of it); little on batch_balanced"),
    PerLayer("context.vocabulary_size", "count", "lower", _CPU + "blocking_web"),
    PerLayer("context.token_occurrences", "count", "lower", _CPU + "blocking_web"),
    PerLayer("context.tokens_per_s", "1/s", "higher", _CPU + "blocking_web"),
    # blocking
    PerLayer("blocking.build_s", "s", "lower", _CPU + "blocking_web; <=20% elsewhere"),
    PerLayer("blocking.purge_s", "s", "lower", _CPU + "blocking_web"),
    PerLayer("blocking.filter_s", "s", "lower", _CPU + "blocking_web"),
    PerLayer("blocking.blocks", "count", "lower", "recall on blocking_web"),
    PerLayer("blocking.comparisons_raw", "count", "lower", _CPU + "blocking_web"),
    PerLayer("blocking.comparisons_clean", "count", "lower", "f1 on blocking_web; run_cpu_s on batch_balanced"),
    PerLayer("blocking.pairs_completeness", "ratio", "higher", "recall on blocking_web and batch_balanced"),
    PerLayer("blocking.reduction_ratio", "ratio", "higher", "f1 on blocking_web"),
    # metablocking
    PerLayer("metablocking.prune_s", "s", "lower", _CPU + "progressive_budget (most) and batch_balanced (half)"),
    PerLayer("metablocking.graph_edges", "count", "lower", _CPU + "progressive_budget"),
    PerLayer("metablocking.retained_edges", "count", "lower", _CPU + "batch_balanced (matching work)"),
    PerLayer("metablocking.edges_per_s", "1/s", "higher", _CPU + "progressive_budget"),
    PerLayer("metablocking.retained_ratio", "ratio", "lower", _CPU + "batch_balanced"),
    PerLayer("metablocking.pairs_completeness", "ratio", "higher", "recall on batch_balanced and progressive_budget"),
    # text
    PerLayer("text.fit_vectorizer_s", "s", "lower", _CPU + "batch_balanced"),
    # progressive
    PerLayer("progressive.schedule_s", "s", "lower", _CPU + "batch_balanced"),
    PerLayer("progressive.run_s", "s", "lower", _CPU + "batch_balanced and cleanclean_iterate"),
    PerLayer("progressive.scheduled_comparisons", "count", "lower", _CPU + "batch_balanced"),
    PerLayer("progressive.matches_per_1k_comparisons", "ratio", "higher", "recall on progressive_budget"),
    PerLayer("progressive.recall_at_budget", "ratio", "higher", "recall on progressive_budget"),
    PerLayer("progressive.auc", "ratio", "higher", "recall on progressive_budget (quality of the order)"),
    # matching
    PerLayer("matching.decide_s", "s", "lower", _CPU + "cleanclean_iterate and batch_balanced (40%)"),
    PerLayer("matching.comparisons", "count", "lower", _CPU + "batch_balanced"),
    PerLayer("matching.comparisons_per_s", "1/s", "higher", _CPU + "cleanclean_iterate"),
    PerLayer("matching.declared_matches", "count", "higher", "f1 on batch_balanced"),
    PerLayer("matching.update_s", "s", "lower", _CPU + "cleanclean_iterate (most)"),
    PerLayer("matching.update_comparisons", "count", "lower", _CPU + "cleanclean_iterate"),
    PerLayer("matching.update_new_matches", "count", "higher", "f1 on cleanclean_iterate"),
    # matching.cluster_engine
    PerLayer("clustering.cluster_s", "s", "lower", _CPU + "batch_balanced (<1% today; listed so growth shows)"),
    PerLayer("clustering.clusters", "count", "higher", "f1 on batch_balanced"),
    # core.workflow
    PerLayer("workflow.layers_s", "s", "lower", "run_wall_s on batch_balanced"),
    PerLayer("workflow.glue_s", "s", "lower", "run_wall_s on batch_balanced"),
    PerLayer("workflow.trace_overhead_ratio", "ratio", "lower", "run_wall_s on batch_balanced"),
    # evaluation
    PerLayer("evaluation.score_s", "s", "lower", _CPU + "progressive_budget (ground truth is inside the run)"),
    # iterative
    PerLayer("iterative.add_total_s", "s", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("iterative.add_first_decile_ms", "ms", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("iterative.add_last_decile_ms", "ms", "lower", "run_wall_s on incremental_mixed (latency grows with the index)"),
    PerLayer("iterative.insert_p50_ms", "ms", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("iterative.insert_p99_ms", "ms", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("iterative.inserts_per_s", "1/s", "higher", "descriptions_per_s on incremental_mixed"),
    PerLayer("iterative.comparisons_per_add", "ratio", "lower", _CPU + "incremental_mixed"),
    PerLayer("iterative.resolve_total_s", "s", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("iterative.resolve_p50_ms", "ms", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("iterative.resolve_p95_ms", "ms", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("iterative.update_p50_ms", "ms", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("iterative.remove_p50_ms", "ms", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("iterative.clusters", "count", "higher", "f1 on incremental_mixed"),
    # core.snapshot
    PerLayer("snapshot.save_s", "s", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("snapshot.load_s", "s", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("snapshot.bytes_per_record", "ratio", "lower", "run_wall_s on incremental_mixed"),
    PerLayer("snapshot.first_resolve_ms", "ms", "lower", "run_wall_s on incremental_mixed"),
    # mapreduce
    PerLayer("mapreduce.engine_open_s", "s", "lower", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.intern_s", "s", "lower", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.blocking_s", "s", "lower", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.metablocking_s", "s", "lower", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.matching_s", "s", "lower", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.clustering_s", "s", "lower", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.close_s", "s", "lower", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.intern_speedup", "ratio", "higher", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.metablocking_speedup", "ratio", "higher", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.matching_speedup", "ratio", "higher", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.parallel_speedup", "ratio", "higher", "run_wall_s on batch_parallel2"),
    PerLayer("mapreduce.driver_cpu_s", "s", "lower", "run_cpu_s on batch_parallel2 (caps the speedup)"),
    PerLayer("mapreduce.children_cpu_s", "s", "lower", "run_cpu_s on batch_parallel2"),
    PerLayer("mapreduce.cpu_inflation", "ratio", "lower", "run_cpu_s on batch_parallel2"),
    PerLayer("mapreduce.shard_retries", "count", "lower", "run_wall_s on batch_parallel2 (a retry re-runs the shard; also a failed check)"),
    PerLayer("mapreduce.shards_degraded", "count", "lower", "run_wall_s on batch_parallel2 (the driver recomputes serially; also a failed check)"),
    PerLayer("mapreduce.shm_orphans", "count", "lower", "peak_rss_mb on batch_parallel2 (a leaked segment stays mapped; also a failed check)"),
    # host: contention witnesses, they move nothing
    PerLayer("host.wall_over_cpu", "ratio", "lower", "nothing: witness of contention on run_wall_s, every workload"),
    PerLayer("host.loadavg_1m", "ratio", "lower", "nothing: witness of contention on run_wall_s, every workload"),
    PerLayer("host.reference_slowdown", "ratio", "lower", "nothing: the factor every timing was divided by (run_wall_s, every workload)"),
    PerLayer("host.nproc", "count", "higher", "nothing: witness that run_wall_s on batch_parallel2 had >= 2 cores"),
]

PER_LAYER_UNITS: Dict[str, str] = {metric.name: metric.unit for metric in PER_LAYER}
END_TO_END_UNITS: Dict[str, str] = {metric.name: metric.unit for metric in END_TO_END}


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
