"""E10 -- the end-to-end framework of the tutorial's Figure 1.

Runs the full workflow -- blocking, block cleaning, meta-blocking, progressive
scheduling, matching, optional merging-based update phase, clustering -- on a
clean--clean task across two heterogeneous KBs and on a dirty collection, and
reports the per-stage comparison counts together with the final quality.  The
expected shape: each successive stage shrinks the comparison space by a large
factor while the pipeline keeps pair completeness high, and the final matching
F1 is far above what the same matcher achieves on an unscheduled, unpruned
comparison space within the same number of comparisons.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from benchmarks.conftest import save_table, write_bench_json
from repro.core import default_workflow
from repro.core.workflow import ERWorkflow, WorkflowConfig
from repro.datamodel.collection import EntityCollection
from repro.datasets import DatasetConfig
from repro.datasets.generator import iter_descriptions
from repro.evaluation import evaluate_matches
from repro.evaluation.report import WorkflowReport
from repro.matching import ProfileSimilarityMatcher
from repro.progressive import RandomOrderScheduler, run_progressive
from repro.blocking import TokenBlocking

#: Scale points of the streamed perf trajectory.  The quick mode
#: (``REPRO_BENCH_QUICK=1``, CI smoke) stops at 500 entities; the full run
#: streams up to 100k entities (~200k descriptions) through the generator
#: without ever materialising the universe list.
QUICK_SCALE_POINTS = (500,)
FULL_SCALE_POINTS = (2000, 20000, 100000)


def _streamed_collection(num_entities: int) -> EntityCollection:
    config = DatasetConfig(
        num_entities=num_entities, duplicates_per_entity=1.0, domain="person", seed=330
    )
    return EntityCollection(iter_descriptions(config), name=f"stream-{num_entities}")


def _phase_peaks(collection) -> dict:
    """Per-stage tracemalloc peaks of one workflow run (bytes, reset per stage)."""
    peaks: dict = {}
    orig = WorkflowReport.add_stage

    def record(self, name, **details):
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        peaks[name] = peak
        return orig(self, name, **details)

    WorkflowReport.add_stage = record
    tracemalloc.start()
    try:
        ERWorkflow(WorkflowConfig()).run(collection)
    finally:
        WorkflowReport.add_stage = orig
        tracemalloc.stop()
    return peaks


def _stage_details(result) -> list:
    """Per-stage numeric outputs (block, edge, match and cluster counts).

    Engine labels are stripped so the serial and parallel reports compare on
    what they produced, not on which engine produced it.
    """
    return [
        {k: v for k, v in row.items() if k not in ("stage", "seconds")}
        for row in result.report.to_rows()
    ]


def test_end_to_end_parallel_scaling(benchmark):
    """Streamed scale points: per-phase wall/peak-alloc, multi-worker identity.

    The full run (a) streams up to 100k entities through the seeded generator
    and records every workflow phase's wall time and tracemalloc peak, and
    (b) re-runs the first scale point at 1/2/4 workers, asserting identical
    blocks, retained edges, match decisions and clusters at every worker
    count.  On a machine with at least 4 usable cores the 4-worker run must
    be at least 2x faster than the 1-worker run; on smaller machines (and in
    quick mode) bit-identity is the enforced contract.
    """
    quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
    scale_points = QUICK_SCALE_POINTS if quick else FULL_SCALE_POINTS

    phase_rows = []
    for num_entities in scale_points:
        collection = _streamed_collection(num_entities)
        workflow = ERWorkflow(WorkflowConfig())
        start = time.perf_counter()
        result = workflow.run(collection)
        total_seconds = time.perf_counter() - start
        peaks = _phase_peaks(collection)
        for row in result.report.to_rows():
            phase_rows.append(
                {
                    "entities": num_entities,
                    "descriptions": len(collection),
                    "stage": row["stage"],
                    "seconds": row["seconds"],
                    "peak_alloc_bytes": peaks.get(row["stage"]),
                }
            )
        phase_rows.append(
            {
                "entities": num_entities,
                "descriptions": len(collection),
                "stage": "(total)",
                "seconds": total_seconds,
                "peak_alloc_bytes": None,
            }
        )
    write_bench_json(
        "end_to_end",
        {"workload": "streamed dirty workflow, per-phase wall/peak-alloc", "rows": phase_rows},
        section="phases",
    )

    # ---- multi-worker bit-identity (and speedup where cores allow) -------
    parallel_point = scale_points[0]
    collection = _streamed_collection(parallel_point)
    reference = benchmark.pedantic(
        lambda: ERWorkflow(WorkflowConfig()).run(collection), rounds=1, iterations=1
    )
    reference_outputs = (
        [sorted(cluster) for cluster in reference.clusters],
        sorted(reference.matches),
        _stage_details(reference),
    )
    walls = {}
    parallel_rows = []
    for workers in (1, 2, 4):
        start = time.perf_counter()
        result = ERWorkflow(WorkflowConfig(num_workers=workers)).run(collection)
        walls[workers] = time.perf_counter() - start
        outputs = (
            [sorted(cluster) for cluster in result.clusters],
            sorted(result.matches),
            _stage_details(result),
        )
        assert outputs == reference_outputs, f"outputs diverged at num_workers={workers}"
        parallel_rows.append(
            {
                "entities": parallel_point,
                "workers": workers,
                "seconds": walls[workers],
                "identical": True,
            }
        )
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    speedup = walls[1] / max(1e-9, walls[4])
    write_bench_json(
        "end_to_end",
        {
            "workload": "workflow at 1/2/4 workers (identical outputs)",
            "rows": parallel_rows,
            "speedup_1_to_4": speedup,
            "usable_cores": cores,
        },
        section="parallel",
    )
    save_table(
        "E14_end_to_end_scaling",
        [
            {
                "entities": row["entities"],
                "stage": row["stage"],
                "seconds": round(row["seconds"], 3),
                "peak alloc MB": (
                    round(row["peak_alloc_bytes"] / 1e6, 1)
                    if row["peak_alloc_bytes"] is not None
                    else "n/a"
                ),
            }
            for row in phase_rows
        ],
        "streamed end-to-end workflow: per-phase wall time and peak allocation",
        notes=(
            f"Workers sweep at {parallel_point} entities: "
            + ", ".join(f"{w}w {s:.2f}s" for w, s in walls.items())
            + f" (usable cores: {cores}, 1w/4w speedup {speedup:.2f}x)."
        ),
    )
    # the speedup contract only binds where the hardware can honour it
    if not quick and cores >= 4:
        assert speedup >= 2.0, walls


def test_end_to_end_clean_clean(benchmark, heterogeneous_clean_clean):
    task = heterogeneous_clean_clean.task
    truth = heterogeneous_clean_clean.ground_truth

    workflow = default_workflow(match_threshold=0.5)
    result = benchmark.pedantic(lambda: workflow.run(task, truth), rounds=1, iterations=1)

    rows = result.report.to_rows()
    rows.append(
        {
            "stage": "final quality",
            "comparisons": result.comparisons_executed,
            "declared_matches": result.num_matches,
            "precision": result.matching_quality.precision,
            "recall": result.matching_quality.recall,
            "f1": result.matching_quality.f1,
        }
    )
    save_table(
        "E10_end_to_end_clean_clean",
        rows,
        f"end-to-end workflow on two heterogeneous KBs "
        f"({len(task.left)} + {len(task.right)} descriptions, {truth.num_matches()} true links, "
        f"{task.total_comparisons()} exhaustive comparisons)",
        notes="Per-stage report of the Figure-1 pipeline (comparisons shrink at every stage).",
    )
    write_bench_json(
        "end_to_end",
        {"workload": "clean-clean workflow quality", "rows": rows},
        section="clean_clean",
    )
    benchmark.extra_info["rows"] = rows

    assert result.blocking_quality.pair_completeness > 0.9
    assert result.comparisons_executed < 0.05 * task.total_comparisons()
    assert result.matching_quality.f1 > 0.6


def test_end_to_end_dirty_vs_unscheduled_baseline(benchmark, dirty_dataset):
    collection = dirty_dataset.collection
    truth = dirty_dataset.ground_truth

    workflow = default_workflow(match_threshold=0.5)
    result = benchmark.pedantic(lambda: workflow.run(collection, truth), rounds=1, iterations=1)

    # baseline: the same matcher over the raw token-blocking output in random order,
    # stopped after the same number of comparisons the workflow executed
    raw_blocks = TokenBlocking().build(collection)
    baseline = run_progressive(
        RandomOrderScheduler(seed=9),
        ProfileSimilarityMatcher(threshold=0.5),
        collection,
        raw_blocks,
        budget=result.comparisons_executed,
        ground_truth=truth,
    )
    baseline_quality = evaluate_matches(baseline.declared_matches, truth)

    rows = [
        {
            "pipeline": "full workflow (Fig. 1)",
            "comparisons": result.comparisons_executed,
            "precision": result.matching_quality.precision,
            "recall": result.matching_quality.recall,
            "f1": result.matching_quality.f1,
        },
        {
            "pipeline": "same matcher, raw blocks, random order",
            "comparisons": baseline.comparisons_executed,
            "precision": baseline_quality.precision,
            "recall": baseline_quality.recall,
            "f1": baseline_quality.f1,
        },
    ]
    save_table(
        "E10_end_to_end_dirty",
        rows,
        f"full pipeline vs unscheduled baseline at equal comparison counts "
        f"({len(collection)} descriptions, {truth.num_matches()} true matches)",
        notes=(
            "Expected shape: at the same comparison count, the scheduled + pruned pipeline "
            "finds far more matches than the unscheduled baseline."
        ),
    )
    write_bench_json(
        "end_to_end",
        {"workload": "dirty workflow vs unscheduled baseline", "rows": rows},
        section="dirty_vs_baseline",
    )
    benchmark.extra_info["rows"] = rows

    assert result.matching_quality.recall > baseline_quality.recall
    assert result.matching_quality.f1 > baseline_quality.f1
