"""The multi-process engine's scaling curve on the meta-blocking weighting stage.

``test_scaling_smoke`` runs EJS + WNP sequentially and through
:class:`~repro.mapreduce.parallel.ParallelEngine` at 1/2/4/8 workers,
asserts a bit-identical retained-edge stream at every worker count and
writes ``benchmarks/results/BENCH_parallel.json``.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

from benchmarks.conftest import RESULTS_DIR, save_table
from repro.blocking import TokenBlocking
from repro.blocking.engine import BlockingEngine
from repro.core.context import PipelineContext
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.mapreduce import ParallelEngine
from repro.metablocking import MetaBlocking


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_scaling_smoke(benchmark, dirty_dataset):
    """The multi-process engine: bit-identity always, speedup where cores exist.

    Runs the meta-blocking weighting stage (EJS + WNP, the heaviest
    per-entity kernel) sequentially and through
    :class:`~repro.mapreduce.parallel.ParallelEngine` at 1/2/4/8 workers.
    The retained edge stream -- weights and tie order included -- must be
    identical at every scale point; the >= 2x wall-clock requirement at 4
    workers only applies to the full (non-quick) run on a machine with at
    least 4 usable cores, since speedup is physically impossible on fewer.
    Every run writes ``benchmarks/results/BENCH_parallel.json`` so CI can
    archive the curve regardless of the machine it ran on.
    """
    quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
    if quick:
        collection = dirty_dataset.collection
    else:
        collection = generate_dirty_dataset(
            DatasetConfig(num_entities=2000, duplicates_per_entity=1.2, seed=105)
        ).collection
    cores = _available_cores()
    context = PipelineContext(collection)
    blocks = BlockingEngine(
        TokenBlocking(max_block_fraction=0.5), context=context
    ).build(collection)
    metablocking = MetaBlocking("EJS", "WNP")

    def measure(workers):
        """(seconds, driver peak alloc, edge snapshot) of one scale point."""
        if workers == 0:
            stream = lambda: metablocking.iter_retained(blocks)
            run = lambda: [(e.first, e.second, e.weight) for e in stream()]
        else:
            def run():
                with ParallelEngine(num_workers=workers) as par:
                    return [
                        (e.first, e.second, e.weight)
                        for e in metablocking.iter_retained(blocks, parallel=par)
                    ]
        tracemalloc.start()
        started = time.perf_counter()
        edges = run()
        seconds = time.perf_counter() - started
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return seconds, peak, edges

    benchmark.pedantic(lambda: measure(2), rounds=1, iterations=1)

    rows = []
    walls = {}
    expected = None
    for workers in (0, 1, 2, 4, 8):
        seconds, peak, edges = measure(workers)
        if expected is None:
            expected = edges
        else:
            assert edges == expected, f"edge stream diverged at {workers} workers"
        walls[workers] = seconds
        rows.append(
            {
                "workers": workers or "sequential",
                "seconds": round(seconds, 3),
                "peak alloc MB": round(peak / 1e6, 1),
                "speedup vs 1 worker": "-",
            }
        )
    for row, workers in zip(rows, (0, 1, 2, 4, 8)):
        if workers:
            row["speedup vs 1 worker"] = round(walls[1] / max(1e-9, walls[workers]), 2)

    payload = {
        "experiment": "BENCH_parallel",
        "workload": "metablocking EJS+WNP retained-edge stream",
        "entities": len(collection),
        "quick": quick,
        "cores": cores,
        "rows": [
            {
                "workers": workers,
                "seconds": walls[workers],
                "peak_alloc_bytes": int(row["peak alloc MB"] * 1e6),
                "speedup_vs_one_worker": (
                    walls[1] / max(1e-9, walls[workers]) if workers else None
                ),
            }
            for row, workers in zip(rows, (0, 1, 2, 4, 8))
        ],
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_parallel.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    save_table(
        "BENCH_parallel",
        rows,
        f"multi-process meta-blocking weighting ({len(collection)} descriptions, "
        f"{cores} usable cores)",
        notes=(
            "Bit-identical retained edges (weights and tie order) at every worker "
            "count; the sequential row is the in-process index engine."
        ),
    )
    benchmark.extra_info["rows"] = payload["rows"]
    benchmark.extra_info["cores"] = cores

    if not quick and cores >= 4:
        assert walls[1] / walls[4] >= 2.0, (
            f"expected >= 2x at 4 workers on {cores} cores: {walls}"
        )
