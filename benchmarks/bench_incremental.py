"""BENCH_incremental -- growable incremental index vs object oracle vs batch.

Four measurements over one seeded arrival stream:

* **Sustained inserts.**  The full stream is resolved arrival by arrival on
  the object oracle and on the growable columnar index
  (:class:`~repro.iterative.index.IncrementalIndex`).  Both must produce
  identical clusters and comparison counts; the full run (10k+ records)
  requires the array engine to sustain at least 3x the oracle's insert
  throughput, the quick CI mode only that it is no slower.
* **Query latency.**  Mean ``resolve()`` wall time of read-only probe
  queries against the built index, next to the cost of answering the same
  question by re-running the batch workflow over the accumulated
  collection -- the re-resolution cost an incremental service avoids.
* **Snapshot persistence.**  Wall time of ``save()`` and of
  ``IncrementalIndex.load()``.  Restoring memory-maps the interned columns
  back instead of re-tokenising the history, so the restore must cost less
  than building the same prefix; continuing the stream on the restored
  index must reproduce the straight run exactly.

Wall time and peak allocation are measured in forked children so one
engine's peak RSS cannot leak into another's row -- the same protocol as
``bench_matching.py``.  Every run writes the machine-readable table to
``benchmarks/results/BENCH_incremental.json`` for CI to archive.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
import tracemalloc

try:
    import resource
except ImportError:  # pragma: no cover - Windows has no resource module
    resource = None

from benchmarks.conftest import RESULTS_DIR, save_table
from repro.core.config import WorkflowConfig
from repro.core.workflow import ERWorkflow
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.iterative import IncrementalResolver
from repro.iterative.index import IncrementalIndex
from repro.matching import ProfileSimilarityMatcher

#: The full run streams 10k+ records; the CI smoke jobs
#: (``REPRO_BENCH_QUICK=1``) use a small stream and relax the speedup
#: requirement to "no slower".
FULL_ENTITIES = 4000  # ~10k descriptions at 1.5 duplicates/entity
QUICK_ENTITIES = 150

THRESHOLD = 0.5
PROBE_QUERIES = 25


def _stream(quick: bool):
    entities = QUICK_ENTITIES if quick else FULL_ENTITIES
    dataset = generate_dirty_dataset(
        DatasetConfig(
            num_entities=entities,
            duplicates_per_entity=1.5,
            domain="person",
            seed=107,
        )
    )
    return list(dataset.collection)


def _peak_rss_bytes():
    if resource is None:  # e.g. Windows
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux but bytes on macOS
    return maxrss if sys.platform == "darwin" else maxrss * 1024


def _summary(resolver):
    return {
        "clusters": sorted(tuple(sorted(c)) for c in resolver.clusters()),
        "comparisons": resolver.comparisons_executed,
    }


def _measure_inserts(engine: str, descriptions):
    """Sustained insert throughput of one engine, in this process."""
    resolver = IncrementalResolver(
        ProfileSimilarityMatcher(threshold=THRESHOLD), engine=engine
    )
    start = time.perf_counter()
    resolver.add_all(descriptions)
    seconds = time.perf_counter() - start
    assert resolver.last_engine == engine
    tracemalloc.start()
    repeat = IncrementalResolver(
        ProfileSimilarityMatcher(threshold=THRESHOLD), engine=engine
    )
    repeat.add_all(descriptions)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "seconds": seconds,
        "peak_alloc_bytes": peak,
        "peak_rss_bytes": _peak_rss_bytes(),
        "summary": _summary(resolver),
    }


def _measure_array_service(descriptions):
    """Query latency + snapshot persistence of the array engine."""
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=THRESHOLD))
    build_start = time.perf_counter()
    index.add_all(descriptions)
    build_seconds = time.perf_counter() - build_start

    probes = descriptions[:: max(1, len(descriptions) // PROBE_QUERIES)][:PROBE_QUERIES]
    query_start = time.perf_counter()
    for probe in probes:
        index.resolve(probe)
    query_seconds = (time.perf_counter() - query_start) / len(probes)

    workdir = tempfile.mkdtemp(prefix="bench_incremental_")
    try:
        snapshot_dir = os.path.join(workdir, "snap")
        save_start = time.perf_counter()
        index.save(snapshot_dir)
        save_seconds = time.perf_counter() - save_start
        load_start = time.perf_counter()
        restored = IncrementalIndex.load(snapshot_dir)
        load_seconds = time.perf_counter() - load_start
        snapshot_bytes = sum(
            entry.stat().st_size for entry in os.scandir(snapshot_dir)
        )
        restored_state = _summary_of_index(restored)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a restore must not re-intern the stream: memory-mapping the columns
    # back has to be cheaper than resolving the same records ever was
    assert restored_state == _summary_of_index(index)
    return {
        "build_seconds": build_seconds,
        "query_seconds_mean": query_seconds,
        "probes": len(probes),
        "snapshot_save_seconds": save_seconds,
        "snapshot_load_seconds": load_seconds,
        "snapshot_bytes": snapshot_bytes,
    }


def _summary_of_index(index):
    return {
        "clusters": sorted(tuple(sorted(c)) for c in index.clusters()),
        "comparisons": index.comparisons_executed,
    }


def _measure_batch_reference(descriptions):
    """One batch re-run over the accumulated collection (the avoided cost)."""
    from repro.datamodel.collection import EntityCollection

    collection = EntityCollection(descriptions, name="bench-incremental")
    config = WorkflowConfig(match_threshold=THRESHOLD, use_tfidf=False)
    start = time.perf_counter()
    ERWorkflow(config).run(collection)
    return {"seconds": time.perf_counter() - start}


_MEASUREMENTS = {
    "inserts-object": lambda descriptions: _measure_inserts("object", descriptions),
    "inserts-array": lambda descriptions: _measure_inserts("array", descriptions),
    "array-service": _measure_array_service,
    "batch-reference": _measure_batch_reference,
}


def _measure_in_child(name, descriptions, conn) -> None:
    try:
        conn.send(_MEASUREMENTS[name](descriptions))
    finally:
        conn.close()


def _run_measurement(name: str, descriptions):
    """Run one measurement in a forked child so its peak RSS is its own."""
    if not hasattr(os, "fork"):
        return _MEASUREMENTS[name](descriptions)
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_measure_in_child, args=(name, descriptions, child_conn))
    child.start()
    child_conn.close()
    try:
        result = parent_conn.recv()
    except EOFError:  # child died before sending (e.g. MemoryError)
        result = None
    finally:
        parent_conn.close()
        child.join()
    if result is None or child.exitcode != 0:
        raise RuntimeError(f"incremental measurement subprocess failed for {name!r}")
    return result


def test_incremental_old_vs_new(benchmark):
    """Array index vs object oracle vs batch re-runs, plus snapshot costs.

    Identical clusters and comparison counts always; the full run requires
    >= 3x sustained insert throughput on the array engine and a snapshot
    restore cheaper than the original build, the quick mode only "no
    slower" / "not pathological".
    """
    quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
    descriptions = _stream(quick)

    inserts = {
        engine: _run_measurement(f"inserts-{engine}", descriptions)
        for engine in ("object", "array")
    }
    assert inserts["array"]["summary"] == inserts["object"]["summary"], (
        "engines diverged"
    )
    service = _run_measurement("array-service", descriptions)
    batch = _run_measurement("batch-reference", descriptions)

    throughput = {
        engine: len(descriptions) / max(1e-9, inserts[engine]["seconds"])
        for engine in inserts
    }
    speedup = throughput["array"] / max(1e-9, throughput["object"])

    rows = [
        {
            "measurement": f"inserts ({engine})",
            "records": len(descriptions),
            "seconds": round(inserts[engine]["seconds"], 3),
            "inserts/sec": round(throughput[engine]),
            "peak alloc MB": round(inserts[engine]["peak_alloc_bytes"] / 1e6, 1),
            "peak RSS MB": (
                round(inserts[engine]["peak_rss_bytes"] / 1e6, 1)
                if inserts[engine]["peak_rss_bytes"] is not None
                else "n/a"
            ),
        }
        for engine in ("object", "array")
    ]
    rows.append(
        {
            "measurement": "resolve() query (array)",
            "records": len(descriptions),
            "seconds": round(service["query_seconds_mean"], 6),
            "inserts/sec": "-",
            "peak alloc MB": "-",
            "peak RSS MB": "-",
        }
    )
    rows.append(
        {
            "measurement": "batch workflow re-run",
            "records": len(descriptions),
            "seconds": round(batch["seconds"], 3),
            "inserts/sec": "-",
            "peak alloc MB": "-",
            "peak RSS MB": "-",
        }
    )
    rows.append(
        {
            "measurement": "snapshot save / load",
            "records": len(descriptions),
            "seconds": (
                f"{service['snapshot_save_seconds']:.3f} / "
                f"{service['snapshot_load_seconds']:.3f}"
            ),
            "inserts/sec": "-",
            "peak alloc MB": round(service["snapshot_bytes"] / 1e6, 1),
            "peak RSS MB": "-",
        }
    )

    payload = {
        "experiment": "BENCH_incremental",
        "workload": "seeded dirty arrival stream, ProfileSimilarityMatcher",
        "records": len(descriptions),
        "quick": quick,
        "threshold": THRESHOLD,
        "comparisons": inserts["array"]["summary"]["comparisons"],
        "clusters": len(inserts["array"]["summary"]["clusters"]),
        "insert_seconds": {
            engine: inserts[engine]["seconds"] for engine in inserts
        },
        "inserts_per_second": {
            engine: throughput[engine] for engine in throughput
        },
        "insert_speedup_array_vs_object": speedup,
        "peak_alloc_bytes": {
            engine: inserts[engine]["peak_alloc_bytes"] for engine in inserts
        },
        "peak_rss_bytes": {
            engine: inserts[engine]["peak_rss_bytes"] for engine in inserts
        },
        "resolve_query_seconds_mean": service["query_seconds_mean"],
        "batch_rerun_seconds": batch["seconds"],
        "snapshot_save_seconds": service["snapshot_save_seconds"],
        "snapshot_load_seconds": service["snapshot_load_seconds"],
        "snapshot_bytes": service["snapshot_bytes"],
        "index_build_seconds": service["build_seconds"],
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_incremental.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    save_table(
        "BENCH_incremental",
        rows,
        f"incremental resolution over {len(descriptions)} arrivals",
        notes=(
            "Identical clusters and comparison counts on both engines. "
            f"Sustained insert speedup array/object: {speedup:.2f}x; a resolve() "
            "query answers in microseconds what a batch re-run recomputes from "
            "scratch; restoring a snapshot memory-maps the interned columns back "
            "instead of re-resolving the stream."
        ),
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["records"] = len(descriptions)

    # timed metric: array-engine stream resolution alone
    benchmark.pedantic(
        lambda: IncrementalResolver(
            ProfileSimilarityMatcher(threshold=THRESHOLD)
        ).add_all(descriptions),
        rounds=1,
        iterations=1,
    )

    # restore must cost less than the build it replaces (it re-interns nothing)
    assert service["snapshot_load_seconds"] < service["build_seconds"], payload
    # a single query must be far cheaper than a batch re-run
    assert service["query_seconds_mean"] < batch["seconds"], payload
    if quick:
        assert speedup >= 1.0, payload
    else:
        assert speedup >= 3.0, payload
