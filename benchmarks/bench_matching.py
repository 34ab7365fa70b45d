"""E11 -- matching engines: per-pair oracle vs batched columnar execution.

After meta-blocking made candidate generation cheap, the matching phase
dominates the workflow's wall time: the per-pair matchers re-tokenise both
descriptions on every comparison.  This benchmark executes the same
meta-blocked candidate set through ``MatchingEngine("pairwise")`` (the
oracle) and ``MatchingEngine("batch")`` (columnar profile store; ``decide_all``
outputs similarities, so it runs the engine's exact per-pair body over cached
profiles -- the ordinal-pair kernel is timed by ``benchmarks/perf`` as
``matching.decide_s``) and reports old-vs-new wall time and peak allocation, measured in
forked children so the peak RSS of one engine cannot leak into the other's
row -- the same protocol as ``bench_metablocking.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import tracemalloc

try:
    import resource
except ImportError:  # pragma: no cover - Windows has no resource module
    resource = None

import pytest

from benchmarks.conftest import save_table, write_bench_json
from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.matching import MatchingEngine, ProfileSimilarityMatcher
from repro.metablocking import MetaBlocking
from repro.text.vectorizer import TfIdfVectorizer

#: Input sizes of the engine comparison (number of generated entities).  The
#: quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke job) only runs
#: the 500-entity input and only asserts that the batch engine is not slower;
#: the full run scales to 2000 entities, where the batch engine must be at
#: least 3x faster for profile-similarity matching.
ENGINE_COMPARISON_SIZES = (500, 1000, 2000)
ENGINE_QUICK_SIZE = 500

#: Matcher configurations compared (mode -> matcher factory).
MATCHER_MODES = ("set", "tfidf")


def _matching_input(num_entities: int):
    """(collection, retained comparisons) of a meta-blocked dirty dataset."""
    dataset = generate_dirty_dataset(
        DatasetConfig(
            num_entities=num_entities,
            duplicates_per_entity=1.2,
            domain="person",
            seed=101,
        )
    )
    collection = dataset.collection
    blocks = BlockFiltering(0.8).process(
        BlockPurging().process(TokenBlocking().build(collection))
    )
    comparisons = MetaBlocking("CBS", "WNP").retained_edges(blocks)
    return collection, comparisons


def _make_matcher(mode: str, collection) -> ProfileSimilarityMatcher:
    if mode == "tfidf":
        return ProfileSimilarityMatcher(
            threshold=0.55, vectorizer=TfIdfVectorizer().fit(iter(collection))
        )
    return ProfileSimilarityMatcher(threshold=0.3)


def _peak_rss_bytes():
    if resource is None:  # e.g. Windows
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux but bytes on macOS
    return maxrss if sys.platform == "darwin" else maxrss * 1024


def _measure_engine(engine: str, mode: str, collection, comparisons):
    """One timed + one memory-traced run of ``engine`` in the current process.

    Returns ``(seconds, tracemalloc peak bytes, peak RSS bytes | None,
    (pair, similarity, is_match) decision tuples)``.
    """
    # the vectorizer fit is shared preparation, not engine work: keep it out
    # of the timed window (each engine still builds its own store/profiles)
    matcher = _make_matcher(mode, collection)
    start = time.perf_counter()
    decisions = MatchingEngine(matcher, engine=engine).decide_all(comparisons, collection)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    MatchingEngine(matcher, engine=engine).decide_all(comparisons, collection)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    summary = [(d.comparison.pair, d.similarity, d.is_match) for d in decisions]
    return seconds, peak, _peak_rss_bytes(), summary


def _measure_engine_in_child(engine, mode, collection, comparisons, conn) -> None:
    try:
        conn.send(_measure_engine(engine, mode, collection, comparisons))
    finally:
        conn.close()


def _run_engine(engine: str, mode: str, collection, comparisons):
    """Measure ``engine`` in a forked child so its peak RSS is its own."""
    if not hasattr(os, "fork"):
        return _measure_engine(engine, mode, collection, comparisons)
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_measure_engine_in_child,
        args=(engine, mode, collection, comparisons, child_conn),
    )
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
        raise RuntimeError(f"engine measurement subprocess failed for {engine!r}")
    return result


def test_engine_old_vs_new(benchmark):
    """Old (pairwise) vs new (batch) engine: wall time, peak allocation, RSS.

    Both engines must produce bit-identical decisions.  The full run requires
    the batch engine to be at least 3x faster on the largest input for both
    profile-matcher modes; the quick mode (``REPRO_BENCH_QUICK=1``) only
    requires it to be no slower on the small input.
    """
    quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
    sizes = (ENGINE_QUICK_SIZE,) if quick else ENGINE_COMPARISON_SIZES

    rows = []
    speedups = {}
    for num_entities in sizes:
        collection, comparisons = _matching_input(num_entities)
        for mode in MATCHER_MODES:
            results = {}
            for engine in ("pairwise", "batch"):
                seconds, peak, rss, decisions = _run_engine(
                    engine, mode, collection, comparisons
                )
                results[engine] = (seconds, decisions)
                rows.append(
                    {
                        "entities": num_entities,
                        "matcher": mode,
                        "engine": engine,
                        "comparisons": len(comparisons),
                        "matches": sum(1 for _, _, is_match in decisions if is_match),
                        "seconds": round(seconds, 3),
                        "peak alloc MB": round(peak / 1e6, 1),
                        "peak RSS MB": round(rss / 1e6, 1) if rss is not None else "n/a",
                    }
                )
            # bit-identical decisions, in input order
            assert results["batch"][1] == results["pairwise"][1]
            speedups[(num_entities, mode)] = results["pairwise"][0] / max(
                1e-9, results["batch"][0]
            )

    save_table(
        "E11_matching_engine_comparison",
        rows,
        "matching engines on meta-blocked candidates (CBS+WNP input)",
        notes=(
            "Identical decisions; the batch engine tokenises each description once into "
            "a columnar profile store instead of twice per pair. Speedups: "
            + ", ".join(
                f"{n} entities/{mode}: {s:.2f}x" for (n, mode), s in speedups.items()
            )
        ),
    )
    write_bench_json(
        "matching",
        {
            "workload": "pairwise vs batch engine on meta-blocked candidates",
            "rows": rows,
            "speedups": {f"{n}/{mode}": s for (n, mode), s in speedups.items()},
        },
    )
    benchmark.extra_info["speedups"] = {
        f"{n}/{mode}": round(s, 2) for (n, mode), s in speedups.items()
    }
    # input built outside the timed call: the recorded metric measures the
    # engine alone, not dataset generation + blocking + meta-blocking
    timed_collection, timed_comparisons = _matching_input(sizes[0])
    timed_matcher = _make_matcher("tfidf", timed_collection)
    benchmark.pedantic(
        lambda: MatchingEngine(timed_matcher, engine="batch").decide_all(
            timed_comparisons, timed_collection
        ),
        rounds=1,
        iterations=1,
    )

    # the batch engine must never be slower; at scale it must win clearly
    assert all(speedup >= 1.0 for speedup in speedups.values()), speedups
    if not quick:
        largest = sizes[-1]
        for mode in MATCHER_MODES:
            assert speedups[(largest, mode)] >= 3.0, speedups
