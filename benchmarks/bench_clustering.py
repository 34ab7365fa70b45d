"""E13 -- workflow tail: object clustering+evaluation vs the array engines.

The tail of every run turns declared matches into clusters and scores them
against the ground truth.  Two implementations of the identical tail are
compared on synthetic decision logs shaped like a matching phase's output
(one weighted decision stream, mostly true pairs declared plus noise):

* ``object`` -- the seed formulation: one ``MatchDecision`` object per
  decision, the string-keyed clustering algorithms, pair-*set* evaluation
  (``clusters_to_pairs`` intersected with ``GroundTruth.matching_pairs()``),
  the public reference cluster measures (``closest_cluster_score``,
  ``variation_of_information`` over frozenset partitions) and per-pair
  tuple-set curve bookkeeping;
* ``array`` -- the columnar tail: the same decisions appended to a
  :class:`~repro.datamodel.pairs.DecisionColumns`, clustered by
  ``ClusteringEngine(engine="array")`` (integer union-find / argsort
  passes), scored by the ordinal-coded ``evaluate_matches`` /
  ``evaluate_clusters`` fast paths and an integer-coded curve replay.

Both tails must produce bit-identical clusters (content *and* list order,
for all three algorithms), metrics and progressive-recall curves.  Wall
time and peak allocation are measured in forked children so one side's
peak RSS cannot leak into the other's row -- the same protocol as
``bench_metablocking.py``/``bench_matching.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import sys
import time
import tracemalloc

try:
    import resource
except ImportError:  # pragma: no cover - Windows has no resource module
    resource = None

from benchmarks.conftest import save_table, write_bench_json
from repro.datamodel.ground_truth import GroundTruth
from repro.datamodel.pairs import Comparison, DecisionColumns, OrdinalInterner, pair_code
from repro.evaluation.clusters import (
    _normalise_partition,
    closest_cluster_score,
    evaluate_clusters,
    variation_of_information,
)
from repro.evaluation.curves import ProgressiveRecallCurve
from repro.evaluation.metrics import evaluate_matches
from repro.matching.cluster_engine import ClusteringEngine
from repro.matching.clustering import (
    CenterClustering,
    ClusteringAlgorithm,
    ConnectedComponentsClustering,
    MergeCenterClustering,
)
from repro.matching.matchers import MatchDecision

#: Input sizes (number of real-world entities behind the decision log).  The
#: quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke jobs) only runs
#: the 500-entity input and only asserts that the array tail is not slower;
#: the full run scales to 2000 entities, where the array tail must be at
#: least 3x faster than the object tail.
CLUSTERING_COMPARISON_SIZES = (500, 1000, 2000)
CLUSTERING_QUICK_SIZE = 500

ALGORITHMS = (
    ConnectedComponentsClustering,
    CenterClustering,
    MergeCenterClustering,
)


def _decision_log(num_entities: int, seed: int = 101):
    """(raw decision rows, ground truth, universe) of a synthetic matching run.

    Entities carry 1-3 descriptions; the log declares most true pairs with
    high similarity plus uniform cross-cluster noise with a small
    false-positive rate -- the shape a thresholded matcher emits.
    """
    rng = random.Random(seed)
    clusters = []
    universe = []
    for entity in range(num_entities):
        members = [f"e{entity}:{copy}" for copy in range(rng.randint(1, 3))]
        universe.extend(members)
        clusters.append(members)
    truth = GroundTruth(c for c in clusters if len(c) > 1)

    rows = []  # (first, second, similarity, is_match)
    for members in clusters:
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if rng.random() < 0.9:  # found by matching
                    rows.append(
                        (members[i], members[j], 0.6 + 0.4 * rng.random(), True)
                    )
    for _ in range(12 * num_entities):
        first, second = rng.sample(universe, 2)
        rows.append((first, second, 0.55 * rng.random(), rng.random() < 0.02))
    rng.shuffle(rows)
    return rows, truth, universe


def _curve_object(rows, truth):
    """Per-pair tuple-set curve bookkeeping (the seed runner's shape)."""
    curve = ProgressiveRecallCurve(truth)
    seen = set()
    for first, second, _similarity, is_match in rows:
        is_true = False
        if is_match:
            pair = (first, second) if first < second else (second, first)
            if pair not in seen and truth.are_matches(*pair):
                seen.add(pair)
                is_true = True
        curve.record(None, is_match=is_true)
    return curve


def _curve_array(columns, truth):
    """Integer-coded curve replay over decision columns."""
    curve = ProgressiveRecallCurve(truth)
    cluster_index = truth.cluster_indices(columns.ids)
    seen = set()
    add = seen.add
    for f, s, flag in zip(columns.first, columns.second, columns.is_match):
        is_true = False
        if flag:
            code = pair_code(f, s)
            index = cluster_index[f]
            if code not in seen and index >= 0 and index == cluster_index[s]:
                add(code)
                is_true = True
        curve.record(None, is_match=is_true)
    return curve


def _run_object_tail(rows, truth, universe):
    """The seed tail: decision objects, string union-finds, pair sets."""
    decisions = [
        MatchDecision(Comparison(first, second), similarity, is_match)
        for first, second, similarity, is_match in rows
    ]
    clusters = {
        algorithm.name: algorithm().cluster(decisions) for algorithm in ALGORITHMS
    }
    default = clusters[ConnectedComponentsClustering.name]

    # pair-set matching quality over the default clustering's output
    declared_pairs = ClusteringAlgorithm.clusters_to_pairs(default)
    truth_pairs = truth.matching_pairs()
    correct = len(declared_pairs & truth_pairs)
    matching = {
        "declared": len(declared_pairs),
        "correct": correct,
        "precision": correct / len(declared_pairs) if declared_pairs else 0.0,
        "recall": correct / len(truth_pairs) if truth_pairs else 0.0,
    }

    # reference cluster measures over frozenset partitions
    universe_set = set(universe)
    produced = _normalise_partition(default, universe_set)
    reference = _normalise_partition(truth.clusters, universe_set)
    exact = len(set(produced) & set(reference))
    cluster_quality = {
        "cluster_precision": exact / len(set(produced)) if produced else 0.0,
        "cluster_recall": exact / len(set(reference)) if reference else 0.0,
        "closest": 0.5
        * (
            closest_cluster_score(produced, reference)
            + closest_cluster_score(reference, produced)
        ),
        "vi": variation_of_information(produced, reference, len(universe_set)),
    }
    curve = _curve_object(rows, truth)
    return {
        "clusters": {name: [sorted(c) for c in result] for name, result in clusters.items()},
        "matching": matching,
        "cluster_quality": cluster_quality,
        "curve": curve.history(),
        "auc": curve.auc(),
    }


def _run_array_tail(rows, truth, universe):
    """The columnar tail: decision columns, integer engines, coded metrics."""
    intern = OrdinalInterner()
    columns = DecisionColumns(intern.ids)
    for first, second, similarity, is_match in rows:
        if first > second:
            first, second = second, first
        columns.append(intern(first), intern(second), similarity, is_match)

    clusters = {
        algorithm.name: ClusteringEngine(algorithm(), engine="array").cluster(columns)
        for algorithm in ALGORITHMS
    }
    default = clusters[ConnectedComponentsClustering.name]

    quality = evaluate_matches(columns, truth)
    matching = {
        "declared": quality.num_declared,
        "correct": quality.num_correct,
        "precision": quality.precision,
        "recall": quality.recall,
    }
    produced_quality = evaluate_clusters(default, truth, universe)
    cluster_quality = {
        "cluster_precision": produced_quality.cluster_precision,
        "cluster_recall": produced_quality.cluster_recall,
        "closest": produced_quality.closest_cluster_f1,
        "vi": produced_quality.variation_of_information,
    }
    curve = _curve_array(columns, truth)
    return {
        "clusters": {name: [sorted(c) for c in result] for name, result in clusters.items()},
        "matching": matching,
        "cluster_quality": cluster_quality,
        "curve": curve.history(),
        "auc": curve.auc(),
    }


_TAILS = {"object": _run_object_tail, "array": _run_array_tail}


def _peak_rss_bytes():
    if resource is None:  # e.g. Windows
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux but bytes on macOS
    return maxrss if sys.platform == "darwin" else maxrss * 1024


def _measure_tail(name, rows, truth, universe):
    """One timed + one memory-traced run in the current process."""
    tail = _TAILS[name]
    start = time.perf_counter()
    summary = tail(rows, truth, universe)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    tail(rows, truth, universe)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return seconds, peak, _peak_rss_bytes(), summary


def _measure_in_child(name, rows, truth, universe, conn) -> None:
    try:
        conn.send(_measure_tail(name, rows, truth, universe))
    finally:
        conn.close()


def _run_tail(name, rows, truth, universe):
    """Measure one tail in a forked child so its peak RSS is its own."""
    if not hasattr(os, "fork"):
        return _measure_tail(name, rows, truth, universe)
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_measure_in_child, args=(name, rows, truth, universe, child_conn)
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
        raise RuntimeError(f"clustering measurement subprocess failed for {name!r}")
    return result


def test_engine_old_vs_new(benchmark):
    """Object vs array clustering+evaluation tail: wall, peak alloc, RSS.

    Both tails must produce bit-identical clusters (all three algorithms,
    content and order), matching metrics, cluster measures and progressive
    curves.  The full run requires the array tail to be at least 3x faster
    at 2000 entities; the quick mode (``REPRO_BENCH_QUICK=1``) only
    requires it to be no slower on the small input.
    """
    quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
    sizes = (CLUSTERING_QUICK_SIZE,) if quick else CLUSTERING_COMPARISON_SIZES

    rows_table = []
    speedups = {}
    for num_entities in sizes:
        log, truth, universe = _decision_log(num_entities)
        measured = {}
        for name in _TAILS:
            seconds, peak, rss, summary = _run_tail(name, log, truth, universe)
            measured[name] = (seconds, summary)
            rows_table.append(
                {
                    "entities": num_entities,
                    "tail": name,
                    "decisions": len(log),
                    "declared": summary["matching"]["declared"],
                    "recall": round(summary["matching"]["recall"], 3),
                    "seconds": round(seconds, 3),
                    "peak alloc MB": round(peak / 1e6, 1),
                    "peak RSS MB": round(rss / 1e6, 1) if rss is not None else "n/a",
                }
            )
        reference = measured["object"][1]
        assert measured["array"][1] == reference, "array tail output diverged"
        speedups[num_entities] = measured["object"][0] / max(
            1e-9, measured["array"][0]
        )

    save_table(
        "E13_clustering_evaluation_engines",
        rows_table,
        "workflow tail: clustering + evaluation, object vs array engines",
        notes=(
            "Identical clusters (3 algorithms, content and order), matching metrics, "
            "cluster measures and progressive curves. Speedups (object/array): "
            + ", ".join(f"{n} entities: {s:.2f}x" for n, s in speedups.items())
        ),
    )
    write_bench_json(
        "clustering",
        {
            "workload": "object vs array clustering+evaluation tail",
            "rows": rows_table,
            "speedups": {str(n): s for n, s in speedups.items()},
        },
    )
    benchmark.extra_info["speedups"] = {str(n): round(s, 2) for n, s in speedups.items()}
    # input built outside the timed call: the recorded metric measures the
    # array tail alone, not log generation
    timed_log, timed_truth, timed_universe = _decision_log(sizes[0])
    benchmark.pedantic(
        lambda: _run_array_tail(timed_log, timed_truth, timed_universe),
        rounds=1,
        iterations=1,
    )

    # the array tail must never be slower; at scale it must win clearly
    assert all(speedup >= 1.0 for speedup in speedups.values()), speedups
    if not quick:
        assert speedups[sizes[-1]] >= 3.0, speedups
