"""Per-phase bit-identity of the pooled clustering and the driver stages.

``tests/test_parallel_engine.py`` covers the engine's lifecycle and the
scheme sweep of the driver stages; this module sweeps the per-shard
union--find clustering at 1/2/4/8 workers against the sequential engine,
holds the driver stages -- interning, cleaning with propagation, explicit
CEP budgets and CNP ``k`` values, the reciprocal variants and the
meta-blocking weight sort -- to the serial output with a live engine
passed, and pins the ``contiguous_partitions`` edge cases the
balancing layer must survive (all-zero costs, one hot entity dominating the
prefix sums, more workers than items, empty input).
"""

from __future__ import annotations

from array import array

import pytest

from repro.blocking.cleaning import BlockFiltering, BlockPurging, ComparisonPropagation
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core.context import PipelineContext
from repro.datamodel.pairs import DecisionColumns
from repro.mapreduce.balancing import contiguous_partitions
from repro.mapreduce.parallel import ParallelEngine
from repro.matching.cluster_engine import ClusteringEngine
from repro.matching.clustering import (
    CenterClustering,
    ConnectedComponentsClustering,
    MergeCenterClustering,
)
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.pipeline import MetaBlocking
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalCardinalityNodePruning,
)

DATASETS = ("dirty", "clean")
WORKER_COUNTS = (1, 2, 4, 8)


def blocks_snapshot(blocks):
    """Full structural snapshot: key order, member order, bilateral split."""
    return [
        (block.key, tuple(block.members), tuple(block.left_members), tuple(block.right_members))
        for block in blocks
    ]


def edges_snapshot(edge_iterable):
    """Retained edges in stream order, weights compared exactly."""
    return [(edge.first, edge.second, edge.weight) for edge in edge_iterable]


def columns_snapshot(columns):
    """ComparisonColumns as plain tuples (identifier pairs keep the snapshot
    independent of the ordinal space the columns were built over)."""
    ids = columns.ids
    return [
        (ids[f], ids[s], w)
        for f, s, w in zip(columns.first, columns.second, columns.weights)
    ]


@pytest.fixture(scope="module")
def dirty_setup(small_dirty_dataset):
    data = small_dirty_dataset.collection
    context = PipelineContext(data)
    blocks = BlockingEngine(TokenBlocking(max_block_fraction=0.5), context=context).build(data)
    return data, context, blocks


@pytest.fixture(scope="module")
def clean_setup(small_clean_clean_dataset):
    data = small_clean_clean_dataset.task
    context = PipelineContext(data)
    blocks = BlockingEngine(TokenBlocking(max_block_fraction=0.5), context=context).build(data)
    return data, context, blocks


def _setup(request, dataset):
    return request.getfixturevalue(f"{dataset}_setup")


class TestContiguousPartitionsEdgeCases:
    def test_all_zero_costs_cover_everything(self):
        # degenerate balance: every prefix sum is 0, yet the ranges must
        # still be contiguous, ordered and jointly cover all items
        parts = contiguous_partitions([0.0] * 12, 4)
        assert len(parts) == 4
        assert parts[0][0] == 0 and parts[-1][1] == 12
        for (_, stop), (next_start, _) in zip(parts, parts[1:]):
            assert stop == next_start
        assert sum(stop - start for start, stop in parts) == 12

    @pytest.mark.parametrize("hot_position", (0, 25, 49))
    def test_hot_entity_dominating_prefix_sums(self, hot_position):
        # one item carries ~99% of the total cost: the partitioner must not
        # starve every other worker, and must keep ranges contiguous
        costs = [1.0] * 50
        costs[hot_position] = 5000.0
        parts = contiguous_partitions(costs, 4)
        assert len(parts) == 4
        assert parts[0][0] == 0 and parts[-1][1] == 50
        for (_, stop), (next_start, _) in zip(parts, parts[1:]):
            assert stop == next_start
        loads = [sum(costs[start:stop]) for start, stop in parts]
        # the hot item's range gets the hot item and little else; nobody
        # else inherits it, so the max load is the hot cost plus a sliver
        assert max(loads) < 5000.0 + 50.0
        hot_ranges = [1 for start, stop in parts if start <= hot_position < stop]
        assert hot_ranges == [1]

    def test_more_workers_than_items(self):
        parts = contiguous_partitions([3.0, 1.0, 2.0], 8)
        assert len(parts) == 8
        assert parts[0][0] == 0 and parts[-1][1] == 3
        assert sum(stop - start for start, stop in parts) == 3
        assert all(start <= stop for start, stop in parts)

    def test_empty_input_any_worker_count(self):
        for workers in (1, 2, 7):
            parts = contiguous_partitions([], workers)
            assert len(parts) == workers
            assert all(start == stop for start, stop in parts)


class TestParallelInterning:
    """Interning is not a pooled stage: the engine refuses, the context interns itself."""

    def test_already_interned_context_is_refused(self, dirty_setup):
        data, _, _ = dirty_setup
        context = PipelineContext(data)
        with ParallelEngine(num_workers=2) as par:
            assert not par.intern_context(context)  # fresh: left un-interned
            assert not context._interned
            context._intern_all()
            assert not par.intern_context(context)
            assert par.fault_stats == {}

    def test_near_empty_context_falls_back(self, tiny_collection):
        single = PipelineContext(
            type(tiny_collection)(list(tiny_collection)[:1], name="one")
        )
        with ParallelEngine(num_workers=2) as par:
            assert not par.intern_context(single)
        # the refusal leaves the context usable: it interns itself serially
        assert single.num_descriptions == 1


class TestParallelCleaning:
    """Purging, filtering and propagation run on the driver: a live engine
    at any worker count leaves the cleaned blocks as the serial run's."""

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_full_cleaning_pipeline_bit_identical(self, request, dataset, workers):
        _, _, blocks = _setup(request, dataset)
        purging = BlockPurging()
        filtering = BlockFiltering(0.8)
        expected = BlockingEngine().clean(
            blocks, purging=purging, filtering=filtering, propagate=True
        )
        with ParallelEngine(num_workers=workers) as par:
            engine = BlockingEngine(parallel=par)
            got = engine.clean(blocks, purging=purging, filtering=filtering, propagate=True)
            assert par._executor is None
        assert blocks_snapshot(got) == blocks_snapshot(expected)

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("workers", (3, 4))
    def test_cleaning_matches_oracle_cleaners(self, request, dataset, workers):
        # cross-check the column pipeline against the plain object-path
        # cleaners, not just against itself
        _, _, blocks = _setup(request, dataset)
        oracle = ComparisonPropagation().process(
            BlockFiltering(0.8).process(BlockPurging().process(blocks))
        )
        with ParallelEngine(num_workers=workers) as par:
            got = BlockingEngine(parallel=par).clean(
                blocks, purging=BlockPurging(), filtering=BlockFiltering(0.8), propagate=True
            )
        assert blocks_snapshot(got) == blocks_snapshot(oracle)


class TestParallelPruningParameters:
    """Explicit CEP budgets and CNP ``k`` values (the scheme sweep in
    ``test_parallel_engine.py`` uses only the defaults) plus the reciprocal
    variants, with a live engine passed, against the serial run."""

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("budget", (1, 10, 100))
    def test_cep_explicit_budget(self, request, dataset, budget):
        _, _, blocks = _setup(request, dataset)
        metablocking = MetaBlocking("CBS", CardinalityEdgePruning(budget=budget))
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        assert len(expected) <= budget
        with ParallelEngine(num_workers=3) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
            assert par._executor is None
        assert metablocking.last_engine == "index"
        assert got == expected

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("k", (1, 2, 5))
    def test_cnp_explicit_k(self, request, dataset, k):
        _, _, blocks = _setup(request, dataset)
        metablocking = MetaBlocking("JS", CardinalityNodePruning(k=k))
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        with ParallelEngine(num_workers=3) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
            assert par._executor is None
        assert metablocking.last_engine == "index"
        assert got == expected

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize(
        "pruning",
        (ReciprocalCardinalityNodePruning(), ReciprocalCardinalityNodePruning(k=2)),
        ids=("ReciprocalCNP", "ReciprocalCNP(k=2)"),
    )
    def test_reciprocal_variants(self, request, dataset, pruning):
        _, _, blocks = _setup(request, dataset)
        metablocking = MetaBlocking("ECBS", pruning)
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        with ParallelEngine(num_workers=3) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
            assert par._executor is None
        assert metablocking.last_engine == "index"
        assert got == expected

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_count_invariance_with_parameters(self, dirty_setup, workers):
        _, _, blocks = dirty_setup
        metablocking = MetaBlocking("ARCS", CardinalityNodePruning(k=3))
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        with ParallelEngine(num_workers=workers) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
        assert got == expected


class TestParallelRetainedColumns:
    """With a live engine passed, meta-blocking returns the index engine's
    own columns -- same rows, same order, same statistics -- at any worker
    count."""

    PRUNINGS = ("WEP", "CEP", "CNP", "ReciprocalCNP", "WEP", "CNP")
    WEIGHTINGS = ("ARCS", "EJS", "JS", "ARCS", "ECBS", "CBS")

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_columns_bit_identical_at_every_worker_count(self, request, dataset, workers):
        _, _, blocks = _setup(request, dataset)
        with ParallelEngine(num_workers=workers) as par:
            for weighting, pruning in zip(self.WEIGHTINGS, self.PRUNINGS):
                sequential = EntityIndexEngine(blocks)
                expected = edges_snapshot(sequential.iter_retained(weighting, pruning))
                assert expected
                metablocking = MetaBlocking(weighting, pruning)
                got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
                assert metablocking.last_engine == "index"
                assert got == expected
                assert metablocking.last_graph_edges == sequential.last_num_edges
                assert metablocking.last_retained_edges == sequential.last_retained
            assert par._executor is None


class TestParallelWeightSort:
    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sorted_columns_bit_identical(self, request, dataset, workers):
        # CBS produces heavily tied integer weights: a live engine must leave
        # the sequential (weight, rank, rank) tie order exactly as it is
        _, context, blocks = _setup(request, dataset)
        metablocking = MetaBlocking("CBS", "WNP")
        expected = metablocking.weighted_columns(blocks, context=context)
        assert expected.weight_ordered
        with ParallelEngine(num_workers=workers) as par:
            got = metablocking.weighted_columns(blocks, context=context, parallel=par)
        assert got.weight_ordered
        assert list(got.first) == list(expected.first)
        assert list(got.second) == list(expected.second)
        assert list(got.weights) == list(expected.weights)
        assert columns_snapshot(got) == columns_snapshot(expected)

    @pytest.mark.parametrize("weighting", ("ARCS", "EJS"))
    def test_fractional_weights(self, dirty_setup, weighting):
        _, context, blocks = dirty_setup
        metablocking = MetaBlocking(weighting, "CNP")
        expected = columns_snapshot(metablocking.weighted_columns(blocks, context=context))
        with ParallelEngine(num_workers=4) as par:
            got = columns_snapshot(
                metablocking.weighted_columns(blocks, context=context, parallel=par)
            )
        assert got == expected

    def test_matches_object_path_order(self, dirty_setup):
        # the sort must agree with weighted_comparisons (the object oracle
        # of the ordering contract), not merely with itself
        _, context, blocks = dirty_setup
        metablocking = MetaBlocking("CBS", "WNP")
        oracle = [
            (c.first, c.second, c.weight)
            for c in metablocking.weighted_comparisons(blocks)
        ]
        with ParallelEngine(num_workers=3) as par:
            got = columns_snapshot(
                metablocking.weighted_columns(blocks, context=context, parallel=par)
            )
        assert got == oracle


def _sparse_decisions(num_ids: int, stride: int = 7) -> DecisionColumns:
    """Synthetic decisions over ``id-0 .. id-(n-1)``: a sparse ring of
    positive links (every ``stride``-th pair) interleaved with negative
    decisions, rows deliberately in non-canonical orientation."""
    ids = [f"id-{i:04d}" for i in range(num_ids)]
    first = array("q")
    second = array("q")
    similarity = array("d")
    is_match = bytearray()
    for i in range(num_ids - 1):
        a, b = i, (i * stride + 1) % num_ids
        if a == b:
            continue
        # store the larger ordinal first: the engine must canonicalise
        first.append(max(a, b))
        second.append(min(a, b))
        similarity.append(1.0 - (i % 10) / 20.0)
        is_match.append(1 if i % 3 else 0)
    return DecisionColumns(ids, first, second, similarity, is_match)


class TestParallelClustering:
    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_connected_components_bit_identical(self, request, dataset, workers):
        # real decisions: every retained meta-blocking edge declared a match
        _, _, blocks = _setup(request, dataset)
        pairs = [
            (edge.first, edge.second)
            for edge in MetaBlocking("CBS", "WNP").iter_retained(blocks)
        ]
        columns = DecisionColumns.from_match_pairs(pairs)
        expected = ClusteringEngine(ConnectedComponentsClustering()).cluster(columns)
        with ParallelEngine(num_workers=workers) as par:
            engine = ClusteringEngine(ConnectedComponentsClustering(), parallel=par)
            got = engine.cluster(columns)
        assert engine.last_engine == "parallel"
        # identical frozensets in the identical (first-assignment) list order
        assert got == expected

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_non_canonical_and_negative_rows(self, workers):
        columns = _sparse_decisions(200)
        serial_engine = ClusteringEngine(ConnectedComponentsClustering())
        expected = serial_engine.cluster(columns)
        oracle = ConnectedComponentsClustering().cluster(columns)
        assert expected == oracle
        with ParallelEngine(num_workers=workers) as par:
            engine = ClusteringEngine(ConnectedComponentsClustering(), parallel=par)
            got = engine.cluster(columns)
        assert engine.last_engine == "parallel"
        assert got == expected

    def test_empty_columns(self):
        columns = DecisionColumns([])
        with ParallelEngine(num_workers=4) as par:
            engine = ClusteringEngine(ConnectedComponentsClustering(), parallel=par)
            got = engine.cluster(columns)
        assert got == []
        # nothing to shard: the pooled path declines and the array engine runs
        assert engine.last_engine == "array"

    @pytest.mark.parametrize(
        "algorithm", (CenterClustering, MergeCenterClustering),
        ids=("center", "merge-center"),
    )
    def test_center_algorithms_ignore_parallel(self, algorithm):
        # the greedy center scans are inherently sequential; a configured
        # pool must be ignored, not crash or change the clusters
        columns = _sparse_decisions(120)
        expected = ClusteringEngine(algorithm()).cluster(columns)
        with ParallelEngine(num_workers=4) as par:
            engine = ClusteringEngine(algorithm(), parallel=par)
            got = engine.cluster(columns)
        assert engine.last_engine == "array"
        assert got == expected
