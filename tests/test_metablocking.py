"""Tests for the blocking graph, weighting schemes and pruning schemes."""

import math

import pytest
from conftest import graph_metablocking

from repro.blocking.base import Block, BlockCollection
from repro.blocking.token_blocking import TokenBlocking
from repro.evaluation.metrics import evaluate_comparisons
from repro.metablocking.graph import BlockingGraph, WeightedEdge
from repro.metablocking.pipeline import MetaBlocking
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalCardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
    get_pruning_scheme,
)
from repro.metablocking.weighting import ARCS, CBS, ECBS, EJS, JS, get_weighting_scheme


def make_blocks() -> BlockCollection:
    """Small hand-built collection: (a,b) share 2 blocks, (a,c) and (b,c) share 1."""
    return BlockCollection(
        [
            Block("t1", members=["a", "b"]),
            Block("t2", members=["a", "b", "c"]),
            Block("t3", members=["c", "d"]),
            Block("t4", members=["d", "e"]),
        ]
    )



def _metablocking(weighting, pruning, engine):
    if engine == "graph":
        return graph_metablocking(weighting, pruning)
    return MetaBlocking(weighting, pruning)

class TestBlockingGraph:
    def test_structure(self):
        graph = BlockingGraph(make_blocks())
        assert graph.num_nodes == 5
        # distinct co-occurring pairs: ab, ac, bc, cd, de
        assert graph.num_edges == 5
        assert graph.neighbors("a") == {"b", "c"}
        assert graph.neighbors("e") == {"d"}

    def test_shared_and_node_blocks(self):
        graph = BlockingGraph(make_blocks())
        assert graph.num_shared_blocks("a", "b") == 2
        assert graph.num_shared_blocks("b", "a") == 2  # order-insensitive
        assert graph.num_shared_blocks("a", "e") == 0
        assert graph.num_node_blocks("a") == 2
        assert graph.num_node_blocks("d") == 2
        assert graph.node_degree("c") == 3

    def test_bilateral_blocks_only_create_cross_edges(self):
        blocks = BlockCollection([Block("t", left_members=["l1", "l2"], right_members=["r1"])])
        graph = BlockingGraph(blocks)
        assert graph.num_edges == 2
        assert graph.neighbors("l1") == {"r1"}
        assert "l2" not in graph.neighbors("l1")


class TestWeightingSchemes:
    def test_cbs_counts_shared_blocks(self):
        graph = BlockingGraph(make_blocks())
        assert CBS().weight(graph, "a", "b") == 2.0
        assert CBS().weight(graph, "a", "c") == 1.0

    def test_ecbs_discounts_prolific_nodes(self):
        graph = BlockingGraph(make_blocks())
        ecbs = ECBS()
        # same number of shared blocks, but 'c' is in 2 blocks while 'b' is in 2 as well;
        # compare a pair with low-degree nodes against one with the same shared count
        weight_ab = ecbs.weight(graph, "a", "b")
        weight_de = ecbs.weight(graph, "d", "e")
        assert weight_ab > 0 and weight_de > 0
        # (a, b) share twice as many blocks, so even after discounting they rank higher
        assert weight_ab > weight_de

    def test_js_is_jaccard_of_block_sets(self):
        graph = BlockingGraph(make_blocks())
        assert JS().weight(graph, "a", "b") == pytest.approx(1.0)  # identical block sets
        assert JS().weight(graph, "a", "c") == pytest.approx(1 / 3)

    def test_ejs_requires_prepare_and_discounts_high_degree(self):
        graph = BlockingGraph(make_blocks())
        ejs = EJS()
        ejs.prepare(graph)
        weight_ab = ejs.weight(graph, "a", "b")
        weight_ac = ejs.weight(graph, "a", "c")
        assert weight_ab > weight_ac

    def test_arcs_prefers_small_blocks(self):
        graph = BlockingGraph(make_blocks())
        arcs = ARCS()
        # (a,b): blocks t1 (1 comparison) and t2 (3 comparisons) -> 1 + 1/3
        assert arcs.weight(graph, "a", "b") == pytest.approx(1 + 1 / 3)
        assert arcs.weight(graph, "d", "e") == pytest.approx(1.0)

    def test_scheme_lookup(self):
        assert isinstance(get_weighting_scheme("cbs"), CBS)
        assert isinstance(get_weighting_scheme("ARCS"), ARCS)
        with pytest.raises(KeyError):
            get_weighting_scheme("nope")


class TestPruningSchemes:
    def test_wep_keeps_above_average_edges(self):
        graph = BlockingGraph(make_blocks())
        retained = WeightedEdgePruning().prune(graph, CBS())
        pairs = {edge.pair for edge in retained}
        assert ("a", "b") in pairs  # the heaviest edge always survives
        assert len(retained) < graph.num_edges

    def test_cep_respects_budget(self):
        graph = BlockingGraph(make_blocks())
        retained = CardinalityEdgePruning(budget=2).prune(graph, CBS())
        assert len(retained) == 2
        assert retained[0].weight >= retained[1].weight

    def test_cnp_keeps_top_k_per_node(self):
        graph = BlockingGraph(make_blocks())
        retained = CardinalityNodePruning(k=1).prune(graph, CBS())
        pairs = {edge.pair for edge in retained}
        # every node keeps its best edge, so every node is covered
        covered = {node for pair in pairs for node in pair}
        assert covered == {"a", "b", "c", "d", "e"}

    def test_reciprocal_variants_are_subsets(self):
        graph = BlockingGraph(make_blocks())
        wnp = {e.pair for e in WeightedNodePruning().prune(graph, CBS())}
        reciprocal_wnp = {e.pair for e in ReciprocalWeightedNodePruning().prune(graph, CBS())}
        cnp = {e.pair for e in CardinalityNodePruning(k=1).prune(graph, CBS())}
        reciprocal_cnp = {e.pair for e in ReciprocalCardinalityNodePruning(k=1).prune(graph, CBS())}
        assert reciprocal_wnp <= wnp
        assert reciprocal_cnp <= cnp

    @pytest.mark.parametrize(
        "scheme, parameter",
        (
            (CardinalityNodePruning, "k"),
            (ReciprocalCardinalityNodePruning, "k"),
            (CardinalityEdgePruning, "budget"),
        ),
    )
    @pytest.mark.parametrize("value", (2.5, -1, True, "3", float("nan")))
    def test_cardinality_parameters_are_checked_at_construction(self, scheme, parameter, value):
        with pytest.raises(ValueError, match=parameter):
            scheme(**{parameter: value})

    @pytest.mark.parametrize("value", (None, 0, 3))
    def test_cardinality_parameters_accept_none_and_counts(self, value):
        assert CardinalityNodePruning(k=value).k == value
        assert CardinalityEdgePruning(budget=value).budget == value

    def test_empty_graph(self):
        graph = BlockingGraph(BlockCollection())
        assert WeightedEdgePruning().prune(graph, CBS()) == []
        assert CardinalityEdgePruning().prune(graph, CBS()) == []

    def test_pruning_lookup(self):
        assert isinstance(get_pruning_scheme("wep"), WeightedEdgePruning)
        assert isinstance(get_pruning_scheme("ReciprocalCNP"), ReciprocalCardinalityNodePruning)
        with pytest.raises(KeyError):
            get_pruning_scheme("nope")


class TestMetaBlockingPipeline:
    def test_by_name_construction_and_statistics(self):
        blocks = make_blocks()
        metablocking = MetaBlocking("JS", "WEP")
        comparisons = metablocking.weighted_comparisons(blocks)
        assert metablocking.last_graph_edges == 5
        assert metablocking.last_retained_edges == len(comparisons)
        assert all(c.weight is not None for c in comparisons)
        # heaviest first
        weights = [c.weight for c in comparisons]
        assert weights == sorted(weights, reverse=True)

    def test_process_returns_block_per_edge(self):
        blocks = make_blocks()
        restructured = MetaBlocking("CBS", "CEP").process(blocks)
        assert all(block.num_comparisons() == 1 for block in restructured)

    def test_pruning_reduces_comparisons_but_keeps_most_matches(self, small_dirty_dataset):
        blocks = TokenBlocking().build(small_dirty_dataset.collection)
        baseline = blocks.num_distinct_comparisons()
        for weighting in ("CBS", "ARCS"):
            metablocking = MetaBlocking(weighting, "WNP")
            comparisons = metablocking.weighted_comparisons(blocks)
            assert len(comparisons) < baseline
            quality = evaluate_comparisons(
                comparisons, small_dirty_dataset.ground_truth, small_dirty_dataset.collection
            )
            assert quality.pair_completeness >= 0.85

    @pytest.mark.parametrize("engine", ["graph", "index"])
    def test_last_run_statistics_populated_by_both_engines(self, engine):
        blocks = make_blocks()
        metablocking = _metablocking("CBS", "CEP", engine)
        assert metablocking.last_input_comparisons == 0  # nothing ran yet
        retained = metablocking.retained_edges(blocks)
        assert metablocking.last_engine == engine
        assert metablocking.last_input_comparisons == blocks.total_comparisons()
        assert metablocking.last_graph_edges == 5
        assert metablocking.last_retained_edges == len(retained)
        # a fresh run on an empty collection resets the statistics
        metablocking.retained_edges(BlockCollection())
        assert metablocking.last_input_comparisons == 0
        assert metablocking.last_graph_edges == 0
        assert metablocking.last_retained_edges == 0

    @pytest.mark.parametrize("engine", ["graph", "index"])
    def test_weighted_comparisons_ordering_is_deterministic_under_ties(self, engine):
        # every pair shares exactly one block -> all CBS weights tie at 1.0
        blocks = BlockCollection(
            [
                Block("t1", members=["d", "c"]),
                Block("t2", members=["b", "a"]),
                Block("t3", members=["c", "b"]),
                Block("t4", members=["a", "d"]),
            ]
        )
        metablocking = _metablocking("CBS", "CNP", engine)
        comparisons = metablocking.weighted_comparisons(blocks)
        assert all(c.weight == 1.0 for c in comparisons)
        # with k=1 each node endorses its (weight, first, second)-largest edge:
        # (a,b) is endorsed by neither endpoint and is pruned; the surviving
        # ties are ordered by the canonical pair, stable across runs and engines
        assert [c.pair for c in comparisons] == [
            ("a", "d"),
            ("b", "c"),
            ("c", "d"),
        ]
        rerun = _metablocking("CBS", "CNP", engine).weighted_comparisons(blocks)
        assert [c.pair for c in rerun] == [c.pair for c in comparisons]

    def test_node_centric_keeps_more_recall_than_edge_centric(self, small_dirty_dataset):
        blocks = TokenBlocking().build(small_dirty_dataset.collection)
        node_centric = MetaBlocking("CBS", "CNP").weighted_comparisons(blocks)
        edge_centric = MetaBlocking("CBS", "CEP").weighted_comparisons(blocks)
        node_quality = evaluate_comparisons(
            node_centric, small_dirty_dataset.ground_truth, small_dirty_dataset.collection
        )
        edge_quality = evaluate_comparisons(
            edge_centric, small_dirty_dataset.ground_truth, small_dirty_dataset.collection
        )
        assert node_quality.pair_completeness >= edge_quality.pair_completeness
