"""Tests for the blocking graph, weighting schemes and pruning schemes."""

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.blocking.token_blocking import TokenBlocking
from repro.evaluation.metrics import evaluate_comparisons
from repro.metablocking.entity_index import EntityIndexEngine
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
from repro.metablocking.weighting import ARCS, CBS, get_weighting_scheme


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


def edge_weights(blocks, weighting):
    """Every edge of the blocking graph with its ``weighting`` weight."""
    engine = EntityIndexEngine(blocks)
    everything = engine.iter_retained(weighting, "CEP", budget=engine.count_edges())
    return {edge.pair: edge.weight for edge in everything}


def pairs(blocks, pruning, weighting="CBS"):
    return {edge.pair for edge in MetaBlocking(weighting, pruning).retained_edges(blocks)}


class TestBlockingGraph:
    def test_structure(self):
        engine = EntityIndexEngine(make_blocks())
        assert engine.num_nodes == 5
        # distinct co-occurring pairs: ab, ac, bc, cd, de
        assert engine.count_edges() == 5
        assert set(edge_weights(make_blocks(), "CBS")) == {
            ("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")
        }

        def neighbours(identifier):
            return {engine.identifier(o) for o in engine.co_blocked([engine.ordinal(identifier)])}

        assert neighbours("a") == {"b", "c"}
        assert neighbours("c") == {"a", "b", "d"}
        assert neighbours("e") == {"d"}

    def test_shared_and_node_blocks(self):
        shared = edge_weights(make_blocks(), "CBS")
        assert shared[("a", "b")] == 2.0
        assert ("a", "e") not in shared
        engine = EntityIndexEngine(make_blocks())
        assert engine.node_blocks_count("a") == 2
        assert engine.node_blocks_count("d") == 2
        assert engine.node_blocks_count("nobody") == 0

    def test_bilateral_blocks_only_create_cross_edges(self):
        blocks = BlockCollection([Block("t", left_members=["l1", "l2"], right_members=["r1"])])
        engine = EntityIndexEngine(blocks)
        assert engine.count_edges() == 2
        l1, l2, r1 = (engine.ordinal(i) for i in ("l1", "l2", "r1"))
        assert engine.compared(l1, r1) and engine.compared(r1, l2)
        assert not engine.compared(l1, l2)
        assert set(edge_weights(blocks, "CBS")) == {("l1", "r1"), ("l2", "r1")}


class TestWeightingSchemes:
    def test_cbs_counts_shared_blocks(self):
        weights = edge_weights(make_blocks(), "CBS")
        assert weights[("a", "b")] == 2.0
        assert weights[("a", "c")] == 1.0

    def test_ecbs_discounts_prolific_nodes(self):
        weights = edge_weights(make_blocks(), "ECBS")
        assert weights[("a", "b")] > 0 and weights[("d", "e")] > 0
        # (a, b) share twice as many blocks, so even after discounting they rank higher
        assert weights[("a", "b")] > weights[("d", "e")]

    def test_js_is_jaccard_of_block_sets(self):
        weights = edge_weights(make_blocks(), "JS")
        assert weights[("a", "b")] == pytest.approx(1.0)  # identical block sets
        assert weights[("a", "c")] == pytest.approx(1 / 3)

    def test_ejs_discounts_high_degree(self):
        weights = edge_weights(make_blocks(), "EJS")
        assert weights[("a", "b")] > weights[("a", "c")]

    def test_arcs_prefers_small_blocks(self):
        weights = edge_weights(make_blocks(), "ARCS")
        # (a,b): blocks t1 (1 comparison) and t2 (3 comparisons) -> 1 + 1/3
        assert weights[("a", "b")] == pytest.approx(1 + 1 / 3)
        assert weights[("d", "e")] == pytest.approx(1.0)

    def test_scheme_lookup(self):
        assert isinstance(get_weighting_scheme("cbs"), CBS)
        assert isinstance(get_weighting_scheme("ARCS"), ARCS)
        with pytest.raises(KeyError):
            get_weighting_scheme("nope")


class TestPruningSchemes:
    def test_wep_keeps_above_average_edges(self):
        retained = pairs(make_blocks(), WeightedEdgePruning())
        assert ("a", "b") in retained  # the heaviest edge always survives
        assert len(retained) < 5

    def test_cep_respects_budget(self):
        retained = MetaBlocking("CBS", CardinalityEdgePruning(budget=2)).weighted_comparisons(
            make_blocks()
        )
        assert len(retained) == 2
        assert retained[0].weight >= retained[1].weight

    def test_cnp_keeps_top_k_per_node(self):
        retained = pairs(make_blocks(), CardinalityNodePruning(k=1))
        # every node keeps its best edge, so every node is covered
        covered = {node for pair in retained for node in pair}
        assert covered == {"a", "b", "c", "d", "e"}

    def test_reciprocal_variants_are_subsets(self):
        blocks = make_blocks()
        assert pairs(blocks, ReciprocalWeightedNodePruning()) <= pairs(blocks, WeightedNodePruning())
        assert pairs(blocks, ReciprocalCardinalityNodePruning(k=1)) <= pairs(
            blocks, CardinalityNodePruning(k=1)
        )

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
        assert pairs(BlockCollection(), WeightedEdgePruning()) == set()
        assert pairs(BlockCollection(), CardinalityEdgePruning()) == set()

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

    def test_last_run_statistics_are_populated(self):
        blocks = make_blocks()
        metablocking = MetaBlocking("CBS", "CEP")
        assert metablocking.last_input_comparisons == 0  # nothing ran yet
        retained = metablocking.retained_edges(blocks)
        assert metablocking.last_engine == "index"
        assert metablocking.last_input_comparisons == blocks.total_comparisons()
        assert metablocking.last_graph_edges == 5
        assert metablocking.last_retained_edges == len(retained)
        # a fresh run on an empty collection resets the statistics
        metablocking.retained_edges(BlockCollection())
        assert metablocking.last_input_comparisons == 0
        assert metablocking.last_graph_edges == 0
        assert metablocking.last_retained_edges == 0

    def test_weighted_comparisons_ordering_is_deterministic_under_ties(self):
        # every pair shares exactly one block -> all CBS weights tie at 1.0
        blocks = BlockCollection(
            [
                Block("t1", members=["d", "c"]),
                Block("t2", members=["b", "a"]),
                Block("t3", members=["c", "b"]),
                Block("t4", members=["a", "d"]),
            ]
        )
        metablocking = MetaBlocking("CBS", "CNP")
        comparisons = metablocking.weighted_comparisons(blocks)
        assert all(c.weight == 1.0 for c in comparisons)
        # with k=1 each node endorses its (weight, first, second)-largest edge:
        # (a,b) is endorsed by neither endpoint and is pruned; the surviving
        # ties are ordered by the canonical pair, stable across runs
        assert [c.pair for c in comparisons] == [
            ("a", "d"),
            ("b", "c"),
            ("c", "d"),
        ]
        rerun = MetaBlocking("CBS", "CNP").weighted_comparisons(blocks)
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
