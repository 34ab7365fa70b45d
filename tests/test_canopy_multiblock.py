"""Tests for canopy clustering blocking and multidimensional blocking."""

import pytest

from repro.blocking.base import Block, BlockBuilder, BlockCollection
from repro.blocking.canopy import CanopyClusteringBlocking
from repro.blocking.multiblock import MultidimensionalBlocking
from repro.blocking.standard import QGramsBlocking
from repro.blocking.token_blocking import TokenBlocking
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.evaluation.metrics import evaluate_blocks


def make_collection():
    return EntityCollection(
        [
            EntityDescription("a1", {"name": "alan mathison turing", "city": "london"}),
            EntityDescription("a2", {"name": "alan turing", "city": "london"}),
            EntityDescription("b1", {"name": "grace brewster hopper", "city": "new york"}),
            EntityDescription("b2", {"name": "grace hopper", "city": "new york"}),
            EntityDescription("c1", {"name": "ada lovelace", "city": "london"}),
        ]
    )


class TestCanopy:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CanopyClusteringBlocking(loose_threshold=0.7, tight_threshold=0.3)

    def test_similar_descriptions_share_a_canopy(self):
        blocks = CanopyClusteringBlocking(loose_threshold=0.3, tight_threshold=0.8, seed=1).build(
            make_collection()
        )
        pairs = blocks.distinct_pairs()
        assert ("a1", "a2") in pairs
        assert ("b1", "b2") in pairs

    def test_canopies_are_deterministic_given_seed(self):
        first = CanopyClusteringBlocking(seed=3).build(make_collection())
        second = CanopyClusteringBlocking(seed=3).build(make_collection())
        assert first.distinct_pairs() == second.distinct_pairs()

    def test_reasonable_quality_on_generated_data(self, small_dirty_dataset):
        blocks = CanopyClusteringBlocking(loose_threshold=0.2, tight_threshold=0.7).build(
            small_dirty_dataset.collection
        )
        quality = evaluate_blocks(blocks, small_dirty_dataset.ground_truth, small_dirty_dataset.collection)
        assert quality.pair_completeness > 0.7
        assert quality.reduction_ratio > 0.8


class TestMultidimensional:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultidimensionalBlocking([])
        with pytest.raises(ValueError):
            MultidimensionalBlocking([TokenBlocking()], min_shared_dimensions=2)
        with pytest.raises(ValueError):
            MultidimensionalBlocking([TokenBlocking()], min_shared_dimensions=0)

    def test_aggregation_requires_co_occurrence_in_enough_dimensions(self):
        collection = make_collection()
        dimensions = [TokenBlocking(), QGramsBlocking(q=3)]
        union = MultidimensionalBlocking(dimensions, min_shared_dimensions=1).build(collection)
        intersection = MultidimensionalBlocking(dimensions, min_shared_dimensions=2).build(collection)
        assert intersection.num_distinct_comparisons() <= union.num_distinct_comparisons()
        assert ("a1", "a2") in intersection.distinct_pairs()

    def test_per_dimension_blocks_are_recorded(self):
        builder = MultidimensionalBlocking([TokenBlocking(), QGramsBlocking(q=3)], min_shared_dimensions=1)
        builder.build(make_collection())
        assert len(builder.last_dimension_blocks) == 2

    @pytest.mark.parametrize("min_shared", (1, 2, 3))
    def test_pairs_counted_over_one_table_even_with_foreign_members(self, min_shared):
        """A dimension may hold members the input does not: the dimensions
        still count the same pairs, in canonical pair order."""

        class Fixed(BlockBuilder):
            def __init__(self, blocks):
                self.blocks = blocks

            def build(self, data, context=None):
                return BlockCollection(self.blocks)

        foreign = Fixed([Block("x", members=["zz", "a2", "a1"]), Block("y", members=["c1", "yy"])])
        also = Fixed([Block("w", members=["yy", "c1", "zz"])])
        dimensions = [TokenBlocking(), foreign, also]
        built = MultidimensionalBlocking(dimensions, min_shared).build(make_collection())
        counts = {}
        for blocks in (dimension.build(make_collection()) for dimension in dimensions):
            for pair in blocks.distinct_pairs():
                counts[pair] = counts.get(pair, 0) + 1
        expected = sorted(pair for pair, count in counts.items() if count >= min_shared)
        assert [(block.key, block.members) for block in built] == [
            (f"multi:{first}|{second}", (first, second)) for first, second in expected
        ]
