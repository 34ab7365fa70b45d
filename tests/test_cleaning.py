"""Tests for block purging, block filtering and comparison propagation."""

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.blocking.cleaning import (
    BlockFiltering,
    BlockPurging,
    ComparisonPropagation,
    adaptive_cardinality_threshold,
    clean_blocks,
)
from repro.blocking.token_blocking import TokenBlocking
from repro.evaluation.metrics import evaluate_blocks


def make_skewed_blocks():
    """A few small match-bearing blocks and one huge block."""
    big_block_members = [f"filler{i}" for i in range(40)]
    return BlockCollection(
        [
            Block("small1", members=["a1", "a2"]),
            Block("small2", members=["b1", "b2"]),
            Block("small3", members=["a1", "a2", "b1"]),
            Block("huge", members=big_block_members),
        ]
    )


class TestBlockPurging:
    def test_fixed_threshold_removes_oversized_blocks(self):
        purged = BlockPurging(max_comparisons=10).process(make_skewed_blocks())
        assert all(block.num_comparisons() <= 10 for block in purged)
        assert len(purged) == 3

    def test_adaptive_threshold_drops_dominating_block(self):
        purged = BlockPurging().process(make_skewed_blocks())
        assert all(block.key != "huge" for block in purged)
        # the small, match-bearing blocks survive
        assert {block.key for block in purged} >= {"small1", "small2", "small3"}

    def test_empty_collection(self):
        assert len(BlockPurging().process(BlockCollection())) == 0

    def test_purging_reduces_comparisons_but_keeps_recall_on_real_data(self, small_dirty_dataset):
        blocks = TokenBlocking().build(small_dirty_dataset.collection)
        purged = BlockPurging().process(blocks)
        assert purged.total_comparisons() <= blocks.total_comparisons()
        before = evaluate_blocks(blocks, small_dirty_dataset.ground_truth, small_dirty_dataset.collection)
        after = evaluate_blocks(purged, small_dirty_dataset.ground_truth, small_dirty_dataset.collection)
        assert after.pair_completeness >= before.pair_completeness - 0.1


class TestAdaptiveThreshold:
    """Edge cases of the adaptive purging bound."""

    def test_uniform_cardinalities_purge_nothing(self):
        # a single distinct cardinality has no gap to cut at
        assert adaptive_cardinality_threshold([4, 4, 4, 4], smoothing_factor=2.0) == 4
        blocks = BlockCollection(
            [Block(f"b{i}", members=[f"x{i}", f"y{i}", f"z{i}"]) for i in range(5)]
        )
        assert len(BlockPurging().process(blocks)) == 5

    def test_single_block(self):
        assert adaptive_cardinality_threshold([7], smoothing_factor=2.0) == 7
        blocks = BlockCollection([Block("only", members=["a", "b", "c"])])
        assert len(BlockPurging().process(blocks)) == 1

    def test_empty_cardinalities(self):
        assert adaptive_cardinality_threshold([], smoothing_factor=2.0) == 0

    def test_gap_exactly_at_the_median_boundary_is_ignored(self):
        # median of [1, 3, 3, 3, 9] is 3: the (1 -> 3) gap has ratio 3.0 but
        # its upper value equals the median, so only the upper-tail (3 -> 9)
        # gap counts and the threshold lands on 3
        assert adaptive_cardinality_threshold([1, 3, 3, 3, 9], smoothing_factor=2.0) == 3

    def test_gap_just_above_the_median_counts(self):
        # with median 1 the (1 -> 3) gap is in play; it ties the (3 -> 9)
        # gap at ratio 3.0 and the earlier (lower) gap wins the tie, so the
        # threshold cuts at 1
        assert adaptive_cardinality_threshold([1, 1, 1, 3, 9], smoothing_factor=2.0) == 1

    def test_smooth_distribution_purges_nothing(self):
        # no upper-tail gap reaches the smoothing factor: keep everything
        cardinalities = [2, 3, 4, 6]
        assert adaptive_cardinality_threshold(cardinalities, smoothing_factor=2.0) == 6

    def test_smoothing_factor_boundary(self):
        # a gap ratio exactly equal to the smoothing factor is accepted
        assert adaptive_cardinality_threshold([1, 1, 4, 8], smoothing_factor=2.0) == 4


class TestBlockFiltering:
    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            BlockFiltering(ratio=0.0)
        with pytest.raises(ValueError):
            BlockFiltering(ratio=1.5)

    def test_each_description_keeps_its_smallest_blocks(self):
        blocks = make_skewed_blocks()
        filtered = BlockFiltering(ratio=0.5).process(blocks)
        # 'a1' appears in small1 (1 comparison), small3 (3), huge (780): it keeps ceil(0.5*3)=2
        index = filtered.entity_index()
        assert len(index.get("a1", [])) <= 2
        assert filtered.total_comparisons() < blocks.total_comparisons()

    def test_ratio_one_keeps_everything(self):
        blocks = make_skewed_blocks()
        filtered = BlockFiltering(ratio=1.0).process(blocks)
        assert filtered.total_comparisons() == blocks.total_comparisons()

    def test_empty_collection(self):
        assert len(BlockFiltering().process(BlockCollection())) == 0

    def test_bilateral_blocks_survive_filtering(self):
        blocks = BlockCollection(
            [
                Block("t1", left_members=["l1"], right_members=["r1", "r2"]),
                Block("t2", left_members=["l1", "l2"], right_members=["r1"]),
            ]
        )
        filtered = BlockFiltering(ratio=1.0).process(blocks)
        assert all(block.is_bilateral for block in filtered)


class TestComparisonPropagation:
    def test_eliminates_all_redundancy_without_losing_pairs(self):
        blocks = make_skewed_blocks()
        propagated = ComparisonPropagation().process(blocks)
        assert propagated.num_distinct_comparisons() == blocks.num_distinct_comparisons()
        assert propagated.total_comparisons() == blocks.num_distinct_comparisons()
        assert propagated.redundancy() == pytest.approx(1.0)

    def test_bilateral_blocks_stay_bilateral(self):
        blocks = BlockCollection(
            [
                Block("t", left_members=["l1", "l2"], right_members=["r1"]),
                Block("u", left_members=["l1"], right_members=["r1"]),
            ]
        )
        propagated = ComparisonPropagation().process(blocks)
        assert all(block.is_bilateral for block in propagated)
        assert propagated.num_distinct_comparisons() == 2


def test_clean_blocks_pipeline_combines_steps(small_dirty_dataset):
    blocks = TokenBlocking().build(small_dirty_dataset.collection)
    cleaned = clean_blocks(
        blocks, purging=BlockPurging(), filtering=BlockFiltering(0.6), propagate=True
    )
    assert cleaned.total_comparisons() <= blocks.total_comparisons()
    assert cleaned.redundancy() == pytest.approx(1.0)


def test_clean_blocks_on_clean_clean_input_end_to_end(small_clean_clean_dataset):
    """The full purge -> filter -> propagate pipeline on bilateral blocks."""
    task = small_clean_clean_dataset.task
    blocks = TokenBlocking().build(task)
    filtered = clean_blocks(blocks, purging=BlockPurging(), filtering=BlockFiltering(0.8))
    cleaned = clean_blocks(filtered, propagate=True)
    # every surviving block stays bilateral and every comparison cross-collection
    assert all(block.is_bilateral for block in cleaned)
    for first, second in cleaned.distinct_pairs():
        assert task.is_valid_pair(first, second)
    # propagation removes redundancy without losing a single distinct pair
    assert cleaned.redundancy() == pytest.approx(1.0)
    assert cleaned.distinct_pairs() == filtered.distinct_pairs()
    # the pipeline kept most of the recall of the raw blocks
    before = evaluate_blocks(blocks, small_clean_clean_dataset.ground_truth, task)
    after = evaluate_blocks(cleaned, small_clean_clean_dataset.ground_truth, task)
    assert after.pair_completeness >= before.pair_completeness - 0.1
    assert after.num_comparisons <= before.num_comparisons


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.5, "2", True, None])
def test_purging_smoothing_factor_is_checked_at_construction(factor):
    with pytest.raises(ValueError, match="smoothing_factor must be a finite number >= 1"):
        BlockPurging(smoothing_factor=factor)


@pytest.mark.parametrize("bound", [-3, -1, 2.5, "10", True, float("nan")])
def test_purging_max_comparisons_is_checked_at_construction(bound):
    with pytest.raises(ValueError, match="max_comparisons must be an int >= 0"):
        BlockPurging(max_comparisons=bound)


@pytest.mark.parametrize("ratio", ["0.5", float("nan"), True, None, -0.5])
def test_filtering_ratio_is_checked_at_construction(ratio):
    with pytest.raises(ValueError, match=r"ratio must be a number in \(0, 1\]"):
        BlockFiltering(ratio=ratio)


def test_valid_cleaning_parameters_are_kept():
    purging = BlockPurging(smoothing_factor=1, max_comparisons=0)
    assert (purging.smoothing_factor, purging.max_comparisons) == (1, 0)
    assert BlockFiltering(ratio=1).ratio == 1
