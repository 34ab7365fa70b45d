"""Edge cases of the array-backed blocking engine (`repro.blocking.engine`)."""

import pytest

from repro.blocking import (
    Block,
    BlockCollection,
    BlockFiltering,
    BlockPurging,
    BlockingEngine,
    SortedNeighborhoodBlocking,
    TokenBlocking,
)
from repro.blocking.engine import _index_propagate
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription


def _collection(*pairs):
    return EntityCollection(
        [EntityDescription(identifier, {"name": value}) for identifier, value in pairs]
    )


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        # the builder's type is the only selector: there is no engine knob
        with pytest.raises(TypeError):
            BlockingEngine(engine="turbo")

    def test_default_builder_is_token_blocking(self):
        assert isinstance(BlockingEngine().builder, TokenBlocking)

    def test_sorted_neighborhood_runs_on_the_index_engine(self):
        data = _collection(("a", "alan turing"), ("b", "alan hopper"), ("c", "grace hopper"))
        engine = BlockingEngine(SortedNeighborhoodBlocking(window_size=2))
        blocks = engine.build(data)
        assert engine.last_engine == "index"
        engine.clean(blocks, purging=BlockPurging())
        assert engine.last_engine == "index"

    def test_custom_builder_falls_back_for_build_only(self):
        class CustomBuilder(SortedNeighborhoodBlocking):
            pass

        data = _collection(("a", "alan turing"), ("b", "alan hopper"), ("c", "grace hopper"))
        engine = BlockingEngine(CustomBuilder(window_size=2))
        with pytest.warns(RuntimeWarning):
            blocks = engine.build(data)
        assert engine.last_engine == "oracle"
        # ...but cleaning a foreign builder's blocks still runs on the index
        engine.clean(blocks, purging=BlockPurging())
        assert engine.last_engine == "index"

    def test_run_reports_oracle_when_build_fell_back(self):
        class CustomBuilder(SortedNeighborhoodBlocking):
            pass

        data = _collection(("a", "alan turing"), ("b", "alan hopper"))
        engine = BlockingEngine(CustomBuilder(window_size=2))
        with pytest.warns(RuntimeWarning):
            engine.run(data, purging=BlockPurging())
        assert engine.last_engine == "oracle"

    def test_clean_without_steps_reports_configured_engine(self):
        engine = BlockingEngine()
        blocks = BlockCollection([Block("t", members=["a", "b"])])
        assert engine.clean(blocks) is blocks
        assert engine.last_engine == "index"

    def test_mixed_native_and_custom_cleaners_report_oracle(self):
        class CustomFiltering(BlockFiltering):
            pass

        data = _collection(("a", "alan turing"), ("b", "alan hopper"), ("c", "grace hopper"))
        engine = BlockingEngine()
        blocks = engine.build(data)
        cleaned = engine.clean(blocks, purging=BlockPurging(), filtering=CustomFiltering(0.8))
        assert engine.last_engine == "oracle"
        oracle = CustomFiltering(0.8).process(BlockPurging().process(blocks))
        assert [b.key for b in cleaned] == [b.key for b in oracle]


class TestEmptyInputs:
    def test_empty_dirty_collection(self):
        engine = BlockingEngine()
        assert len(engine.build(EntityCollection())) == 0

    def test_empty_clean_clean_task(self):
        task = CleanCleanTask(EntityCollection(name="l"), EntityCollection(name="r"))
        engine = BlockingEngine()
        assert len(engine.build(task)) == 0

    def test_cleaning_empty_collection(self):
        engine = BlockingEngine()
        empty = BlockCollection(name="empty")
        for kwargs in (
            {"purging": BlockPurging()},
            {"filtering": BlockFiltering(0.5)},
            {"propagate": True},
        ):
            assert len(engine.clean(empty, **kwargs)) == 0


class TestIndexCleaningDetails:
    def test_fixed_purging_threshold_matches_oracle(self):
        blocks = BlockCollection(
            [
                Block("small", members=["a", "b"]),
                Block("large", members=[f"x{i}" for i in range(10)]),
            ]
        )
        purging = BlockPurging(max_comparisons=5)
        engine = BlockingEngine()
        assert [b.key for b in engine.clean(blocks, purging=purging)] == [
            b.key for b in purging.process(blocks)
        ]

    def test_filtering_always_keeps_at_least_one_block_per_entity(self):
        blocks = BlockCollection(
            [
                Block("only", members=["a", "b"]),
                Block("big", members=["a", "b", "c", "d", "e"]),
            ]
        )
        engine = BlockingEngine()
        filtered = engine.clean(blocks, filtering=BlockFiltering(0.1))
        assert "a" in filtered.placed_identifiers()

    def test_propagation_first_block_wins_orientation(self):
        blocks = BlockCollection(
            [
                Block("first", left_members=["l1"], right_members=["r1"]),
                Block("second", left_members=["r1"], right_members=["l1"]),
            ]
        )
        propagated = _index_propagate(blocks)
        assert len(propagated) == 1
        block = propagated[0]
        assert block.left_members == ("l1",)
        assert block.right_members == ("r1",)

    def test_propagation_self_pair_raises_like_the_oracle(self):
        blocks = BlockCollection(
            [Block("bad", left_members=["dup", "l2"], right_members=["dup"])]
        )
        with pytest.raises(ValueError, match="two distinct descriptions"):
            _index_propagate(blocks)


class TestPairFastPaths:
    def test_pair_equivalent_to_constructor(self):
        fast = Block.pair("pair:a|b", "a", "b")
        slow = Block("pair:a|b", members=["a", "b"])
        assert fast.key == slow.key
        assert fast.members == slow.members
        assert not fast.is_bilateral
        assert fast.num_comparisons() == 1

    def test_bilateral_pair_equivalent_to_constructor(self):
        fast = Block.bilateral_pair("pair:a|b", "a", "b")
        slow = Block("pair:a|b", left_members=["a"], right_members=["b"])
        assert fast.key == slow.key
        assert fast.left_members == slow.left_members
        assert fast.right_members == slow.right_members
        assert fast.is_bilateral
        assert fast.num_comparisons() == 1


class TestMemberLimit:
    def test_no_limit_configured(self):
        assert TokenBlocking().member_limit(100) is None

    def test_empty_collection_has_no_limit(self):
        assert TokenBlocking(max_block_fraction=0.5).member_limit(0) is None

    def test_floating_point_truncation_fixed(self):
        # 0.3 * 10 == 2.999...96 in binary floating point; the old int()
        # truncation yielded 2 where the intended bound is 3
        assert TokenBlocking(max_block_fraction=0.3).member_limit(10) == 3

    def test_limit_never_below_two(self):
        assert TokenBlocking(max_block_fraction=0.01).member_limit(2) == 2
        assert TokenBlocking(max_block_fraction=0.01).member_limit(3) == 2

    def test_full_fraction_keeps_everything(self):
        assert TokenBlocking(max_block_fraction=1.0).member_limit(3) == 3
