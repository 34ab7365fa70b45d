"""The blocking stage (`repro.blocking.engine`) and edge cases of the cleaners."""

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
from repro.blocking.cleaning import ComparisonPropagation, clean_blocks
from repro.core.context import PipelineContext
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription


def snapshot(blocks):
    return [(b.key, b.members, b.left_members, b.right_members) for b in blocks]


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

    def test_the_engine_hands_its_context_to_the_builder(self):
        data = _collection(("a", "alan turing"), ("b", "alan hopper"), ("c", "grace hopper"))
        context = PipelineContext(data)
        blocks = BlockingEngine(context=context).build(data)
        assert blocks._columns.ids is context.ids
        # a context that does not own the data lends nothing
        other = BlockingEngine(context=PipelineContext(_collection(("x", "y")))).build(data)
        assert other._columns.ids is not context.ids
        assert [b.key for b in other] == [b.key for b in blocks]

    def test_overriding_subclass_runs_its_own_build(self):
        class FirstCharBlocking(TokenBlocking):
            def build(self, data, context=None):
                built = super().build(data, context)
                return BlockCollection(
                    [Block(block.key[0], members=block.members) for block in built]
                )

        data = _collection(("a", "alan turing"), ("b", "alan hopper"), ("c", "grace hopper"))
        engine = BlockingEngine(FirstCharBlocking())
        assert [b.key for b in engine.build(data)] == ["a", "h"]
        assert [b.key for b in engine.run(data, purging=BlockPurging())] == ["a", "h"]

    def test_trivial_subclass_gives_the_library_output(self):
        class Readable(SortedNeighborhoodBlocking):
            pass

        data = _collection(("a", "alan turing"), ("b", "alan hopper"), ("c", "grace hopper"))
        library = SortedNeighborhoodBlocking(window_size=2)
        readable = Readable(window_size=2)
        assert snapshot(BlockingEngine(readable).build(data)) == snapshot(library.build(data))

    def test_overriding_cleaner_runs_its_own_process(self):
        class KeepFirstBlock(BlockFiltering):
            def process(self, blocks):
                return BlockCollection(list(super().process(blocks))[:1], name="mine")

        data = _collection(("a", "alan turing"), ("b", "alan hopper"), ("c", "grace hopper"))
        engine = BlockingEngine()
        blocks = engine.build(data)
        cleaned = engine.clean(blocks, purging=BlockPurging(), filtering=KeepFirstBlock(0.8))
        assert cleaned.name == "mine"
        expected = BlockFiltering(0.8).process(BlockPurging().process(blocks))
        assert snapshot(cleaned) == snapshot(expected)[:1]

    def test_trivial_cleaner_subclasses_give_the_library_output(self):
        class Purging(BlockPurging):
            pass

        class Filtering(BlockFiltering):
            pass

        data = _collection(("a", "alan turing"), ("b", "alan hopper"), ("c", "grace hopper"))
        blocks = BlockingEngine().build(data)
        assert snapshot(clean_blocks(blocks, Purging(), Filtering(0.5), True)) == snapshot(
            clean_blocks(blocks, BlockPurging(), BlockFiltering(0.5), True)
        )

    def test_clean_without_steps_returns_the_input(self):
        engine = BlockingEngine()
        blocks = BlockCollection([Block("t", members=["a", "b"])])
        assert engine.clean(blocks) is blocks


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


class TestCleaningDetails:
    def test_fixed_purging_threshold(self):
        blocks = BlockCollection(
            [
                Block("small", members=["a", "b"]),
                Block("large", members=[f"x{i}" for i in range(10)]),
            ]
        )
        purged = BlockingEngine().clean(blocks, purging=BlockPurging(max_comparisons=5))
        assert [b.key for b in purged] == ["small"]

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
        propagated = ComparisonPropagation().process(blocks)
        assert len(propagated) == 1
        block = propagated[0]
        assert block.left_members == ("l1",)
        assert block.right_members == ("r1",)

    def test_propagation_self_pair_raises(self):
        blocks = BlockCollection(
            [Block("bad", left_members=["dup", "l2"], right_members=["dup"])]
        )
        with pytest.raises(ValueError, match="two distinct descriptions"):
            ComparisonPropagation().process(blocks)


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
