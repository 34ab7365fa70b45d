"""Blocks as columns: ``BlockColumns``, its kernels and the ``BlockCollection`` over them.

The column kernels are ``from_postings`` / ``select`` behind build, purging
and filtering, and the block -> entity transpose of ``EntityIndexEngine``.
The references are block-by-block loops kept in this module (token blocking
from ``token_set``, purging, filtering), ``BlockCollection.entity_index`` and
``BlockCollection.distinct_pairs``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.base import Block, BlockCollection
from repro.blocking.canopy import CanopyClusteringBlocking
from repro.blocking.cleaning import (
    BlockFiltering,
    BlockPurging,
    ComparisonPropagation,
    adaptive_cardinality_threshold,
)
from repro.blocking.columns import BlockColumns
from repro.blocking.multiblock import MultidimensionalBlocking
from repro.blocking.similarity_join import SimilarityJoinBlocking
from repro.blocking.engine import BlockingEngine
from repro.blocking.sorted_neighborhood import (
    MultiPassSortedNeighborhoodBlocking,
    sorting_key_from_attributes,
)
from repro.blocking.standard import (
    ExtendedQGramsBlocking,
    QGramsBlocking,
    StandardBlocking,
    SuffixArrayBlocking,
    soundex_key,
)
from repro.blocking.token_blocking import TokenBlocking
from repro.core.context import PipelineContext
from repro.core.workflow import _BLOCKING_FACTORIES, default_workflow
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.datasets.builtin import load_census, load_restaurants
from repro.evaluation.metrics import evaluate_blocks, evaluate_comparisons
from repro.metablocking.entity_index import EntityIndexEngine
from repro.matching.matchers import MatchDecision
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.psnm import ProgressiveBlockScheduler
from repro.progressive.schedulers import candidate_columns
from repro.text.tokenize import token_set


def snapshot(blocks):
    """Key order, member order and the bilateral split of every block."""
    return [
        (block.key, block.members, block.left_members, block.right_members) for block in blocks
    ]


@pytest.fixture
def blocks_constructed():
    """The class of every ``Block`` constructed while the fixture is active.

    Counts at ``Block.__new__``, which the validating constructor and every
    trusted fast path go through.  CPython refuses constructor arguments on a
    type whose assigned ``__new__`` was deleted again, so the fixture leaves a
    pass-through behind instead of deleting its counter.
    """
    created = []

    def counting_new(cls, *args, **kwargs):
        created.append(cls)
        return object.__new__(cls)

    Block.__new__ = staticmethod(counting_new)
    try:
        yield created
    finally:
        Block.__new__ = staticmethod(lambda cls, *args, **kwargs: object.__new__(cls))


DIRTY = BlockCollection(
    [
        Block("small", members=["a", "b"]),
        Block("mid", members=["b", "c", "d"]),
        Block("big", members=["a", "b", "c", "d", "e", "f"]),
    ],
    name="dirty",
)
CLEAN_CLEAN = BlockCollection(
    [
        Block("one", left_members=["l1"], right_members=["r1", "r2"]),
        Block("two", left_members=["l1", "l2"], right_members=["r2"]),
        Block("wide", left_members=["l1", "l2", "l3"], right_members=["r1", "r2", "r3"]),
    ],
    name="clean-clean",
)
MIXED = BlockCollection(list(DIRTY) + list(CLEAN_CLEAN), name="mixed")
COLLECTIONS = {
    "dirty": DIRTY,
    "clean-clean": CLEAN_CLEAN,
    "mixed": MIXED,
    "empty": BlockCollection(name="empty"),
}


# ----------------------------------------------------------------------
# columns <-> collection
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(COLLECTIONS))
    def test_objects_to_columns_and_back(self, name):
        blocks = COLLECTIONS[name]
        columns = BlockColumns.from_collection(blocks)
        assert len(columns) == len(blocks)
        assert columns.total_comparisons() == blocks.total_comparisons()
        assert columns.cardinalities().tolist() == [b.num_comparisons() for b in blocks]
        view = BlockCollection.from_columns(columns, name="view")
        assert len(view) == len(blocks)
        assert view.total_comparisons() == blocks.total_comparisons()
        assert snapshot(view) == snapshot(blocks)

    def test_first_seen_ordinals_and_given_table(self):
        columns = BlockColumns.from_collection(DIRTY)
        assert columns.ids == ["a", "b", "c", "d", "e", "f"]
        table = ["f", "zz", "a"]
        padded = BlockColumns.from_collection(DIRTY, table)
        # the table keeps its ordinals, uncovered members follow it
        assert padded.ids[:3] == table and sorted(padded.ids[3:]) == ["b", "c", "d", "e"]
        assert table == ["f", "zz", "a"]
        assert snapshot(BlockCollection.from_columns(padded)) == snapshot(DIRTY)

    def test_duplicate_identifier_table_is_refused(self):
        with pytest.raises(ValueError, match="duplicate"):
            BlockColumns.from_collection(DIRTY, ["a", "a"])

    def test_backing_is_handed_over_not_reinterned(self, tiny_collection):
        context = PipelineContext(tiny_collection)
        blocks = BlockingEngine(context=context).build(tiny_collection)
        backing = BlockColumns.from_collection(blocks)
        assert backing.ids is context.ids
        assert BlockColumns.from_collection(blocks, context.ids) is backing
        # another table: the backing remapped onto it
        table = list(context.ids)
        other = BlockColumns.from_collection(blocks, table)
        assert other is not backing and other.ids is table
        assert list(other.members) == list(backing.members)
        reversed_table = table[::-1]
        flipped = BlockColumns.from_collection(blocks, reversed_table)
        assert flipped.ids is reversed_table
        assert snapshot(BlockCollection.from_columns(flipped)) == snapshot(blocks)

    def test_a_side_emptied_by_select_drops_the_block(self):
        columns = BlockColumns.from_collection(CLEAN_CLEAN)
        # drop l1 everywhere: "one" loses its whole left side, the others shrink
        flags = np.array([columns.ids[o] != "l1" for o in columns.members])
        kept = BlockCollection.from_columns(columns.select(flags))
        assert snapshot(kept) == [
            ("two", ("l2", "r2"), ("l2",), ("r2",)),
            ("wide", ("l2", "l3", "r1", "r2", "r3"), ("l2", "l3"), ("r1", "r2", "r3")),
        ]

    def test_unilateral_block_left_with_one_member_is_dropped(self):
        columns = BlockColumns.from_collection(DIRTY)
        flags = np.array([columns.ids[o] in ("b", "c") for o in columns.members])
        kept = BlockCollection.from_columns(columns.select(flags))
        assert snapshot(kept) == [("mid", ("b", "c"), (), ()), ("big", ("b", "c"), (), ())]

    def test_purging_everything_leaves_an_empty_view(self):
        purged = BlockingEngine().clean(MIXED, purging=BlockPurging(max_comparisons=0))
        assert len(purged) == 0 and purged.total_comparisons() == 0
        assert list(purged) == []
        assert purged.name == "mixed/purged"
        # and the next pass takes the empty columns as they are
        assert len(BlockingEngine().clean(purged, filtering=BlockFiltering(0.5))) == 0

    @pytest.mark.parametrize("bilateral", (False, True))
    def test_empty_input_builds_empty_columns(self, bilateral):
        data = (
            CleanCleanTask(EntityCollection(name="l"), EntityCollection(name="r"))
            if bilateral
            else EntityCollection()
        )
        blocks = BlockingEngine().run(data, BlockPurging(), BlockFiltering(0.8))
        assert len(blocks) == 0 and list(blocks) == []
        index = EntityIndexEngine(blocks)
        assert index.num_entities == index.num_nodes == index.count_edges() == 0


# ----------------------------------------------------------------------
# the token build, with and without a shared context
# ----------------------------------------------------------------------
class TestTokenBuild:
    @pytest.mark.parametrize("dataset", ("small_dirty_dataset", "small_clean_clean_dataset"))
    def test_private_context_equals_shared_context_equals_oracle(self, request, dataset):
        generated = request.getfixturevalue(dataset)
        data = getattr(generated, "task", None) or generated.collection
        builder = TokenBlocking(max_block_fraction=0.3)
        shared = PipelineContext(data)
        foreign = PipelineContext(EntityCollection([EntityDescription("x", {"a": "b"})]))
        expected = snapshot(builder.build(data, shared))
        assert expected == snapshot(reference_token_blocks(builder, data))
        for context in (None, shared, foreign):
            built = BlockingEngine(builder, context=context).build(data)
            assert snapshot(built) == expected
        # only the context that owns the data lends its ordinals
        columns = BlockColumns.from_collection(
            BlockingEngine(builder, context=shared).build(data)
        )
        assert columns.ids is shared.ids


# ----------------------------------------------------------------------
# purging and filtering on columns equal the oracle cleaners
# ----------------------------------------------------------------------
@st.composite
def block_collections(draw):
    """Random small collections: dirty, clean--clean or mixed, never malformed."""
    left = [f"l{i}" for i in range(draw(st.integers(min_value=2, max_value=7)))]
    right = [f"r{i}" for i in range(draw(st.integers(min_value=1, max_value=7)))]
    blocks = []
    for index in range(draw(st.integers(min_value=1, max_value=9))):
        lefts = draw(st.lists(st.sampled_from(left), min_size=1, max_size=len(left), unique=True))
        rights = draw(
            st.lists(st.sampled_from(right), min_size=1, max_size=len(right), unique=True)
        )
        if draw(st.booleans()):
            blocks.append(Block(f"b{index}", left_members=lefts, right_members=rights))
        else:
            blocks.append(Block(f"b{index}", members=lefts + rights))
    return BlockCollection(blocks)


def reference_purge(blocks, purging):
    """Purging, block by block: keep the blocks at or under the threshold."""
    cardinalities = sorted(block.num_comparisons() for block in blocks)
    threshold = purging.max_comparisons
    if threshold is None:
        threshold = adaptive_cardinality_threshold(cardinalities, purging.smoothing_factor)
    return [block for block in blocks if block.num_comparisons() <= threshold]


def reference_filter(blocks, ratio):
    """Filtering, entity by entity: each description stays in the
    ``ceil(ratio * degree)`` smallest of its blocks (ties by block order)."""
    blocks = list(blocks)
    allowed = {}
    for identifier, indices in BlockCollection(blocks).entity_index().items():
        ranked = sorted(indices, key=lambda i: (blocks[i].num_comparisons(), i))
        allowed[identifier] = set(ranked[: max(1, math.ceil(ratio * len(ranked)))])
    kept = (
        block.restricted_to({m for m in block.members if index in allowed[m]})
        for index, block in enumerate(blocks)
    )
    return [block for block in kept if block is not None]


def reference_token_blocks(builder, data):
    """Token blocking from ``token_set`` per description, one block per key."""
    if isinstance(data, CleanCleanTask):
        sides = (("left", data.left), ("right", data.right))
    else:
        sides = (("all", data),)
    postings = {}
    for side, descriptions in sides:
        for description in descriptions:
            keys = token_set(
                description.values(),
                stop_words=builder.stop_words,
                min_length=builder.min_token_length,
            )
            for key in keys:
                postings.setdefault(key, {}).setdefault(side, []).append(description.identifier)
    limit = builder.member_limit(sum(len(descriptions) for _, descriptions in sides))
    blocks = []
    for key in sorted(postings):
        members = postings[key]
        if limit is not None and sum(map(len, members.values())) > limit:
            continue
        if "all" in members:
            blocks.append(Block(key, members=members["all"]))
        elif "left" in members and "right" in members:
            blocks.append(Block(key, left_members=members["left"], right_members=members["right"]))
    return BlockCollection(blocks)


@given(
    block_collections(),
    st.sampled_from((0.1, 0.34, 0.5, 0.8, 1.0)),
    st.sampled_from((None, 0, 2, 6, 1000)),
    st.sampled_from((1.0, 1.5, 2.0, 4.0)),
)
@settings(max_examples=120, deadline=None)
def test_purge_and_filter_on_columns_equal_the_oracle_cleaners(
    blocks, ratio, max_comparisons, smoothing
):
    purging = BlockPurging(smoothing_factor=smoothing, max_comparisons=max_comparisons)
    filtering = BlockFiltering(ratio)
    expected_purged = snapshot(reference_purge(blocks, purging))
    expected_filtered = snapshot(reference_filter(blocks, ratio))
    expected_both = snapshot(reference_filter(reference_purge(blocks, purging), ratio))
    engine = BlockingEngine()
    purged = engine.clean(blocks, purging=purging)
    assert (len(purged), snapshot(purged)) == (len(expected_purged), expected_purged)
    assert snapshot(engine.clean(blocks, filtering=filtering)) == expected_filtered
    both = engine.clean(blocks, purging=purging, filtering=filtering)
    total = both.total_comparisons()  # from the columns, before any object exists
    assert snapshot(both) == expected_both
    assert total == sum(block.num_comparisons() for block in both)


# ----------------------------------------------------------------------
# EntityIndexEngine.from_columns vs the object constructor
# ----------------------------------------------------------------------
#: every column of the index (one ndarray attribute each) and its dtype
INDEX_ARRAYS = {
    "_blk_ptr": np.int64,
    "_blk_ents": np.int64,
    "_blk_split": np.int64,
    "_recip": np.float64,
    "_ent_ptr": np.int64,
    "_ent_blocks": np.int64,
    "_ent_side": np.int8,
}


def _padded(collection) -> EntityCollection:
    """``collection`` between descriptions no block will contain."""
    size = len(collection)
    return EntityCollection(
        [EntityDescription(f"!unblocked:{i}") for i in range(size // 2)]
        + list(collection)
        + [EntityDescription(f"~unblocked:{i}") for i in range(size - size // 2)]
    )


class TestIndexFromColumns:
    @pytest.mark.parametrize("padded", (False, True))
    @pytest.mark.parametrize("load", (load_census, load_restaurants))
    def test_arrays_equal_the_object_constructors(self, load, padded):
        collection = load().collection
        data = _padded(collection) if padded else collection
        context = PipelineContext(data)
        built = BlockingEngine(context=context).build(data)
        from_columns = EntityIndexEngine.from_columns(
            BlockColumns.from_collection(built, context.ids)
        )
        objects = BlockCollection(list(TokenBlocking().build(collection)))
        # interned from the objects over a table of their own: the index remaps it
        assert BlockColumns.from_collection(objects).ids is not context.ids
        from_objects = EntityIndexEngine(objects, ids=context.ids)
        for name, dtype in INDEX_ARRAYS.items():
            got, expected = getattr(from_columns, name), getattr(from_objects, name)
            assert got.dtype == expected.dtype == dtype, name
            assert np.array_equal(got, expected), name
        assert from_columns.ids == from_objects.ids == context.ids
        assert from_columns.num_entities == len(data)
        assert from_columns.num_nodes == from_objects.num_nodes <= len(collection)
        assert from_columns.count_edges() == from_objects.count_edges()

    @pytest.mark.parametrize("dataset", ("small_dirty_dataset", "small_clean_clean_dataset"))
    def test_transpose_equals_the_object_entity_index(self, request, dataset):
        generated = request.getfixturevalue(dataset)
        data = getattr(generated, "task", None) or generated.collection
        blocks = BlockingEngine().build(data)
        index = EntityIndexEngine.from_columns(BlockColumns.from_collection(blocks))
        objects = list(blocks)
        expected = blocks.entity_index()
        ent_ptr = index._ent_ptr
        for ordinal, identifier in enumerate(index.ids):
            rows = range(ent_ptr[ordinal], ent_ptr[ordinal + 1])
            assert [index._ent_blocks[row] for row in rows] == expected.get(identifier, [])
            assert [index._ent_side[row] for row in rows] == [
                int(identifier in objects[index._ent_blocks[row]].right_members) for row in rows
            ]
        assert list(index._recip) == [1 / block.num_comparisons() for block in objects]
        assert index.num_nodes == len(expected)

    def test_member_on_both_sides_fails_like_the_graph_engine(self):
        blocks = BlockCollection(
            [
                Block("fine", left_members=["l1"], right_members=["r1"]),
                Block("bad", left_members=["l1", "x", "y"], right_members=["y", "x"]),
            ]
        )
        # the first *left* member that is also on the right, as left x right trips
        with pytest.raises(ValueError, match="two distinct descriptions, got 'x' twice"):
            EntityIndexEngine(blocks)


# ----------------------------------------------------------------------
# evaluate_blocks counts from columns
# ----------------------------------------------------------------------
class TestEvaluateBlocks:
    @pytest.mark.parametrize("cleaned", (False, True))
    @pytest.mark.parametrize(
        "dataset", ("census", "restaurants", "small_dirty_dataset", "small_clean_clean_dataset")
    )
    def test_field_for_field_equal_to_the_pair_set(
        self, request, dataset, cleaned, blocks_constructed
    ):
        if dataset in ("census", "restaurants"):
            generated = {"census": load_census, "restaurants": load_restaurants}[dataset]()
        else:
            generated = request.getfixturevalue(dataset)
        data = getattr(generated, "task", None) or generated.collection
        engine = BlockingEngine()
        blocks = engine.build(data)
        if cleaned:
            blocks = engine.clean(blocks, purging=BlockPurging(), filtering=BlockFiltering(0.8))
        got = evaluate_blocks(blocks, generated.ground_truth, data)
        assert blocks_constructed == []  # counted without building a block
        expected = evaluate_comparisons(blocks.distinct_pairs(), generated.ground_truth, data)
        assert got == expected
        assert got.num_detected_matches > 0

    def test_same_side_co_occurrence_is_no_comparison(self):
        from repro.datamodel.ground_truth import GroundTruth

        blocks = BlockCollection(
            [Block("b", left_members=["l1", "l2"], right_members=["r1"])]
        )
        truth = GroundTruth([["l1", "l2"], ["r1"]])
        quality = evaluate_blocks(blocks, truth)
        assert quality.num_comparisons == 2 and quality.num_detected_matches == 0
        assert quality == evaluate_comparisons(blocks.distinct_pairs(), truth)


# ----------------------------------------------------------------------
# the distinct-pair kernel and the pair-block constructor
# ----------------------------------------------------------------------
def walked_pairs(blocks):
    """The distinct pairs of ``blocks`` by a walk over the Block objects.

    ``(earlier member, later member, generating block)`` per pair, first
    block wins: every unilateral block's members pairwise in order, every
    bilateral block's left members with each right member (left first).
    """
    seen, rows = set(), []
    for block in blocks:
        if block.is_bilateral:
            raw = [(a, b) for a in block.left_members for b in block.right_members]
        else:
            raw = list(itertools.combinations(block.members, 2))
        for a, b in raw:
            if frozenset((a, b)) not in seen:
                seen.add(frozenset((a, b)))
                rows.append((a, b, block))
    return rows


def walked_propagation(blocks):
    """Comparison propagation spelled out over :func:`walked_pairs`."""
    out = []
    for a, b, block in walked_pairs(blocks):
        low, high = min(a, b), max(a, b)
        if block.is_bilateral:
            out.append((f"pair:{low}|{high}", (a, b), (a,), (b,)))
        else:
            out.append((f"pair:{low}|{high}", (low, high), (), ()))
    return out


def kernel_rows(blocks):
    columns = BlockColumns.from_collection(blocks)
    first, second, block = columns.distinct_pairs()
    ids = columns.ids
    return [
        (ids[f], ids[s], columns.keys[b])
        for f, s, b in zip(first.tolist(), second.tolist(), block.tolist())
    ]


class TestDistinctPairs:
    @pytest.mark.parametrize("name", sorted(COLLECTIONS))
    def test_kernel_rows_equal_a_walk_over_the_blocks(self, name):
        blocks = COLLECTIONS[name]
        walked = walked_pairs(blocks)
        assert kernel_rows(blocks) == [(a, b, block.key) for a, b, block in walked]
        # every consumer reads the kernel: same pairs, same order
        canonical = [(min(a, b), max(a, b)) for a, b, _block in walked]
        assert [c.pair for c in candidate_columns(blocks)] == canonical
        comparisons = list(blocks.distinct_comparisons())
        assert [c.pair for c in comparisons] == canonical
        assert [c.block_id for c in comparisons] == [block.key for _a, _b, block in walked]
        assert blocks.distinct_pairs() == set(canonical)
        assert blocks.num_distinct_comparisons() == len(canonical)
        propagated = ComparisonPropagation().process(blocks)
        assert propagated.name == f"{name}/propagated"
        assert snapshot(propagated) == walked_propagation(blocks)

    @given(block_collections())
    @settings(max_examples=60, deadline=None)
    def test_kernel_rows_equal_the_walk_on_random_collections(self, blocks):
        assert kernel_rows(blocks) == [(a, b, block.key) for a, b, block in walked_pairs(blocks)]
        assert snapshot(ComparisonPropagation().process(blocks)) == walked_propagation(blocks)

    def test_one_description_on_both_sides_raises(self):
        blocks = BlockCollection([Block("bad", left_members=["dup", "l2"], right_members=["dup"])])
        for read in (
            blocks.distinct_pairs,
            lambda: list(blocks.distinct_comparisons()),
            lambda: candidate_columns(blocks),
        ):
            with pytest.raises(ValueError, match="two distinct descriptions"):
                read()

    def test_from_pairs_keys_members_and_sides(self):
        ids = ["b", "a", "d", "c"]
        # canonical rows: ids[first] < ids[second]
        first, second = np.array([1, 1, 3]), np.array([0, 2, 2])
        dirty = BlockCollection.from_columns(BlockColumns.from_pairs("p", ids, first, second))
        assert snapshot(dirty) == [
            ("p:a|b", ("a", "b"), (), ()),
            ("p:a|d", ("a", "d"), (), ()),
            ("p:c|d", ("c", "d"), (), ()),
        ]
        left = np.array([0, -1, 2])  # b, a dirty-ER row, d
        mixed = BlockCollection.from_columns(BlockColumns.from_pairs("p", ids, first, second, left))
        assert snapshot(mixed) == [
            ("p:a|b", ("b", "a"), ("b",), ("a",)),
            ("p:a|d", ("a", "d"), (), ()),
            ("p:c|d", ("d", "c"), ("d",), ("c",)),
        ]
        empty = np.array([], dtype=np.int64)
        assert len(BlockColumns.from_pairs("p", ids, empty, empty, empty)) == 0


# ----------------------------------------------------------------------
# the collection over its columns
# ----------------------------------------------------------------------
class TestLazyView:
    @pytest.fixture(scope="class")
    def publications(self):
        return generate_dirty_dataset(
            DatasetConfig(num_entities=600, domain="publication", seed=29)
        )

    def test_default_workflow_constructs_no_block(self, publications, blocks_constructed):
        result = default_workflow().run(publications.collection, publications.ground_truth)
        assert result.clusters and result.blocking_quality is not None
        assert result.report.stage("block_filtering").get("blocks") > 0
        assert blocks_constructed == []

    @pytest.mark.parametrize("with_truth", [False, True])
    @pytest.mark.parametrize("iterate_merges", [False, True])
    def test_without_metablocking_no_block_is_constructed(
        self, publications, blocks_constructed, iterate_merges, with_truth
    ):
        truth = publications.ground_truth if with_truth else None
        result = default_workflow(
            enable_metablocking=False, iterate_merges=iterate_merges
        ).run(publications.collection, truth)
        assert result.clusters
        # the blocking quality is counted from the cleaned blocks' columns
        assert (result.blocking_quality is not None) == with_truth
        # the scheduler takes the cleaned blocks' pairs from their columns,
        # the update phase its neighbourhoods from the raw blocks' columns
        assert result.report.stage("block_filtering").get("blocks") > 0
        assert blocks_constructed == []

    def test_iterating_twice_builds_views_and_leaves_the_columns_in_place(
        self, publications, blocks_constructed
    ):
        data = publications.collection
        blocks = BlockingEngine().run(data, BlockPurging(), BlockFiltering(0.8))
        backing = blocks._columns
        assert len(blocks) > 0 and blocks.total_comparisons() > 0
        assert blocks_constructed == []
        first = list(blocks)
        assert len(blocks_constructed) == len(first) == len(blocks)
        again = list(blocks)
        assert len(blocks_constructed) == 2 * len(first)
        assert again[0] is not first[0] and snapshot(again) == snapshot(first)
        assert blocks[-1].key == first[-1].key and len(blocks_constructed) == 2 * len(first) + 1
        assert blocks._columns is backing
        # the statistics read the columns
        blocks_constructed.clear()
        assert blocks.entity_index() == BlockCollection(first).entity_index()
        blocks_constructed.clear()
        assert blocks.placed_identifiers() == {m for block in first for m in block.members}
        assert blocks.block_sizes() == [len(block) for block in first]
        by_size = blocks.sorted_by_cardinality(ascending=False)
        assert blocks_constructed == []
        assert snapshot(by_size) == snapshot(
            sorted(first, key=lambda block: block.num_comparisons(), reverse=True)
        )

    @pytest.mark.parametrize("dataset", ("small_dirty_dataset", "small_clean_clean_dataset"))
    def test_pair_blocks_stay_columns_until_iterated(self, request, dataset, blocks_constructed):
        generated = request.getfixturevalue(dataset)
        data = getattr(generated, "task", None) or generated.collection
        blocks = BlockingEngine().run(data, BlockPurging(), BlockFiltering(0.8))
        bilateral = isinstance(data, CleanCleanTask)
        pair_blocks = [
            ComparisonPropagation().process(blocks),
            MetaBlocking("CBS", "WEP").process(blocks, data if bilateral else None),
            SimilarityJoinBlocking(threshold=0.3).build(data),
            MultidimensionalBlocking(
                [TokenBlocking(), SimilarityJoinBlocking(threshold=0.3)], 2
            ).build(data),
        ]
        assert blocks_constructed == []
        for view in pair_blocks:
            assert len(view) > 0 and view.total_comparisons() == len(view)
            assert blocks_constructed == []
            materialised = list(view)
            assert all(block.is_bilateral == bilateral for block in materialised)
            assert len(blocks_constructed) == len(materialised)
            blocks_constructed.clear()

    def test_add_moves_to_new_columns_and_leaves_a_shared_backing_untouched(
        self, tiny_collection, blocks_constructed
    ):
        blocks = BlockingEngine().build(tiny_collection)
        backing = blocks._columns
        shared = BlockCollection.from_columns(backing, name="shared")
        expected = snapshot(shared)
        size, total = len(blocks), blocks.total_comparisons()
        keys, members, ids = list(backing.keys), backing.members.copy(), list(backing.ids)
        added = Block("zz-added", members=["x", "y", "z"])
        blocks_constructed.clear()
        blocks.add(added)
        assert blocks_constructed == []  # interned: no block is copied or materialised
        assert blocks._columns is not backing
        assert len(blocks) == size + 1 and blocks.total_comparisons() == total + 3
        assert [block.key for block in blocks][-1] == "zz-added"
        blocks.add(Block("degenerate", members=["x"]))  # still silently dropped
        assert len(blocks) == size + 1
        # the table grows after its old ordinals
        assert blocks._columns.ids == ids + ["x", "y", "z"]
        # the columns the other collection holds are untouched
        assert backing.keys == keys and backing.ids == ids
        assert np.array_equal(backing.members, members)
        assert len(shared) == size and snapshot(shared) == expected

    @given(block_collections())
    @settings(max_examples=60, deadline=None)
    def test_statistics_read_off_the_columns_equal_the_object_loops(self, blocks):
        objects = list(blocks)
        grown = BlockCollection()
        for block in objects:
            grown.add(block)
        assert snapshot(grown) == snapshot(objects)
        assert grown._columns.ids == blocks._columns.ids  # first-seen member order
        index = {}
        for position, block in enumerate(objects):
            for member in block.members:
                index.setdefault(member, []).append(position)
        assert list(blocks.entity_index().items()) == list(index.items())
        assert blocks.block_sizes() == [len(block) for block in objects]
        assert blocks.placed_identifiers() == set(index)
        for ascending in (True, False):
            expected = sorted(objects, key=Block.num_comparisons, reverse=not ascending)
            assert snapshot(blocks.sorted_by_cardinality(ascending)) == snapshot(expected)
        positions = range(-len(objects), len(objects))
        assert snapshot(blocks[p] for p in positions) == snapshot(objects * 2)

    def test_mutating_a_view_never_writes_through(self, tiny_collection):
        context = PipelineContext(tiny_collection)
        engine = BlockingEngine(context=context)
        blocks = engine.build(tiny_collection)
        backing = BlockColumns.from_collection(blocks)
        keys, members = list(backing.keys), backing.members.copy()
        purged = engine.clean(blocks, purging=BlockPurging())  # a view over derived columns
        expected = snapshot(BlockPurging().process(BlockCollection(list(blocks))))
        view = blocks[0]
        view.key = "renamed"  # a view owns nothing the columns hold
        view._members = ()
        blocks.add(Block("zz-added", members=["a1", "b1"]))
        assert blocks[0].key == keys[0] and len(blocks[0]) > 0
        assert backing.keys == keys
        assert backing.members.dtype == members.dtype == np.int64
        assert np.array_equal(backing.members, members)
        assert "zz-added" not in [block.key for block in purged]
        assert snapshot(purged) == expected


# ----------------------------------------------------------------------
# one block representation: builders and the block scheduler build no Block
# ----------------------------------------------------------------------
#: every library builder: the workflow's and the ones only the library offers
BUILDERS = {
    **_BLOCKING_FACTORIES,
    # a key both sides of the clean--clean task carry
    "standard-surname": lambda: StandardBlocking(
        [soundex_key("surname"), soundex_key("last_name"), soundex_key("family_name")]
    ),
    "extended_qgrams": lambda: ExtendedQGramsBlocking(),
    "suffix_array": lambda: SuffixArrayBlocking(),
    "multipass_sorted_neighborhood": lambda: MultiPassSortedNeighborhoodBlocking(
        sorting_keys=(None, sorting_key_from_attributes(["name"]))
    ),
    "multidimensional": lambda: MultidimensionalBlocking(
        [TokenBlocking(), QGramsBlocking(), CanopyClusteringBlocking()], 2
    ),
}


class TestNoBlockObjects:
    @pytest.mark.parametrize("shared", (False, True))
    @pytest.mark.parametrize("dataset", ("small_dirty_dataset", "small_clean_clean_dataset"))
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_a_build_constructs_no_block(self, request, dataset, name, shared, blocks_constructed):
        generated = request.getfixturevalue(dataset)
        data = getattr(generated, "task", None) or generated.collection
        context = PipelineContext(data) if shared else None
        blocks = BUILDERS[name]().build(data, context)
        assert blocks_constructed == []
        if (name, dataset) != ("standard", "small_clean_clean_dataset"):
            # (the workflow's standard key reads an attribute neither side has)
            assert len(blocks) > 0 and blocks.total_comparisons() > 0

    @pytest.mark.parametrize("dataset", ("small_dirty_dataset", "small_clean_clean_dataset"))
    def test_a_full_block_scheduler_drain_constructs_no_block(
        self, request, dataset, blocks_constructed
    ):
        generated = request.getfixturevalue(dataset)
        data = getattr(generated, "task", None) or generated.collection
        blocks = BlockingEngine().run(data, BlockPurging(), BlockFiltering(0.8))
        scheduler = ProgressiveBlockScheduler()
        drained = 0
        for comparison in scheduler.schedule(data, blocks):
            is_match = generated.ground_truth.are_matches(*comparison.pair)
            scheduler.feedback(MatchDecision(comparison, similarity=1.0, is_match=is_match))
            drained += 1
        assert drained == blocks.num_distinct_comparisons() > 0
        assert blocks_constructed == []
