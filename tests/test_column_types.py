"""One column type: fixed columns are ndarrays, materialised objects are plain Python.

A fixed column (one a kernel builds whole and later kernels only read) is an
int64 / float64 / int8 ``np.ndarray`` from the kernel that makes it to the
kernel that reads it.  Where Python materialises objects from those columns
(``Comparison``, ``WeightedEdge``, ``Block``, ``MatchDecision``) every field
has exactly the type ``str`` / ``int`` / ``float`` / ``bool``: no NumPy scalar
leaks into an object.  The context's published columns are read-only.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.columns import BlockColumns
from repro.blocking.engine import BlockingEngine
from repro.core.context import PipelineContext
from repro.datamodel.pairs import ComparisonColumns, DecisionColumns
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.runner import run_progressive
from repro.progressive.schedulers import (
    RandomOrderScheduler,
    WeightOrderScheduler,
    candidate_columns,
)


@pytest.fixture(params=["small_dirty_dataset", "small_clean_clean_dataset"])
def pipeline(request):
    """``(data, context, cleaned blocks)`` of a dirty and a clean--clean input."""
    generated = request.getfixturevalue(request.param)
    data = getattr(generated, "task", None) or generated.collection
    context = PipelineContext(data)
    engine = BlockingEngine(context=context)
    blocks = engine.clean(
        engine.build(data), purging=BlockPurging(), filtering=BlockFiltering(0.8)
    )
    return data, context, blocks


#: the dtypes of weighted edge / comparison columns and of block columns
WEIGHTED = (np.int64, np.int64, np.float64)
BLOCKS = (np.int64, np.int64, np.int64)


def assert_dtypes(columns, dtypes):
    assert len(columns) == len(dtypes)
    for column, dtype in zip(columns, dtypes):
        assert type(column) is np.ndarray and column.dtype == dtype, (column, dtype)


def assert_comparison(comparison, weighted: bool):
    assert type(comparison.first) is str and type(comparison.second) is str
    if weighted:
        assert type(comparison.weight) is float, type(comparison.weight)
    else:
        assert comparison.weight is None
    assert comparison.block_id is None


class TestComparisonColumns:
    def test_weighted_rows_materialise_plain_fields(self, pipeline):
        _data, context, blocks = pipeline
        columns = MetaBlocking("JS", "WNP").weighted_columns(blocks, context)
        assert len(columns) > 10
        assert_dtypes((columns.first, columns.second, columns.weights), WEIGHTED)
        for comparison in columns:
            assert_comparison(comparison, weighted=True)
        for index in (0, len(columns) // 2, -1):
            assert_comparison(columns[index], weighted=True)
            assert all(type(name) is str for name in columns.pair(index))
        shuffled = columns.taken(np.arange(len(columns))[::-1])
        assert_dtypes((shuffled.first, shuffled.second, shuffled.weights), WEIGHTED)
        assert_comparison(next(iter(shuffled.weight_sorted())), weighted=True)

    def test_unweighted_rows_materialise_plain_fields(self, pipeline):
        _data, _context, blocks = pipeline
        columns = candidate_columns(blocks)
        assert columns.weights is None and len(columns) > 10
        assert_dtypes((columns.first, columns.second), WEIGHTED[:2])
        for comparison in columns:
            assert_comparison(comparison, weighted=False)
        assert_comparison(columns[-1], weighted=False)
        assert all(type(a) is str and type(b) is str for a, b in columns.pairs())

    def test_sequence_input_is_held_as_ndarrays(self):
        columns = ComparisonColumns(
            ["a", "b", "c"], array("q", [0, 1]), [1, 2], array("d", [0.5, float("nan")])
        )
        assert_dtypes((columns.first, columns.second, columns.weights), WEIGHTED)
        first, second = list(columns), [columns[0], columns[1]]
        assert first == second
        assert_comparison(first[0], weighted=True)
        assert first[1].weight is None  # NaN marks a missing weight


class TestRetainedEdges:
    @pytest.mark.parametrize(
        "weighting, pruning", [("CBS", "WNP"), ("ARCS", "CEP"), ("EJS", "CNP")]
    )
    def test_edges_materialise_plain_fields(self, pipeline, weighting, pruning):
        _data, context, blocks = pipeline
        engine = EntityIndexEngine.from_columns(BlockColumns.from_collection(blocks, context.ids))
        assert_dtypes(engine.retained_columns(weighting, pruning), WEIGHTED)
        edges = list(engine.iter_retained(weighting, pruning))
        edges += list(MetaBlocking(weighting, pruning).iter_retained(blocks))
        assert edges
        for edge in edges:
            assert type(edge.first) is str and type(edge.second) is str
            assert type(edge.weight) is float
            assert_comparison(edge.as_comparison(), weighted=True)
        assert type(engine.node_blocks_count(edges[0].first)) is int
        assert all(type(o) is int for o in engine.co_blocked([engine.ordinal(edges[0].first)]))


class TestBlocks:
    def test_blocks_materialise_plain_fields(self, pipeline):
        _data, _context, blocks = pipeline
        columns = BlockColumns.from_collection(blocks)
        assert_dtypes((columns.blk_ptr, columns.members, columns.split), BLOCKS)
        materialised = columns.blocks()
        assert materialised
        for block in materialised:
            assert type(block.key) is str
            if block.is_bilateral:
                names = block.left_members + block.right_members
            else:
                names = block.members
            assert names and all(type(name) is str for name in names)
        # the object interning pass builds the same column types
        interned = BlockColumns.from_collection(type(blocks)(materialised))
        assert_dtypes((interned.blk_ptr, interned.members, interned.split), BLOCKS)


class TestSchedules:
    def test_scheduled_comparisons_carry_plain_fields(self, pipeline):
        data, context, blocks = pipeline
        weighted = MetaBlocking().weighted_columns(blocks, context)
        rows = WeightOrderScheduler().rows(data, weighted)
        rows.take(3)
        comparisons = list(rows.comparisons())
        assert len(comparisons) == len(weighted) - 3
        for comparison in comparisons:
            assert_comparison(comparison, weighted=True)
        for comparison in RandomOrderScheduler(seed=3).rows(data, blocks).comparisons():
            assert_comparison(comparison, weighted=False)

    def test_executed_decisions_carry_plain_fields(self, pipeline):
        data, context, blocks = pipeline
        result = run_progressive(
            WeightOrderScheduler(),
            ProfileSimilarityMatcher(threshold=0.3),
            data,
            MetaBlocking().weighted_columns(blocks, context),
            keep_decisions=True,
        )
        decisions = result.decisions
        assert isinstance(decisions, DecisionColumns) and len(decisions) > 10
        assert any(decision.is_match for decision in decisions)
        for index in range(len(decisions)):
            decision = decisions[index]
            assert_comparison(decision.comparison, weighted=False)
            assert type(decision.similarity) is float
            assert type(decision.is_match) is bool
            assert type(decision.cost) is float


class TestPublishedContextColumns:
    def test_columns_are_read_only_int64_ndarrays(self, pipeline):
        _data, context, _blocks = pipeline
        ordinal = context.num_descriptions - 1
        columns = [*context.token_columns(), *context.token_counts(ordinal)]
        columns.append(context.token_stream(ordinal))
        for _name, ids, counts in context.attribute_entries(ordinal):
            columns += [ids, counts]
        assert len(columns) > 6
        for column in columns:
            assert type(column) is np.ndarray and column.dtype == np.int64
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[:1] = 0

    def test_filter_mask_is_read_only_and_select_a_fresh_array(self, pipeline):
        _data, context, _blocks = pipeline
        token_filter = context.token_filter({"the", "of"}, 3)
        mask = token_filter.mask(context.vocabulary_size)
        assert mask.dtype == np.bool_ and len(mask) == context.vocabulary_size
        with pytest.raises(ValueError):
            mask[:1] = True
        ids, _counts = context.token_counts(0)
        selected = token_filter.select(ids)
        assert selected.dtype == np.int64 and selected.flags.writeable
        assert selected.tolist() == [t for t in ids.tolist() if mask[t]]
        # the vocabulary grows after the mask was handed out: it keeps its flags
        context.intern("a-token-no-description-holds")
        grown = token_filter.mask(context.vocabulary_size)
        assert len(grown) == len(mask) + 1 and np.array_equal(grown[:-1], mask)
