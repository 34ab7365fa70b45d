"""Block-collection cleaning: purging, filtering and comparison propagation.

These are the block-level and comparison-level techniques the tutorial refers
to as "different ways for discarding comparisons that do not lead to matches",
applied between blocking and matching (and before meta-blocking):

* **Block purging** removes the largest blocks -- those whose cardinality
  exceeds a bound derived from the collection -- because oversized blocks are
  dominated by redundant and superfluous comparisons.
* **Block filtering** keeps, for every description, only the ``ratio`` portion
  of its smallest blocks, removing it from its largest (least informative)
  blocks.
* **Comparison propagation** eliminates all redundant comparisons (pairs
  co-occurring in several blocks) without any loss of recall, by keeping a
  pair only in its least-common block (implemented here by global pair
  deduplication).
"""

from __future__ import annotations

import numbers
from math import inf
from typing import List, Optional, Sequence, Set

import numpy as _np

from repro.blocking.base import Block, BlockCollection, check_count, check_unit_interval
from repro.blocking.columns import BlockColumns, int_view
from repro.datamodel.pairs import canonical_pair, identifier_ranks


def adaptive_cardinality_threshold(
    cardinalities: Sequence[int], smoothing_factor: float
) -> int:
    """Purging threshold from an ascending list of block cardinalities.

    Oversized blocks (produced by extremely frequent tokens) are separated
    from the useful ones by a large multiplicative gap in the upper tail of
    the cardinality distribution.  The threshold is therefore set just below
    the largest relative gap between consecutive distinct cardinalities in
    the upper half of the distribution, provided that gap exceeds the
    smoothing factor; if the distribution has no such gap (i.e. block sizes
    grow smoothly) nothing is purged.  ``cardinalities`` must already be
    sorted ascending.
    """
    if not cardinalities:
        return 0
    distinct = sorted(set(cardinalities))
    if len(distinct) < 2:
        return distinct[-1]

    median = cardinalities[len(cardinalities) // 2]
    best_gap_ratio = 0.0
    threshold = distinct[-1]
    for lower, upper in zip(distinct, distinct[1:]):
        if upper <= median or lower <= 0:
            continue
        gap_ratio = upper / lower
        if gap_ratio > best_gap_ratio:
            best_gap_ratio = gap_ratio
            threshold = lower
    if best_gap_ratio < smoothing_factor:
        return distinct[-1]
    return threshold


class BlockPurging:
    """Remove oversized blocks whose cardinality exceeds an adaptive bound.

    Oversized blocks -- typically produced by stop-word-like tokens shared by
    a large fraction of the collection -- contribute the bulk of the
    comparisons while carrying almost no matching evidence.  The adaptive
    bound (:func:`adaptive_cardinality_threshold`) is placed just below the
    largest multiplicative gap in the upper tail of the block-cardinality
    distribution; a fixed bound can be supplied instead via
    ``max_comparisons``.

    Parameters
    ----------
    smoothing_factor:
        Minimum relative gap (ratio between consecutive distinct block
        cardinalities, a finite number ``>= 1``) that is considered an
        outlier boundary; below it no block is purged.
    max_comparisons:
        Fixed cardinality bound overriding the adaptive one (an ``int >= 0``).
    """

    def __init__(self, smoothing_factor: float = 2.0, max_comparisons: Optional[int] = None) -> None:
        # a ratio of consecutive distinct cardinalities is above 1
        factor = smoothing_factor
        if isinstance(factor, bool) or not isinstance(factor, numbers.Real) or not 1 <= factor < inf:
            raise ValueError(f"smoothing_factor must be a finite number >= 1, got {factor!r}")
        if max_comparisons is not None:
            check_count("max_comparisons", max_comparisons, 0)
        self.smoothing_factor = smoothing_factor
        self.max_comparisons = max_comparisons

    def process(self, blocks: BlockCollection) -> BlockCollection:
        """Purging: a mask over the cardinality column."""
        columns = BlockColumns.from_collection(blocks)
        cards = columns.cardinalities()
        if self.max_comparisons is not None:
            threshold = self.max_comparisons
        else:
            ascending = _np.sort(cards).tolist()
            threshold = adaptive_cardinality_threshold(ascending, self.smoothing_factor)
        sizes = _np.diff(int_view(columns.blk_ptr))
        purged = columns.select(_np.repeat(cards <= threshold, sizes))
        return BlockCollection.from_columns(purged, name=f"{blocks.name}/purged")


class BlockFiltering:
    """Keep each description only in the ``ratio`` fraction of its smallest blocks.

    For every description, its blocks are ranked by increasing cardinality and
    only the top ``ceil(ratio * |blocks|)`` are retained for that description
    (at least one); the description is removed from the rest.  Blocks that
    become degenerate (fewer than two members, or an empty side) are dropped.
    """

    def __init__(self, ratio: float = 0.8) -> None:
        self.ratio = check_unit_interval("ratio", ratio, open_low=True)

    def process(self, blocks: BlockCollection) -> BlockCollection:
        """Filtering: rank every description's assignments, keep the flagged ones.

        All assignments are ranked in one stable ``lexsort`` by (entity,
        cardinality); stability keeps the block-major layout, i.e. ascending
        block index, as the tie-break between equal cardinalities.
        """
        np = _np
        columns = BlockColumns.from_collection(blocks)
        cards = columns.cardinalities()
        ent_of = int_view(columns.members)
        card_of = np.repeat(cards, np.diff(int_view(columns.blk_ptr)))
        order = np.lexsort((card_of, ent_of))
        ent_sorted = ent_of[order]
        degrees = np.bincount(ent_of, minlength=len(columns.ids))
        ent_ptr = np.concatenate(([0], np.cumsum(degrees)))
        rank = np.arange(len(ent_of)) - ent_ptr[ent_sorted]
        keep_counts = np.maximum(1, np.ceil(self.ratio * degrees)).astype(np.int64)
        flags = np.zeros(len(ent_of), dtype=np.bool_)
        flags[order[rank < keep_counts[ent_sorted]]] = True
        filtered = columns.select(flags)
        return BlockCollection.from_columns(filtered, name=f"{blocks.name}/filtered")


class ComparisonPropagation:
    """Eliminate redundant comparisons: each distinct pair is compared exactly once.

    The result is a block collection with one (two-member) block per distinct
    pair, in the order the pairs first occur (blocks in order, each block's
    comparisons in order), preserving pair completeness exactly while
    reducing the aggregate cardinality to the number of distinct comparisons.
    A bilateral pair block keeps the orientation of the first block that
    proposes the pair.
    """

    def process(self, blocks: BlockCollection) -> BlockCollection:
        propagated = BlockCollection(name=f"{blocks.name}/propagated")
        propagated._extend_trusted(_propagate(BlockColumns.from_collection(blocks)))
        return propagated


def _propagate(columns: BlockColumns) -> List[Block]:
    """Vectorised propagation; peak memory is O(aggregate comparisons).

    The full code/endpoint arrays are materialised before the global
    ``np.unique`` (~24 bytes per redundant comparison), trading a transient
    spike for per-pair Python work.  For inputs whose aggregate cardinality
    vastly exceeds the distinct pair count -- e.g. unpurged collections with
    extreme redundancy -- purge first, as the workflow does.
    """
    np = _np
    ids = columns.ids
    members = int_view(columns.members)
    code_chunks: List = []
    a_chunks: List = []
    b_chunks: List = []
    #: per chunk: the generating block's left-ordinal set, or None (unilateral)
    chunk_left: List[Optional[Set[int]]] = []
    chunk_sizes: List[int] = []
    for start, stop, split in zip(columns.blk_ptr, columns.blk_ptr[1:], columns.split):
        if split >= 0:
            left = members[start : start + split]
            right = members[start + split : stop]
            a = np.repeat(left, len(right))
            b = np.tile(right, len(left))
            self_pairs = a == b
            if self_pairs.any():  # a malformed block: canonical_pair's error
                member = ids[int(a[int(np.argmax(self_pairs))])]
                canonical_pair(member, member)
            chunk_left.append(set(left.tolist()))
        else:
            flat = members[start:stop]
            upper_i, upper_j = np.triu_indices(len(flat), 1)
            a = flat[upper_i]
            b = flat[upper_j]
            chunk_left.append(None)
        code_chunks.append(np.minimum(a, b) << 32 | np.maximum(a, b))
        a_chunks.append(a)
        b_chunks.append(b)
        chunk_sizes.append(len(a))
    if not code_chunks:
        return []

    codes = np.concatenate(code_chunks)
    a_all = np.concatenate(a_chunks)
    b_all = np.concatenate(b_chunks)
    # np.unique returns each code's first occurrence in the concatenated
    # (= generation) order; re-sorting those positions restores that order
    _uniques, first_positions = np.unique(codes, return_index=True)
    first_positions.sort()
    a_sel = a_all[first_positions]
    b_sel = b_all[first_positions]

    # the emission loop runs once per distinct pair and dominates large
    # propagations, so the Block construction is inlined (__new__ + slot
    # assignment, the trusted equivalent of Block.pair/bilateral_pair)
    out: List[Block] = []
    append = out.append
    new_block = Block.__new__
    empty = ()
    if all(left_set is None for left_set in chunk_left):  # purely unilateral
        # canonical pair order resolved vectorised: comparing identifier
        # ranks reproduces the per-pair `id_a < id_b` checks
        rank = identifier_ranks(ids)
        swap = rank[b_sel] < rank[a_sel]
        first_list = np.where(swap, b_sel, a_sel).tolist()
        second_list = np.where(swap, a_sel, b_sel).tolist()
        for a, b in zip(first_list, second_list):
            id_a, id_b = ids[a], ids[b]
            block = new_block(Block)
            block.key = f"pair:{id_a}|{id_b}"
            block._members = (id_a, id_b)
            block._left = empty
            block._right = empty
            append(block)
    else:
        a_list = a_sel.tolist()
        b_list = b_sel.tolist()
        offsets = np.cumsum(np.asarray(chunk_sizes, dtype=np.int64))
        chunk_list = np.searchsorted(offsets, first_positions, side="right").tolist()
        for a, b, chunk in zip(a_list, b_list, chunk_list):
            id_a, id_b = ids[a], ids[b]
            left_set = chunk_left[chunk]
            block = new_block(Block)
            if left_set is None:
                if id_a < id_b:
                    block.key = f"pair:{id_a}|{id_b}"
                    block._members = (id_a, id_b)
                else:
                    block.key = f"pair:{id_b}|{id_a}"
                    block._members = (id_b, id_a)
                block._left = empty
                block._right = empty
            else:
                if id_a < id_b:
                    first, second, first_ordinal = id_a, id_b, a
                else:
                    first, second, first_ordinal = id_b, id_a, b
                block.key = f"pair:{first}|{second}"
                block._members = empty
                if first_ordinal in left_set:
                    block._left = (first,)
                    block._right = (second,)
                else:
                    block._left = (second,)
                    block._right = (first,)
            append(block)
    return out


def clean_blocks(
    blocks: BlockCollection,
    purging: Optional[BlockPurging] = None,
    filtering: Optional[BlockFiltering] = None,
    propagate: bool = False,
) -> BlockCollection:
    """Convenience pipeline: purging, then filtering, then optional propagation."""
    result = blocks
    if purging is not None:
        result = purging.process(result)
    if filtering is not None:
        result = filtering.process(result)
    if propagate:
        result = ComparisonPropagation().process(result)
    return result
