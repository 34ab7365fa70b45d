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

All three are passes over :class:`~repro.blocking.columns.BlockColumns` and
return a lazy :class:`~repro.blocking.base.BlockCollection` view over their
result: no cleaner builds a :class:`~repro.blocking.base.Block`.
"""

from __future__ import annotations

import numbers
from math import inf
from typing import Optional, Sequence

import numpy as _np

from repro.blocking.base import BlockCollection, check_count, check_unit_interval
from repro.blocking.columns import BlockColumns
from repro.datamodel.pairs import canonical_orientation


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
        sizes = _np.diff(columns.blk_ptr)
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
        ent_of = columns.members
        card_of = np.repeat(cards, np.diff(columns.blk_ptr))
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

    The result is a block collection with one (two-member) block
    ``pair:<first>|<second>`` per distinct pair, in the order the pairs first
    occur (blocks in order, each block's comparisons in order), preserving
    pair completeness exactly while reducing the aggregate cardinality to
    the number of distinct comparisons.  A bilateral pair block keeps the
    orientation of the first block that proposes the pair.  Both steps are
    column kernels -- :meth:`BlockColumns.distinct_pairs
    <repro.blocking.columns.BlockColumns.distinct_pairs>` and
    :meth:`BlockColumns.from_pairs
    <repro.blocking.columns.BlockColumns.from_pairs>` -- and the result holds
    the pair columns.
    """

    def process(self, blocks: BlockCollection) -> BlockCollection:
        columns = BlockColumns.from_collection(blocks)
        first, second, block = columns.distinct_pairs()
        # the earlier member is the left one of a bilateral generating block
        left = _np.where(columns.split[block] >= 0, first, -1)
        first, second = canonical_orientation(columns.ids, first, second)
        pairs = BlockColumns.from_pairs("pair", columns.ids, first, second, left)
        return BlockCollection.from_columns(pairs, name=f"{blocks.name}/propagated")


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
