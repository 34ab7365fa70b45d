"""Multidimensional overlapping blocks (MultiBlock-style aggregation).

The tutorial cites the idea of "multidimensional overlapping blocks": a
collection of blocks is built *per similarity dimension* (e.g. one dimension
per attribute or per similarity function), and the per-dimension collections
are then aggregated into a single multidimensional collection that takes into
account in how many dimensions two descriptions share blocks.  Pairs that
co-occur in at least ``min_shared_dimensions`` dimensions are retained.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as _np

from repro.blocking.base import BlockBuilder, BlockCollection, ERInput, interned
from repro.blocking.columns import BlockColumns
from repro.datamodel.pairs import identifier_ranks


class MultidimensionalBlocking(BlockBuilder):
    """Aggregate several block builders (dimensions) by pair co-occurrence count.

    Parameters
    ----------
    dimensions:
        The per-dimension block builders (e.g. a token-blocking instance per
        attribute group, or builders using different similarity functions).
    min_shared_dimensions:
        A pair of descriptions is retained only if it co-occurs in blocks of
        at least this many distinct dimensions.  With 1 the scheme degrades to
        the union of the dimensions; higher values trade recall for precision.
    """

    name = "multidimensional"

    def __init__(
        self,
        dimensions: Sequence[BlockBuilder],
        min_shared_dimensions: int = 2,
    ) -> None:
        if not dimensions:
            raise ValueError("multidimensional blocking requires at least one dimension")
        if min_shared_dimensions < 1:
            raise ValueError("min_shared_dimensions must be at least 1")
        if min_shared_dimensions > len(dimensions):
            raise ValueError(
                "min_shared_dimensions cannot exceed the number of dimensions "
                f"({min_shared_dimensions} > {len(dimensions)})"
            )
        self.dimensions = list(dimensions)
        self.min_shared_dimensions = min_shared_dimensions
        #: per-dimension block collections of the last build (for inspection)
        self.last_dimension_blocks: List[BlockCollection] = []

    def build(self, data: ERInput, context=None) -> BlockCollection:
        # one context for every dimension: the input is interned once
        context = interned(data, context)
        self.last_dimension_blocks = [builder.build(data, context) for builder in self.dimensions]

        # every dimension's distinct pairs over one table: the context's,
        # extended by whatever member it does not hold
        np = _np
        table, rows = context.ids, []
        for blocks in self.last_dimension_blocks:
            columns = BlockColumns.from_collection(blocks, table)
            table = columns.ids if len(columns.ids) > len(table) else table
            rows.append(columns.distinct_pairs()[:2])
        # a code orders like the canonical identifier pair, so the counted
        # distinct codes are the pairs' dimension counts in canonical order
        rank = identifier_ranks(table)
        size = max(len(table), 1)
        first, second = (rank[np.concatenate(side)] for side in zip(*rows))
        codes = np.minimum(first, second) * size + np.maximum(first, second)
        codes, counts = np.unique(codes, return_counts=True)
        codes = codes[counts >= self.min_shared_dimensions]
        first, second = np.argsort(rank)[[codes // size, codes % size]]
        left = None
        if context.left_count >= 0:  # the context holds left descriptions first
            left = np.where(first < context.left_count, first, second)
        pairs = BlockColumns.from_pairs("multi", table, first, second, left)
        return BlockCollection.from_columns(pairs, name=self.name)
