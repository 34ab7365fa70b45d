"""Multidimensional overlapping blocks (MultiBlock-style aggregation).

The tutorial cites the idea of "multidimensional overlapping blocks": a
collection of blocks is built *per similarity dimension* (e.g. one dimension
per attribute or per similarity function), and the per-dimension collections
are then aggregated into a single multidimensional collection that takes into
account in how many dimensions two descriptions share blocks.  Pairs that
co-occur in at least ``min_shared_dimensions`` dimensions are retained.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.blocking.base import Block, BlockBuilder, BlockCollection, ERInput, interned
from repro.datamodel.collection import CleanCleanTask


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

        # count in how many dimensions each distinct pair co-occurs
        dimension_counts: Dict[Tuple[str, str], int] = {}
        for blocks in self.last_dimension_blocks:
            for pair in blocks.distinct_pairs():
                dimension_counts[pair] = dimension_counts.get(pair, 0) + 1

        bilateral = isinstance(data, CleanCleanTask)
        collection = BlockCollection(name=self.name)
        for (first, second), count in sorted(dimension_counts.items()):
            if count < self.min_shared_dimensions:
                continue
            key = f"multi:{first}|{second}"
            if bilateral:
                left, right = (
                    (first, second) if first in data.left else (second, first)
                )
                collection.add(Block(key, left_members=[left], right_members=[right]))
            else:
                collection.add(Block(key, members=[first, second]))
        return collection
