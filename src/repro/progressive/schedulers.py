"""The progressive scheduler interface and order-based baseline schedulers.

A progressive scheduler decides which candidate comparisons reach the matcher
and in what order.  The interface is a generator (:meth:`ProgressiveScheduler.schedule`)
plus a feedback hook (:meth:`ProgressiveScheduler.feedback`) through which the
runner reports every match decision, enabling schedulers that adapt their
order to the matches found so far (the "update" phase of the tutorial's
Figure 1).

A scheduler whose order is fixed up front implements
:meth:`ProgressiveScheduler.rows` instead: the schedule as ordinal rows over
an identifier table (:class:`ScheduledRows`), which the runner drains in
column chunks without building a :class:`Comparison` per pair; the inherited
``schedule`` materialises the same rows as comparisons.  Candidates reach
``rows`` through one normaliser, :func:`candidate_columns`.
"""

from __future__ import annotations

import abc
import random
from array import array
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.blocking.base import BlockCollection
from repro.blocking.columns import BlockColumns, flat_slices, int_view, typed_array
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.pairs import (
    Comparison,
    ComparisonColumns,
    OrdinalInterner,
    canonical_pair,
    first_occurrences,
    identifier_ranks,
)
from repro.matching.matchers import MatchDecision

import numpy as _np

ERInput = Union[EntityCollection, CleanCleanTask]
CandidateSource = Union[BlockCollection, Sequence[Comparison]]

#: Row type of an array schedule: (first ordinal, second ordinal, weight).
Row = Tuple[int, int, Optional[float]]


class ScheduledRows:
    """An array schedule: an identifier table plus ordinal rows, drained in chunks.

    ``rows`` is :class:`ComparisonColumns` in schedule order, or a lazy
    iterator of ``(first, second, weight)`` triples (a budgeted consumer
    pays only for the prefix it draws).  :meth:`take` hands out the next
    rows as two int64 arrays (slices of the columns, or the iterator's rows
    packed); :attr:`rows` yields the rest as triples, a missing weight as
    ``None``.  Columns from a shared context index the context's own table.
    """

    __slots__ = ("ids", "_rows", "_position")

    def __init__(self, ids: Sequence[str], rows: Union[Iterator[Row], ComparisonColumns]) -> None:
        self.ids = ids
        self._rows = rows
        self._position = 0

    def take(self, count: int):
        """The next at most ``count`` rows as ``(first, second)`` int64
        arrays; both are empty once the schedule is drained."""
        columns = self._rows
        if not isinstance(columns, ComparisonColumns):
            chunk = list(islice(columns, count))
            return tuple(
                _np.fromiter(map(itemgetter(side), chunk), _np.int64, len(chunk))
                for side in (0, 1)
            )
        start = self._position
        self._position = stop = min(start + count, len(columns))
        return int_view(columns.first)[start:stop], int_view(columns.second)[start:stop]

    @property
    def rows(self) -> Iterator[Row]:
        """The rows not yet taken as triples; reading it takes them."""
        columns = self._rows
        if not isinstance(columns, ComparisonColumns):
            return columns
        start, self._position = self._position, len(columns)
        first, second, weights = columns.first[start:], columns.second[start:], columns.weights
        if weights is None:
            return zip(first, second, repeat(None))
        weights = weights[start:]
        if _np.isnan(_np.frombuffer(weights, dtype=_np.float64)).any():
            weights = [None if w != w else w for w in weights]
        return zip(first, second, weights)

    def comparisons(self) -> Iterator[Comparison]:
        """Materialise the schedule as :class:`Comparison` objects (lazy)."""
        ids = self.ids
        for first, second, weight in self.rows:
            yield Comparison(ids[first], ids[second], weight=weight)


def comparison_rows(comparisons: Iterable[Comparison]) -> ScheduledRows:
    """``comparisons`` verbatim as rows, identifiers interned as they stream."""
    intern = OrdinalInterner()
    rows = (
        (intern(comparison.first), intern(comparison.second), comparison.weight)
        for comparison in comparisons
    )
    return ScheduledRows(intern.ids, rows)


def _columns_from_blocks(blocks: BlockCollection) -> ComparisonColumns:
    """The distinct comparisons of ``blocks`` as columns, first block wins.

    Row order equals ``BlockCollection.distinct_comparisons()``: blocks in
    collection order, within-block comparison order, first occurrence of
    every pair kept, the smaller identifier first.

    The blocks are read as :class:`~repro.blocking.columns.BlockColumns`,
    keeping their table -- the shared context's ``ids`` for blocks the
    blocking engine built, so the drain needs no ordinal map and no
    :class:`~repro.blocking.base.Block` is materialised.  Every assignment
    is repeated once per partner (the later members of a unilateral block,
    the whole right side for a left member of a bilateral one), which lays
    out every raw pair in within-block order; :func:`first_occurrences`
    keeps the first row of each pair and identifier ranks orient it.
    """
    np = _np
    columns = BlockColumns.from_collection(blocks)
    ptr, members = int_view(columns.blk_ptr), int_view(columns.members)
    block_of = np.repeat(np.arange(len(columns)), np.diff(ptr))
    position = np.arange(len(members))
    split = int_view(columns.split)[block_of]
    bilateral = split >= 0
    left_end = ptr[block_of] + split
    start = np.where(bilateral, left_end, position + 1)
    count = np.where(bilateral & (position >= left_end), 0, ptr[block_of + 1] - start)
    first = np.repeat(members, count)
    second = members[flat_slices(start, count)]
    clash = np.flatnonzero(first == second)
    if len(clash):
        # one description on both sides of a bilateral block: the Block
        # pair walk raises here, with this message
        identifier = columns.ids[int(first[clash[0]])]
        canonical_pair(identifier, identifier)
    keep = first_occurrences(first, second, len(columns.ids))
    first, second = first[keep], second[keep]
    rank = identifier_ranks(columns.ids)
    swap = rank[first] > rank[second]
    return ComparisonColumns(
        columns.ids,
        typed_array("q", np.where(swap, second, first)),
        typed_array("q", np.where(swap, first, second)),
        None,
        distinct=True,
    )


def _columns_from_comparisons(comparisons: Sequence[Comparison]) -> ComparisonColumns:
    """A comparison sequence as columns, identifiers interned in first-seen
    order; a missing weight is stored as NaN (all missing: no weight column)."""
    intern = OrdinalInterner()
    first, second, weights = array("q"), array("q"), []
    for comparison in comparisons:
        first.append(intern(comparison.first))
        second.append(intern(comparison.second))
        weights.append(comparison.weight)
    if any(weight is not None for weight in weights):
        weights = array("d", (_np.nan if w is None else w for w in weights))
    else:
        weights = None
    return ComparisonColumns(intern.ids, first, second, weights).deduplicated()


def candidate_columns(candidates: CandidateSource) -> ComparisonColumns:
    """Normalise a candidate source into distinct :class:`ComparisonColumns`.

    Blocks, columns and plain comparison sequences all keep the first
    occurrence of every pair, in input order (for blocks: the order of
    ``BlockCollection.distinct_comparisons()``), canonically oriented.
    """
    if isinstance(candidates, ComparisonColumns):
        return candidates.deduplicated()
    if isinstance(candidates, BlockCollection):
        return _columns_from_blocks(candidates)
    return _columns_from_comparisons(candidates)


def candidate_comparisons(candidates: CandidateSource) -> List[Comparison]:
    """The distinct comparisons of a candidate source (see :func:`candidate_columns`)."""
    return list(candidate_columns(candidates))


class ProgressiveScheduler(abc.ABC):
    """Interface of a progressive comparison scheduler.

    A subclass implements :meth:`rows` (a feedback-free order over ordinal
    rows, drained in batches) or overrides :meth:`schedule` (any generator
    of comparisons, e.g. one that adapts to :meth:`feedback`).
    """

    name = "scheduler"

    def rows(self, data: ERInput, candidates: CandidateSource) -> ScheduledRows:
        """The schedule as ordinal rows over an identifier table."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither rows() nor schedule()"
        )

    def schedule(self, data: ERInput, candidates: CandidateSource) -> Iterator[Comparison]:
        """Yield comparisons in the order they should be executed."""
        yield from self.rows(data, candidates).comparisons()

    def feedback(self, decision: MatchDecision) -> None:
        """Receive the decision of the last executed comparison (default: ignored)."""


class RandomOrderScheduler(ProgressiveScheduler):
    """Baseline: executes the candidate comparisons in a random (seeded) order.

    This models the non-progressive workflow, whose recall grows linearly with
    the consumed budget in expectation.
    """

    name = "random_order"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def rows(self, data: ERInput, candidates: CandidateSource) -> ScheduledRows:
        columns = candidate_columns(candidates)
        # a seeded Fisher--Yates shuffle of the row indices
        order = list(range(len(columns)))
        random.Random(self.seed).shuffle(order)
        return ScheduledRows(columns.ids, columns.taken(order, distinct=columns.distinct))


class WeightOrderScheduler(ProgressiveScheduler):
    """Static best-first order by comparison weight (e.g. meta-blocking weight).

    Comparisons without a weight are ranked after all weighted ones, in a
    deterministic order.  There is no update phase: the order is fixed up
    front, which is what distinguishes it from the adaptive schedulers.
    Ties break on the canonical identifier pair
    (:meth:`ComparisonColumns.weight_sorted`); columns that are already
    weight-sorted (meta-blocking's) pass through at no cost.
    """

    name = "weight_order"

    def rows(self, data: ERInput, candidates: CandidateSource) -> ScheduledRows:
        columns = candidate_columns(candidates).weight_sorted()
        return ScheduledRows(columns.ids, columns)


class StaticOrderScheduler(ProgressiveScheduler):
    """Executes a pre-computed comparison order verbatim (utility for tests/benchmarks)."""

    name = "static_order"

    def __init__(self, order: Sequence[Comparison]) -> None:
        self.order = list(order)

    def rows(self, data: ERInput, candidates: CandidateSource) -> ScheduledRows:
        return comparison_rows(self.order)
