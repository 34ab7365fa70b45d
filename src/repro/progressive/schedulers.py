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
from itertools import islice, repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.blocking.base import BlockCollection
from repro.blocking.columns import BlockColumns
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.pairs import (
    Comparison,
    ComparisonColumns,
    OrdinalInterner,
    canonical_orientation,
    pair_code,
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
        return columns.first[start:stop], columns.second[start:stop]

    @property
    def rows(self) -> Iterator[Row]:
        """The rows not yet taken as triples; reading it takes them."""
        columns = self._rows
        if not isinstance(columns, ComparisonColumns):
            return columns
        start, self._position = self._position, len(columns)
        first, second = columns.first[start:].tolist(), columns.second[start:].tolist()
        if columns.weights is None:
            return zip(first, second, repeat(None))
        weights = columns.weights[start:]
        missing = _np.isnan(weights).any()
        weights = weights.tolist()
        return zip(first, second, [None if w != w else w for w in weights] if missing else weights)

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


def _columns_from_comparisons(comparisons: Sequence[Comparison]) -> ComparisonColumns:
    """A comparison sequence as columns, identifiers interned in first-seen
    order; a missing weight is stored as NaN (all missing: no weight column)."""
    intern = OrdinalInterner()
    first, second, weights = [], [], []
    for comparison in comparisons:
        first.append(intern(comparison.first))
        second.append(intern(comparison.second))
        weights.append(comparison.weight)
    if any(weight is not None for weight in weights):
        weights = [_np.nan if w is None else w for w in weights]
    else:
        weights = None
    return ComparisonColumns(intern.ids, first, second, weights).deduplicated()


def candidate_columns(candidates: CandidateSource) -> ComparisonColumns:
    """Normalise a candidate source into distinct :class:`ComparisonColumns`.

    Blocks, columns and plain comparison sequences all keep the first
    occurrence of every pair, in input order (for blocks:
    :meth:`BlockColumns.distinct_pairs
    <repro.blocking.columns.BlockColumns.distinct_pairs>`, the order of
    ``BlockCollection.distinct_comparisons()``), canonically oriented.
    """
    if isinstance(candidates, ComparisonColumns):
        return candidates.deduplicated()
    if isinstance(candidates, BlockCollection):
        # the blocks' own table (the shared context's for blocks the blocking
        # engine built): the drain needs no ordinal map, no Block is built
        columns = BlockColumns.from_collection(candidates)
        first, second, _block = columns.distinct_pairs()
        first, second = canonical_orientation(columns.ids, first, second)
        return ComparisonColumns(columns.ids, first, second, distinct=True)
    return _columns_from_comparisons(candidates)


def candidate_codes(candidates: CandidateSource, position: Dict[str, int]) -> Set[int]:
    """The candidate pairs as :func:`~repro.datamodel.pairs.pair_code` of
    their identifiers' ``position``; a pair one of whose identifiers has no
    position is left out (no schedule over the positions can emit it)."""
    columns = candidate_columns(candidates)
    at = [position.get(identifier, -1) for identifier in columns.ids]
    codes = set()
    for f, s in zip(columns.first.tolist(), columns.second.tolist()):
        a, b = at[f], at[s]
        if a >= 0 and b >= 0:
            codes.add(pair_code(a, b))
    return codes


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
