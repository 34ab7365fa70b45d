"""Array-backed progressive scheduling engine.

Scheduling was the last object-graph phase of the workflow: every scheduler
materialised a ``List[Comparison]`` (often twice -- meta-blocking built one
sorted list, the scheduler deduplicated and re-sorted it) and the runner drew
the per-pair objects one by one.  :class:`SchedulingEngine` executes the same
schedules over flat ordinal/weight arrays, following the pattern of the blocking, meta-blocking and matching phases:
the scheduler's exact type selects the path.

* **Array path** -- the feedback-free library schedulers run natively on
  columns:

  - :class:`~repro.progressive.schedulers.WeightOrderScheduler` orders the
    meta-blocking engine's :class:`~repro.datamodel.pairs.ComparisonColumns`
    with :func:`~repro.datamodel.pairs.heaviest_first` over the
    ``(weight, first, second)`` columns (weight ties break on the
    identifier ranks, exactly the object sort key) -- and recognises
    columns that are already weight-sorted, in which case scheduling is a
    zero-cost pass-through;
  - :class:`~repro.progressive.schedulers.RandomOrderScheduler` shuffles row
    indices with the same seeded Fisher--Yates permutation the object path
    applies to its comparison list;
  - :class:`~repro.progressive.schedulers.StaticOrderScheduler` streams its
    pre-computed order through the row interface (a budget becomes a plain
    slice of the order);
  - :class:`~repro.progressive.sorted_list.SortedListScheduler` emits its
    incrementally widening windows as position pairs over the sorted order,
    with the candidate-restriction set held as packed integer codes;
  - :class:`~repro.progressive.psnm.ProgressiveBlockScheduler` with
    ``promote_on_match=False`` (its feedback hook then never fires) emits
    block-ordered pairs with integer-coded first-occurrence deduplication.

  The scheduled rows feed
  :meth:`~repro.matching.engine.MatchingEngine.decide_ordinal_pairs` directly
  in batched draws (see :func:`~repro.progressive.runner.run_progressive`),
  so a budgeted run touches only the array prefix it can afford.

* **Object path** -- delegates to the scheduler's own
  :meth:`~repro.progressive.schedulers.ProgressiveScheduler.schedule`
  generator: the readable reference, which the equivalence suite
  (``tests/test_scheduling_engine.py``) calls directly as its oracle.

Schedulers that adapt to match feedback (progressive sorted neighbourhood,
the cost--benefit scheduler, progressive blocking with promotion) and custom
:class:`~repro.progressive.schedulers.ProgressiveScheduler` implementations
fall back to the object path automatically -- their next draw may depend on
the previous decision, which an up-front array order cannot represent.  Both
paths produce bit-identical schedules: the same comparisons, in the same
order (including order under weight ties), hence the same matches and the
same progressive recall curve.
"""

from __future__ import annotations

import random
from array import array
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.blocking.base import BlockCollection
from repro.blocking.columns import BlockColumns, flat_slices, int_view, typed_array
from repro.blocking.sorted_neighborhood import sorted_order
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.pairs import (
    Comparison,
    ComparisonColumns,
    OrdinalInterner,
    canonical_pair,
    first_occurrences,
    identifier_ranks,
    pair_code,
)
from repro.progressive.psnm import ProgressiveBlockScheduler
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    RandomOrderScheduler,
    StaticOrderScheduler,
    WeightOrderScheduler,
)
from repro.progressive.sorted_list import SortedListScheduler

import numpy as _np

#: Row type of an array schedule: (first ordinal, second ordinal, weight).
Row = Tuple[int, int, Optional[float]]


class ScheduledRows:
    """An array schedule: an identifier table plus lazily-yielded ordinal rows.

    ``rows`` yields ``(first, second, weight)`` triples indexing ``ids``;
    generation is lazy, so a budgeted consumer only pays for the prefix it
    draws.  When the columns came from a shared pipeline context, ``ids`` is
    the context's own table and the rows are context ordinals.
    """

    __slots__ = ("ids", "rows")

    def __init__(self, ids: Sequence[str], rows: Iterator[Row]) -> None:
        self.ids = ids
        self.rows = rows

    def comparisons(self) -> Iterator[Comparison]:
        """Materialise the schedule as :class:`Comparison` objects (lazy)."""
        ids = self.ids
        for first, second, weight in self.rows:
            yield Comparison(ids[first], ids[second], weight=weight)


def _columns_from_blocks(blocks: BlockCollection) -> ComparisonColumns:
    """The distinct comparisons of ``blocks`` as columns, first block wins.

    Row order equals ``BlockCollection.distinct_comparisons()`` (and hence
    ``candidate_comparisons``): blocks in collection order, within-block
    comparison order, first occurrence of every pair kept, the smaller
    identifier first.

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
        # one description on both sides of a bilateral block: the oracle's
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


class SchedulingEngine:
    """Comparison scheduling on columns, the scheduler's own as fallback.

    Parameters
    ----------
    scheduler:
        The progressive scheduler whose order is executed.  The array engine
        natively supports the exact library types listed in the module
        docstring; every other scheduler -- subclasses included, whose
        overridden behaviour the columnar path cannot see -- transparently
        falls back to its own ``schedule`` generator, so the engine is
        always safe to use.

    Notes
    -----
    :attr:`last_engine` reports which engine actually produced the most
    recent schedule (``"array"`` or ``"object"``).
    """

    def __init__(self, scheduler: ProgressiveScheduler) -> None:
        self.scheduler = scheduler
        #: engine that actually produced the last schedule
        self.last_engine: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def feedback_free(self) -> bool:
        """Whether the scheduler's order cannot depend on match feedback.

        True when :meth:`ProgressiveScheduler.feedback` is not overridden --
        plus the one instance-level case the type check cannot see:
        :class:`ProgressiveBlockScheduler` with promotion disabled, whose
        overridden hook provably never changes the order.  Feedback-free
        schedules may be drained in batches; adaptive ones must stay on the
        draw-one/decide-one loop.
        """
        scheduler = self.scheduler
        if type(scheduler).feedback is ProgressiveScheduler.feedback:
            return True
        return (
            type(scheduler) is ProgressiveBlockScheduler
            and not scheduler.promote_on_match
        )

    def array_applicable(self, candidates: CandidateSource) -> bool:
        """Whether :meth:`schedule` will run on the array engine for this input."""
        scheduler = self.scheduler
        kind = type(scheduler)
        columnar = isinstance(candidates, (ComparisonColumns, BlockCollection))
        if kind in (WeightOrderScheduler, RandomOrderScheduler):
            return columnar
        if kind is StaticOrderScheduler:
            return True
        if kind is SortedListScheduler:
            return candidates is None or columnar
        if kind is ProgressiveBlockScheduler:
            return not scheduler.promote_on_match and isinstance(
                candidates, BlockCollection
            )
        return False

    # ------------------------------------------------------------------
    def schedule_rows(
        self, data: ERInput, candidates: CandidateSource
    ) -> Optional[ScheduledRows]:
        """The array schedule, or ``None`` when the object engine must run."""
        if not self.array_applicable(candidates):
            self.last_engine = "object"
            return None
        self.last_engine = "array"
        scheduler = self.scheduler
        kind = type(scheduler)
        if kind is WeightOrderScheduler:
            return self._rows_weight_order(candidates)
        if kind is RandomOrderScheduler:
            return self._rows_random(scheduler, candidates)
        if kind is StaticOrderScheduler:
            return self._rows_static(scheduler)
        if kind is SortedListScheduler:
            return self._rows_sorted_list(scheduler, data, candidates)
        return self._rows_progressive_blocks(candidates)

    def schedule(
        self, data: ERInput, candidates: CandidateSource
    ) -> Iterator[Comparison]:
        """The scheduled comparisons, whichever engine produces them."""
        rows = self.schedule_rows(data, candidates)
        if rows is None:
            return self.scheduler.schedule(data, candidates)
        return rows.comparisons()

    # ------------------------------------------------------------------
    # native array schedules
    # ------------------------------------------------------------------
    @staticmethod
    def _as_columns(candidates: CandidateSource) -> ComparisonColumns:
        if isinstance(candidates, ComparisonColumns):
            return candidates.deduplicated()
        return _columns_from_blocks(candidates)

    @staticmethod
    def _column_rows(columns: ComparisonColumns) -> Iterator[Row]:
        if columns.weights is None:
            for f, s in zip(columns.first, columns.second):
                yield f, s, None
        else:
            yield from zip(columns.first, columns.second, columns.weights)

    def _rows_weight_order(self, candidates: CandidateSource) -> ScheduledRows:
        columns = self._as_columns(candidates).weight_sorted()
        return ScheduledRows(columns.ids, self._column_rows(columns))

    def _rows_random(
        self, scheduler: RandomOrderScheduler, candidates: CandidateSource
    ) -> ScheduledRows:
        columns = self._as_columns(candidates)
        # rng.shuffle permutes by index swaps only, so shuffling the row
        # indices yields exactly the permutation the object path applies to
        # its materialised comparison list
        order = list(range(len(columns)))
        random.Random(scheduler.seed).shuffle(order)
        first = columns.first
        second = columns.second
        weights = columns.weights

        def rows() -> Iterator[Row]:
            for i in order:
                yield first[i], second[i], weights[i] if weights is not None else None

        return ScheduledRows(columns.ids, rows())

    @staticmethod
    def _rows_static(scheduler: StaticOrderScheduler) -> ScheduledRows:
        intern = OrdinalInterner()

        def rows() -> Iterator[Row]:
            for comparison in scheduler.order:
                yield intern(comparison.first), intern(comparison.second), comparison.weight

        return ScheduledRows(intern.ids, rows())

    @staticmethod
    def _rows_sorted_list(
        scheduler: SortedListScheduler, data: ERInput, candidates: CandidateSource
    ) -> ScheduledRows:
        entries = sorted_order(data, scheduler.sorting_key)
        identifiers = [identifier for _, identifier in entries]
        n = len(identifiers)
        if n < 2:
            return ScheduledRows(identifiers, iter(()))

        allowed: Optional[Set[int]] = None
        if scheduler.restrict_to_candidates and candidates is not None:
            position = {identifier: i for i, identifier in enumerate(identifiers)}
            allowed = set()
            if isinstance(candidates, ComparisonColumns):
                ids = candidates.ids
                pair_source = (
                    (ids[f], ids[s])
                    for f, s in zip(candidates.first, candidates.second)
                )
            else:
                pair_source = (
                    pair for block in candidates for pair in block.pairs()
                )
            for id_a, id_b in pair_source:
                a = position.get(id_a)
                b = position.get(id_b)
                if a is None or b is None:
                    continue  # never emittable by the window sweep anyway
                allowed.add(pair_code(a, b))

        bilateral = data if isinstance(data, CleanCleanTask) else None
        limit = scheduler.max_distance if scheduler.max_distance is not None else n - 1

        def rows() -> Iterator[Row]:
            emitted: Set[int] = set()
            for distance in range(1, min(limit, n - 1) + 1):
                for index in range(0, n - distance):
                    partner = index + distance
                    if bilateral is not None and not bilateral.is_valid_pair(
                        identifiers[index], identifiers[partner]
                    ):
                        continue
                    code = pair_code(index, partner)
                    if allowed is not None and code not in allowed:
                        continue
                    if code in emitted:
                        continue
                    emitted.add(code)
                    yield index, partner, None

        return ScheduledRows(identifiers, rows())

    @staticmethod
    def _rows_progressive_blocks(candidates: BlockCollection) -> ScheduledRows:
        ordered_blocks = sorted(
            candidates, key=lambda block: (block.num_comparisons(), block.key)
        )
        intern = OrdinalInterner()

        def rows() -> Iterator[Row]:
            seen: Set[int] = set()
            add = seen.add
            for block in ordered_blocks:
                for id_a, id_b in block.pairs():
                    a = intern(id_a)
                    b = intern(id_b)
                    code = pair_code(a, b)
                    if code in seen:
                        continue
                    add(code)
                    yield a, b, None

        return ScheduledRows(intern.ids, rows())
