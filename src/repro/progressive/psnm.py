"""Progressive sorted neighbourhood (with local lookahead) and progressive blocking.

Two schedulers in the spirit of progressive duplicate detection:

* :class:`ProgressiveSortedNeighborhood` extends the sorted-list heuristic
  with a *local lookahead*: if the descriptions at sorted positions ``(i, j)``
  are found to match, the descriptions at ``(i+1, j)`` and ``(i, j+1)`` are
  compared immediately, because matches tend to appear in dense areas of the
  initial sorting.  Until a match is reported, the default one follows the
  plain incrementally-widening sorted list
  (:class:`~repro.progressive.sorted_list.SortedListScheduler` with
  ``restrict_to_candidates=False``).
* :class:`ProgressiveBlockScheduler` works on a block collection instead of a
  sorted list: blocks are visited in increasing cardinality order (small
  blocks are cheapest and densest in matches).  Its order is fixed up
  front: under :func:`~repro.progressive.runner.run_progressive` a match can
  only come from the block being drained, whose remaining comparisons are
  next anyway, so promoting them on a match would move nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.blocking.base import BlockCollection
from repro.blocking.columns import BlockColumns
from repro.blocking.sorted_neighborhood import default_sorting_key, sorted_order
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison, canonical_pair
from repro.matching.matchers import MatchDecision
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    ScheduledRows,
    candidate_columns,
)


class ProgressiveSortedNeighborhood(ProgressiveScheduler):
    """Sorted-list scheduling with local lookahead on matches.

    Parameters
    ----------
    sorting_key:
        Key function for the initial sorting.
    max_distance:
        Maximum sorted distance explored by the base (non-lookahead) sweep.
    restrict_to_candidates:
        When true, only pairs present in the supplied candidate source are
        emitted.
    """

    name = "progressive_sorted_neighborhood"

    def __init__(
        self,
        sorting_key: Optional[Callable[[EntityDescription], str]] = None,
        max_distance: Optional[int] = None,
        restrict_to_candidates: bool = False,
    ) -> None:
        self.sorting_key = sorting_key or default_sorting_key
        self.max_distance = max_distance
        self.restrict_to_candidates = restrict_to_candidates
        # state shared between schedule() and feedback()
        self._position_of: Dict[str, int] = {}
        self._identifiers: List[str] = []
        self._priority: Deque[Tuple[str, str]] = deque()
        self._emitted: Set[Tuple[str, str]] = set()
        self._allowed: Optional[Set[Tuple[str, str]]] = None
        self._bilateral_data: Optional[CleanCleanTask] = None

    # ------------------------------------------------------------------
    def feedback(self, decision: MatchDecision) -> None:
        """On a match at positions (i, j), enqueue (i+1, j) and (i, j+1)."""
        if not decision.is_match:
            return
        first, second = decision.pair
        position_a = self._position_of.get(first)
        position_b = self._position_of.get(second)
        if position_a is None or position_b is None:
            return
        i, j = sorted((position_a, position_b))
        for next_i, next_j in ((i + 1, j), (i, j + 1)):
            if next_i == next_j:
                continue
            if 0 <= next_i < len(self._identifiers) and 0 <= next_j < len(self._identifiers):
                candidate = canonical_pair(self._identifiers[next_i], self._identifiers[next_j])
                if candidate not in self._emitted and self._pair_is_valid(candidate):
                    self._priority.append(candidate)

    def _pair_is_valid(self, pair: Tuple[str, str]) -> bool:
        if self._allowed is not None and pair not in self._allowed:
            return False
        if self._bilateral_data is not None and not self._bilateral_data.is_valid_pair(*pair):
            return False
        return True

    # ------------------------------------------------------------------
    def schedule(self, data: ERInput, candidates: CandidateSource) -> Iterator[Comparison]:
        entries = sorted_order(data, self.sorting_key)
        self._identifiers = [identifier for _, identifier in entries]
        self._position_of = {identifier: index for index, identifier in enumerate(self._identifiers)}
        self._priority.clear()
        self._emitted.clear()
        self._bilateral_data = data if isinstance(data, CleanCleanTask) else None
        self._allowed = None
        if self.restrict_to_candidates and candidates is not None:
            self._allowed = candidate_columns(candidates).pairs()

        n = len(self._identifiers)
        if n < 2:
            return
        limit = self.max_distance if self.max_distance is not None else n - 1

        def emit(pair: Tuple[str, str]) -> Optional[Comparison]:
            if pair in self._emitted or not self._pair_is_valid(pair):
                return None
            self._emitted.add(pair)
            return Comparison(pair[0], pair[1])

        for distance in range(1, min(limit, n - 1) + 1):
            for index in range(0, n - distance):
                # priority (lookahead) pairs pre-empt the regular sweep
                while self._priority:
                    priority_pair = self._priority.popleft()
                    comparison = emit(priority_pair)
                    if comparison is not None:
                        yield comparison
                pair = canonical_pair(self._identifiers[index], self._identifiers[index + distance])
                comparison = emit(pair)
                if comparison is not None:
                    yield comparison
        # drain any remaining lookahead pairs
        while self._priority:
            comparison = emit(self._priority.popleft())
            if comparison is not None:
                yield comparison


class ProgressiveBlockScheduler(ProgressiveScheduler):
    """Block-at-a-time scheduling, smallest blocks first.

    Blocks are ranked by ascending ``(cardinality, key)`` (small blocks are
    the most match-dense per comparison) and every distinct pair is
    scheduled once, in the first block of that order holding it
    (:func:`candidate_columns` over the reordered blocks).  Candidates
    without block structure keep their own order.
    """

    name = "progressive_blocking"

    def rows(self, data: ERInput, candidates: CandidateSource) -> ScheduledRows:
        if isinstance(candidates, BlockCollection):
            columns = BlockColumns.from_collection(candidates)
            sizes, keys = columns.cardinalities().tolist(), columns.keys
            order = sorted(range(len(columns)), key=lambda b: (sizes[b], keys[b]))
            candidates = BlockCollection.from_columns(columns.taken(order))
        columns = candidate_columns(candidates)
        return ScheduledRows(columns.ids, columns)
