"""Progressive sorted neighbourhood (with local lookahead) and progressive blocking.

Two adaptive schedulers in the spirit of progressive duplicate detection:

* :class:`ProgressiveSortedNeighborhood` extends the sorted-list heuristic
  with a *local lookahead*: if the descriptions at sorted positions ``(i, j)``
  are found to match, the descriptions at ``(i+1, j)`` and ``(i, j+1)`` are
  compared immediately, because matches tend to appear in dense areas of the
  initial sorting.
* :class:`ProgressiveBlockScheduler` works on a block collection instead of a
  sorted list: blocks are visited in increasing cardinality order (small
  blocks are cheapest and densest in matches), and whenever a comparison of a
  block produces a match, the remaining comparisons of that block are
  promoted ahead of all other blocks -- the block-level analogue of the
  lookahead.  It reorders the blocks' columns and walks their distinct
  pairs once; each block's queue is a range of those rows.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.blocking.base import BlockCollection
from repro.blocking.columns import BlockColumns
from repro.blocking.sorted_neighborhood import default_sorting_key, sorted_order
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison, canonical_pair, pair_code
from repro.matching.matchers import MatchDecision
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    candidate_columns,
    candidate_comparisons,
)

import numpy as _np


class ProgressiveSortedNeighborhood(ProgressiveScheduler):
    """Sorted-list scheduling with local lookahead on matches.

    Parameters
    ----------
    sorting_key:
        Key function for the initial sorting.
    max_distance:
        Maximum sorted distance explored by the base (non-lookahead) sweep.
    lookahead:
        Whether the local lookahead is enabled; disabling it reduces the
        scheduler to the plain incrementally-widening sorted list (used as an
        ablation in benchmark E8).
    restrict_to_candidates:
        When true, only pairs present in the supplied candidate source are
        emitted.
    """

    name = "progressive_sorted_neighborhood"

    def __init__(
        self,
        sorting_key: Optional[Callable[[EntityDescription], str]] = None,
        max_distance: Optional[int] = None,
        lookahead: bool = True,
        restrict_to_candidates: bool = False,
    ) -> None:
        self.sorting_key = sorting_key or default_sorting_key
        self.max_distance = max_distance
        self.lookahead = lookahead
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
        if not self.lookahead or not decision.is_match:
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
    """Block-at-a-time scheduling with match-driven block promotion.

    Blocks are initially ranked by ascending ``(cardinality, key)`` (small
    blocks are the most match-dense per comparison).  Every distinct pair is
    queued once, in the first block of that order holding it
    (:meth:`BlockColumns.distinct_pairs
    <repro.blocking.columns.BlockColumns.distinct_pairs>` over the reordered
    columns), so a block's queue is the range of its rows.  Every match
    reported through :meth:`feedback` promotes the remaining comparisons of
    the block that queued it to the front of the schedule.
    """

    name = "progressive_blocking"

    def __init__(self) -> None:
        self._promoted: Deque[int] = deque()  # rows, emitted before any other
        # per block, its next pending row and one past its last row
        self._next: List[int] = []
        self._end: List[int] = []
        self._block_of: Dict[int, int] = {}  # ordinal pair code -> queueing block
        self._ordinal: Dict[str, int] = {}

    def feedback(self, decision: MatchDecision) -> None:
        if not decision.is_match:
            return
        first, second = map(self._ordinal.get, decision.pair)
        if first is None or second is None:
            return
        block = self._block_of.get(pair_code(first, second))
        if block is not None:
            self._promoted.extend(range(self._next[block], self._end[block]))
            self._next[block] = self._end[block]

    def schedule(self, data: ERInput, candidates: CandidateSource) -> Iterator[Comparison]:
        # every schedule starts afresh: a reused instance owes a second run
        # what a new one would give it
        self._promoted.clear()
        self._next, self._end, self._block_of, self._ordinal = [], [], {}, {}
        if not isinstance(candidates, BlockCollection):
            # no block structure: the distinct candidates in their order
            yield from candidate_comparisons(candidates)
            return

        np = _np
        columns = BlockColumns.from_collection(candidates)
        by_key = np.array(sorted(range(len(columns)), key=columns.keys.__getitem__), dtype=np.int64)
        columns = columns.taken(by_key[np.argsort(columns.cardinalities()[by_key], kind="stable")])
        first, second, block = columns.distinct_pairs()
        ptr = np.searchsorted(block, np.arange(len(columns) + 1)).tolist()
        self._next, self._end = ptr[:-1], ptr[1:]
        first, second, block = first.tolist(), second.tolist(), block.tolist()
        self._block_of = dict(zip(map(pair_code, first, second), block))
        self._ordinal = dict(zip(columns.ids, range(len(columns.ids))))

        ids, keys = columns.ids, columns.keys
        pending, promoted = self._next, self._promoted
        for current, end in enumerate(self._end):
            while True:
                # promoted rows (of blocks that just produced a match) go first
                if promoted:
                    row = promoted.popleft()
                elif pending[current] < end:
                    row = pending[current]
                    pending[current] += 1
                else:
                    break
                yield Comparison(ids[first[row]], ids[second[row]], block_id=keys[block[row]])
