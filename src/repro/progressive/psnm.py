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
  lookahead.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.blocking.base import BlockCollection
from repro.blocking.sorted_neighborhood import default_sorting_key, sorted_order
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison, canonical_pair
from repro.matching.matchers import MatchDecision
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    candidate_columns,
    candidate_comparisons,
)


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

    Blocks are initially ranked by ascending cardinality (small blocks are the
    most match-dense per comparison).  Every match reported through
    :meth:`feedback` promotes the remaining comparisons of the block that
    produced it to the front of the schedule.
    """

    name = "progressive_blocking"

    def __init__(self) -> None:
        self._promoted: Deque[Comparison] = deque()
        self._pending_by_block: Dict[str, Deque[Comparison]] = {}
        self._block_of_pair: Dict[Tuple[str, str], str] = {}
        self._emitted: Set[Tuple[str, str]] = set()

    def feedback(self, decision: MatchDecision) -> None:
        if not decision.is_match:
            return
        block_id = self._block_of_pair.get(decision.pair)
        if block_id is None:
            return
        pending = self._pending_by_block.get(block_id)
        if not pending:
            return
        while pending:
            self._promoted.append(pending.popleft())

    def schedule(self, data: ERInput, candidates: CandidateSource) -> Iterator[Comparison]:
        # every schedule starts afresh: a reused instance owes a second run
        # what a new one would give it
        self._promoted.clear()
        self._pending_by_block.clear()
        self._block_of_pair.clear()
        self._emitted.clear()
        if not isinstance(candidates, BlockCollection):
            # fall back to plain ordering when no block structure is available
            for comparison in candidate_comparisons(candidates):
                if comparison.pair not in self._emitted:
                    self._emitted.add(comparison.pair)
                    yield comparison
            return

        ordered_blocks = sorted(
            candidates, key=lambda block: (block.num_comparisons(), block.key)
        )
        seen_pairs: Set[Tuple[str, str]] = set()
        for block in ordered_blocks:
            queue: Deque[Comparison] = deque()
            for comparison in block.comparisons():
                if comparison.pair in seen_pairs:
                    continue
                seen_pairs.add(comparison.pair)
                queue.append(comparison)
                self._block_of_pair[comparison.pair] = block.key
            if queue:
                self._pending_by_block[block.key] = queue

        block_order = [block.key for block in ordered_blocks if block.key in self._pending_by_block]
        for block_id in block_order:
            pending = self._pending_by_block.get(block_id)
            while pending or self._promoted:
                # promoted comparisons (from blocks that just produced a match) go first
                if self._promoted:
                    comparison = self._promoted.popleft()
                elif pending:
                    comparison = pending.popleft()
                else:
                    break
                if comparison.pair in self._emitted:
                    continue
                self._emitted.add(comparison.pair)
                yield comparison
        # drain leftovers (blocks fully promoted elsewhere)
        for pending in self._pending_by_block.values():
            while pending:
                comparison = pending.popleft()
                if comparison.pair not in self._emitted:
                    self._emitted.add(comparison.pair)
                    yield comparison
