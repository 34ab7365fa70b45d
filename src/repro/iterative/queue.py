"""The generic queue-driven iterative ER framework.

Iterative ER approaches are "typically composed of an initialization phase and
an iterative phase": the initialisation phase builds a queue of description
pairs to compare (optionally ordered), and the iterative phase repeatedly pops
a pair, resolves it, and -- depending on the decision -- updates the queue
(adds new pairs, re-orders existing ones, replaces descriptions with merge
results).  The process terminates when the queue is empty (or a budget is
exhausted).

:class:`ComparisonQueue` is the shared priority queue; :class:`QueueBasedResolver`
is the template that concrete iterative algorithms (merging-based,
relationship-based) specialise by overriding the initialisation and update
hooks.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.pairs import canonical_pair
from repro.matching.matchers import MatchDecision, Matcher


class ComparisonQueue:
    """A priority queue of comparisons (higher priority popped first).

    Entries can be re-prioritised or removed lazily; stale heap entries are
    skipped on pop.  Pairs are identified by their canonical form, so pushing
    the same pair twice only updates its priority.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Tuple[str, str]]] = []
        self._priorities: Dict[Tuple[str, str], float] = {}
        self._counter = itertools.count()

    def push(self, first: str, second: str, priority: float = 0.0) -> None:
        """Add a pair (or update its priority if already queued)."""
        pair = canonical_pair(first, second)
        self._priorities[pair] = priority
        heapq.heappush(self._heap, (-priority, next(self._counter), pair))

    def pop(self) -> Optional[Tuple[str, str]]:
        """Pop the highest-priority pair, or ``None`` when the queue is empty."""
        while self._heap:
            negative_priority, _, pair = heapq.heappop(self._heap)
            current = self._priorities.get(pair)
            if current is None:
                continue  # removed
            if -negative_priority != current:
                continue  # stale entry, a newer priority exists
            del self._priorities[pair]
            return pair
        return None

    def remove(self, first: str, second: str) -> None:
        """Remove a pair (lazy removal)."""
        self._priorities.pop(canonical_pair(first, second), None)

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        return canonical_pair(*pair) in self._priorities

    def __len__(self) -> int:
        return len(self._priorities)

    def priority_of(self, first: str, second: str) -> Optional[float]:
        return self._priorities.get(canonical_pair(first, second))


@dataclass
class IterativeResult:
    """Outcome of an iterative resolution run."""

    matches: List[Tuple[str, str]] = field(default_factory=list)
    comparisons_executed: int = 0
    iterations: int = 0
    queue_updates: int = 0
    clusters: List[FrozenSet[str]] = field(default_factory=list)

    @property
    def num_matches(self) -> int:
        return len(self.matches)


class QueueBasedResolver(abc.ABC):
    """Template of the initialisation + iteration framework.

    Concrete subclasses implement :meth:`initialize` (fill the queue) and
    :meth:`on_match` / :meth:`on_non_match` (queue updates); the driver
    :meth:`resolve` implements the iterative phase itself, including the
    optional comparison budget and already-compared-pair bookkeeping.
    """

    def __init__(self, matcher: Matcher, budget: Optional[int] = None) -> None:
        self.matcher = matcher
        self.budget = budget

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initialize(
        self, data: Union[EntityCollection, CleanCleanTask], queue: ComparisonQueue
    ) -> None:
        """Initialisation phase: fill the queue with the initial candidate pairs."""

    def on_match(
        self,
        data: Union[EntityCollection, CleanCleanTask],
        queue: ComparisonQueue,
        decision: MatchDecision,
        result: IterativeResult,
    ) -> None:
        """Update hook invoked after a pair is declared a match (default: no-op)."""

    def on_non_match(
        self,
        data: Union[EntityCollection, CleanCleanTask],
        queue: ComparisonQueue,
        decision: MatchDecision,
        result: IterativeResult,
    ) -> None:
        """Update hook invoked after a pair is declared a non-match (default: no-op)."""

    def descriptions_for(
        self, data: Union[EntityCollection, CleanCleanTask], first: str, second: str
    ):
        """Resolve the two identifiers to the descriptions that should be compared.

        Subclasses that maintain merged representations override this to
        substitute the current merged description of each identifier.
        """
        return data.get(first), data.get(second)

    # ------------------------------------------------------------------
    # driver (the iterative phase)
    # ------------------------------------------------------------------
    def resolve(self, data: Union[EntityCollection, CleanCleanTask]) -> IterativeResult:
        queue = ComparisonQueue()
        self.initialize(data, queue)
        result = IterativeResult()
        compared: Set[Tuple[str, str]] = set()

        while len(queue) > 0:
            if self.budget is not None and result.comparisons_executed >= self.budget:
                break
            pair = queue.pop()
            if pair is None:
                break
            if pair in compared:
                continue
            compared.add(pair)
            first, second = pair
            description_a, description_b = self.descriptions_for(data, first, second)
            if description_a is None or description_b is None:
                continue
            decision = self.matcher.decide(description_a, description_b)
            result.comparisons_executed += 1
            result.iterations += 1
            if decision.is_match:
                result.matches.append(pair)
                self.on_match(data, queue, decision, result)
            else:
                self.on_non_match(data, queue, decision, result)
        return result
