"""The pay-as-you-go "sorted list of records" hint.

Descriptions are sorted by a blocking key (as in sorted neighbourhood) and
candidate pairs are emitted by *incrementally widening windows*: first all
pairs of adjacent descriptions (distance 1), then pairs at distance 2, and so
on.  Because descriptions with more similar blocking keys end up closer in the
sorted order, early windows are much denser in matches than later ones -- the
progressive behaviour the tutorial describes ("starting from a window of size
2, this heuristic favors comparisons of descriptions with more similar values
on their blocking keys").
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Set

from repro.blocking.sorted_neighborhood import default_sorting_key, sorted_order
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import pair_code
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    Row,
    ScheduledRows,
    candidate_positions,
)


class SortedListScheduler(ProgressiveScheduler):
    """Emit pairs of the sorted order at increasing distance.

    Parameters
    ----------
    sorting_key:
        Function mapping a description to its sorting key (default: the
        schema-agnostic concatenation of all values).
    max_distance:
        Largest distance (window size - 1) to emit; ``None`` goes on until the
        list is exhausted (distance ``n - 1``).
    restrict_to_candidates:
        When true (default), only pairs that also appear in the supplied
        candidate source (e.g. a block collection) are emitted, so the
        scheduler re-orders blocking output rather than bypassing it.  When
        false the sorted list itself defines the candidates.
    """

    name = "sorted_list"

    def __init__(
        self,
        sorting_key: Optional[Callable[[EntityDescription], str]] = None,
        max_distance: Optional[int] = None,
        restrict_to_candidates: bool = True,
    ) -> None:
        self.sorting_key = sorting_key or default_sorting_key
        self.max_distance = max_distance
        self.restrict_to_candidates = restrict_to_candidates

    def rows(self, data: ERInput, candidates: CandidateSource) -> ScheduledRows:
        entries = sorted_order(data, self.sorting_key)
        identifiers = [identifier for _, identifier in entries]
        n = len(identifiers)
        allowed: Optional[Set[int]] = None
        if self.restrict_to_candidates and candidates is not None:
            low, high = candidate_positions(candidates, dict(zip(identifiers, range(n))))
            allowed = set(map(pair_code, low.tolist(), high.tolist()))
        bilateral = data if isinstance(data, CleanCleanTask) else None
        limit = min(self.max_distance if self.max_distance is not None else n, n - 1)

        def rows() -> Iterator[Row]:
            # every position pair occurs at exactly one distance
            for distance in range(1, limit + 1):
                for index in range(0, n - distance):
                    partner = index + distance
                    if bilateral is not None and not bilateral.is_valid_pair(
                        identifiers[index], identifiers[partner]
                    ):
                        continue
                    if allowed is not None and pair_code(index, partner) not in allowed:
                        continue
                    yield index, partner, None

        return ScheduledRows(identifiers, rows())
