"""The pay-as-you-go "hierarchy of record partitions" hint.

A hierarchy of partitions is built by applying different (increasingly loose)
similarity criteria: descriptions that agree on a long prefix of their sorting
key (or, equivalently, are similar under a tight threshold) are grouped at the
lower levels of the hierarchy, while looser criteria produce the coarser upper
levels.  Traversing the hierarchy bottom-up and emitting the comparisons of
each level before moving to its parent favours the resolution of highly
similar descriptions first, which is exactly the progressive behaviour the
heuristic is designed for.

The concrete partitioning criterion used here is the length of the shared
prefix of the (normalised, schema-agnostic) sorting key: level 0 groups
descriptions sharing a prefix of ``max_prefix`` characters, level 1 a prefix
of ``max_prefix - step`` characters, and so on until the single-character
prefix of the top level.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.blocking.sorted_neighborhood import default_sorting_key
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import pair_code
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    Row,
    ScheduledRows,
    candidate_codes,
)


class PartitionHierarchyScheduler(ProgressiveScheduler):
    """Bottom-up traversal of a prefix-based hierarchy of partitions.

    Parameters
    ----------
    sorting_key:
        Function mapping a description to the string on which the hierarchy
        is built.
    max_prefix:
        Prefix length of the deepest (tightest) level.
    step:
        How many characters of the prefix are dropped per level when moving up.
    restrict_to_candidates:
        When true, only pairs also present in the candidate source are
        emitted.
    """

    name = "partition_hierarchy"

    def __init__(
        self,
        sorting_key: Optional[Callable[[EntityDescription], str]] = None,
        max_prefix: int = 12,
        step: int = 3,
        restrict_to_candidates: bool = True,
    ) -> None:
        if max_prefix < 1:
            raise ValueError("max_prefix must be at least 1")
        if step < 1:
            raise ValueError("step must be at least 1")
        self.sorting_key = sorting_key or default_sorting_key
        self.max_prefix = max_prefix
        self.step = step
        self.restrict_to_candidates = restrict_to_candidates

    def _levels(self) -> List[int]:
        """Prefix lengths from the deepest level to the top (always ending at 1)."""
        lengths = list(range(self.max_prefix, 0, -self.step))
        if lengths[-1] != 1:
            lengths.append(1)
        return lengths

    def rows(self, data: ERInput, candidates: CandidateSource) -> ScheduledRows:
        # ordinals rank the identifiers, so a partition's members in ordinal
        # order are in identifier order and each row is canonically oriented
        keys = {d.identifier: self.sorting_key(d).replace(" ", "") for d in data}
        ids = sorted(keys)
        allowed: Optional[Set[int]] = None
        if self.restrict_to_candidates and candidates is not None:
            allowed = candidate_codes(candidates, dict(zip(ids, range(len(ids)))))
        task = data if isinstance(data, CleanCleanTask) else None

        def rows() -> Iterator[Row]:
            emitted: Set[int] = set()
            for prefix_length in self._levels():
                partitions: Dict[str, List[int]] = {}
                for ordinal, identifier in enumerate(ids):
                    prefix = keys[identifier][:prefix_length]
                    if prefix:
                        partitions.setdefault(prefix, []).append(ordinal)
                # deeper levels (longer prefixes) come first; within a level
                # smaller partitions first (their members are more distinctive)
                for prefix in sorted(partitions, key=lambda p: (len(partitions[p]), p)):
                    members = partitions[prefix]
                    for i, first in enumerate(members):
                        for second in members[i + 1 :]:
                            code = pair_code(first, second)
                            if code in emitted or (allowed is not None and code not in allowed):
                                continue
                            emitted.add(code)
                            if task is None or task.is_valid_pair(ids[first], ids[second]):
                                yield first, second, None

        return ScheduledRows(ids, rows())
