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

from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.blocking.sorted_neighborhood import default_sorting_key
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison, canonical_pair
from repro.progressive.schedulers import CandidateSource, ERInput, ProgressiveScheduler, candidate_columns


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

    def schedule(self, data: ERInput, candidates: CandidateSource) -> Iterator[Comparison]:
        descriptions = list(data)
        keys: Dict[str, str] = {
            description.identifier: self.sorting_key(description).replace(" ", "")
            for description in descriptions
        }

        allowed = None
        if self.restrict_to_candidates and candidates is not None:
            allowed = candidate_columns(candidates).pairs()

        bilateral = isinstance(data, CleanCleanTask)
        emitted = set()

        for prefix_length in self._levels():
            partitions: Dict[str, List[str]] = {}
            for identifier, key in keys.items():
                prefix = key[:prefix_length]
                if not prefix:
                    continue
                partitions.setdefault(prefix, []).append(identifier)
            # deeper levels (longer prefixes) come first; within a level process
            # smaller partitions first (their members are more distinctive)
            for prefix in sorted(partitions, key=lambda p: (len(partitions[p]), p)):
                members = sorted(partitions[prefix])
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        first, second = members[i], members[j]
                        if bilateral and not data.is_valid_pair(first, second):
                            continue
                        pair = canonical_pair(first, second)
                        if pair in emitted:
                            continue
                        if allowed is not None and pair not in allowed:
                            continue
                        emitted.add(pair)
                        yield Comparison(pair[0], pair[1])
