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

from itertools import repeat
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as _np

from repro.blocking.sorted_neighborhood import default_sorting_key
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import pair_code
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    ScheduledRows,
    candidate_positions,
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
        if self.restrict_to_candidates and candidates is not None:
            pairs = self._candidate_pairs(keys, ids, candidates)
        else:
            pairs = self._partition_pairs(keys, ids)
        rows = ((f, s, None) for f, s in pairs)
        if isinstance(data, CleanCleanTask):
            rows = (row for row in rows if data.is_valid_pair(ids[row[0]], ids[row[1]]))
        return ScheduledRows(ids, rows)

    def _partition_pairs(self, keys: Dict[str, str], ids: List[str]) -> Iterator[Tuple[int, int]]:
        """Every pair of every partition, level by level, each pair once."""
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
                        if code not in emitted:
                            emitted.add(code)
                            yield first, second

    def _candidate_pairs(
        self, keys: Dict[str, str], ids: List[str], candidates: CandidateSource
    ) -> List[Tuple[int, int]]:
        """The candidates in :meth:`_partition_pairs` order, sorted once by
        (first level whose non-empty prefixes they share, that partition's
        size, the prefix, first ordinal, second ordinal)."""
        first, second = candidate_positions(candidates, dict(zip(ids, range(len(ids)))))
        keyed: List[Tuple[int, ...]] = []
        for level, prefix_length in enumerate(self._levels()):
            prefixes = [keys[identifier][:prefix_length] for identifier in ids]
            names = {prefix: rank for rank, prefix in enumerate(sorted(set(prefixes)))}
            partition = _np.array([names[prefix] for prefix in prefixes], dtype=_np.int64)
            of = partition[first]
            shared = (of == partition[second]) & (of != names.get("", -1))
            of = of[shared]
            keyed += zip(
                repeat(level),
                _np.bincount(partition)[of].tolist(),
                of.tolist(),
                first[shared].tolist(),
                second[shared].tolist(),
            )
            first, second = first[~shared], second[~shared]
        keyed.sort()
        return [key[-2:] for key in keyed]
