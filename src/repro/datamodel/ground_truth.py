"""Ground truth for evaluation: known equivalence clusters of descriptions.

The ground truth records which descriptions refer to the same real-world
entity.  It is stored both as equivalence clusters (one cluster per real-world
entity) and, lazily, as the induced set of matching pairs, which is what
pair-level metrics (pair completeness, pairs quality) consume.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datamodel.description import provenance
from repro.datamodel.pairs import canonical_pair


class GroundTruth:
    """Known matching pairs / equivalence clusters of description identifiers."""

    def __init__(self, clusters: Optional[Iterable[Iterable[str]]] = None) -> None:
        self._cluster_of: Dict[str, int] = {}
        self._clusters: List[Set[str]] = []
        self._pairs: Optional[FrozenSet[Tuple[str, str]]] = None
        self._num_matches: Optional[int] = None
        if clusters:
            for cluster in clusters:
                self.add_cluster(cluster)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cluster(self, identifiers: Iterable[str]) -> None:
        """Declare that all ``identifiers`` describe the same real-world entity."""
        members = [i for i in identifiers]
        if not members:
            return
        existing_clusters = {self._cluster_of[m] for m in members if m in self._cluster_of}
        if existing_clusters:
            # merge into the smallest-index existing cluster
            target = min(existing_clusters)
        else:
            target = len(self._clusters)
            self._clusters.append(set())
        for cluster_index in sorted(existing_clusters - {target}, reverse=True):
            absorbed = self._clusters[cluster_index]
            self._clusters[target].update(absorbed)
            for member in absorbed:
                self._cluster_of[member] = target
            self._clusters[cluster_index] = set()
        for member in members:
            self._clusters[target].add(member)
            self._cluster_of[member] = target
        self._pairs = None
        self._num_matches = None

    def add_match(self, first: str, second: str) -> None:
        """Declare a single matching pair (transitively closed with prior matches)."""
        self.add_cluster([first, second])

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, str]]) -> "GroundTruth":
        truth = cls()
        for first, second in pairs:
            truth.add_match(first, second)
        return truth

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def clusters(self) -> Tuple[FrozenSet[str], ...]:
        """Non-empty equivalence clusters (including singletons that were added)."""
        return tuple(frozenset(c) for c in self._clusters if c)

    def cluster_of(self, identifier: str) -> FrozenSet[str]:
        """Return the cluster containing ``identifier`` (a singleton if unknown)."""
        index = self._cluster_of.get(identifier)
        if index is None:
            return frozenset({identifier})
        return frozenset(self._clusters[index])

    def matching_pairs(self) -> FrozenSet[Tuple[str, str]]:
        """All canonical matching pairs induced by the clusters."""
        if self._pairs is None:
            pairs: Set[Tuple[str, str]] = set()
            for cluster in self._clusters:
                members = sorted(cluster)
                for i, first in enumerate(members):
                    for second in members[i + 1 :]:
                        pairs.add(canonical_pair(first, second))
            self._pairs = frozenset(pairs)
        return self._pairs

    def are_matches(self, first: str, second: str, resolve_merged: bool = True) -> bool:
        """Whether ``first`` and ``second`` describe the same real-world entity.

        When ``resolve_merged`` is true, identifiers produced by
        :func:`repro.datamodel.description.merge_descriptions` (of the form
        ``"a+b"``) are considered matches of another identifier if *any* of
        their constituent identifiers matches it; this is the semantics
        merging-based iterative ER requires.
        """
        if first == second:
            return True
        if not resolve_merged or ("+" not in first and "+" not in second):
            index_a = self._cluster_of.get(first)
            index_b = self._cluster_of.get(second)
            return index_a is not None and index_a == index_b
        parts_a = provenance(first)
        parts_b = provenance(second)
        for a in parts_a:
            for b in parts_b:
                if a == b:
                    return True
                index_a = self._cluster_of.get(a)
                index_b = self._cluster_of.get(b)
                if index_a is not None and index_a == index_b:
                    return True
        return False

    def cluster_indices(self, identifiers: Iterable[str]) -> List[int]:
        """Cluster index per identifier (-1 for unknown), in input order.

        One dictionary lookup per identifier -- the ordinal-coded ground
        truth the evaluation fast paths index by table ordinal, instead of
        one tuple-set probe per candidate *pair*: two known identifiers
        match exactly when their indices are equal.  Merged identifiers
        (``"a+b"``) are *not* resolved -- callers that may see them go
        through :meth:`are_matches`.
        """
        cluster_of = self._cluster_of
        return [cluster_of.get(identifier, -1) for identifier in identifiers]

    def num_matches(self) -> int:
        """Total number of matching pairs.

        Clusters are disjoint, so the count is a cached closed form over
        cluster sizes; the induced pair set is only materialised when a
        caller asks for :meth:`matching_pairs` itself.
        """
        if self._num_matches is None:
            self._num_matches = sum(
                len(cluster) * (len(cluster) - 1) // 2 for cluster in self._clusters
            )
        return self._num_matches

    def identifiers(self) -> FrozenSet[str]:
        return frozenset(self._cluster_of)

    def restricted_to(self, identifiers: Iterable[str]) -> "GroundTruth":
        """Ground truth restricted to a subset of identifiers (e.g. a sample)."""
        keep = set(identifiers)
        truth = GroundTruth()
        for cluster in self._clusters:
            members = [m for m in cluster if m in keep]
            if members:
                truth.add_cluster(members)
        return truth

    def __len__(self) -> int:
        return self.num_matches()

    def __repr__(self) -> str:
        return (
            f"GroundTruth(clusters={len(self.clusters)}, "
            f"matching_pairs={self.num_matches()})"
        )
