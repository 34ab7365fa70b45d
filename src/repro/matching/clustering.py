"""Clustering of pairwise match decisions into equivalence clusters.

Pairwise decisions are rarely consistent (similarity is not transitive), so a
clustering step turns the weighted "match graph" into disjoint entity
clusters.  Three classical algorithms are provided:

* :class:`ConnectedComponentsClustering` -- transitive closure of all declared
  matches; maximises recall, sensitive to chaining errors.
* :class:`CenterClustering` -- greedy: edges are scanned heaviest-first, the
  first unassigned endpoint of an edge becomes a cluster *center* and the
  other endpoint joins it; later edges can only attach unassigned nodes to
  centers.
* :class:`MergeCenterClustering` -- like center clustering, but an edge
  between two existing centers merges their clusters.

Each algorithm has one body, over the flat ordinal columns of a
:class:`~repro.datamodel.pairs.DecisionColumns`: an
:class:`~repro.core.unionfind.IntUnionFind` (path halving, first-root-wins)
and flat assignment/center arrays instead of string-keyed dictionaries.  An
iterable of decision objects is interned into columns first
(:meth:`DecisionColumns.from_decisions
<repro.datamodel.pairs.DecisionColumns.from_decisions>`).  Rows are read in
canonical orientation -- the lexicographically smaller identifier first,
like ``decision.pair`` -- whatever orientation the columns store.

Output order
------------
Clusters are listed in the order their first member was assigned, members
being assigned in the order the scan touches them.

Tie-breaking
------------
Center and merge-center clustering scan edges *heaviest first*; edges of
equal weight are ordered by the canonical identifier pair ``(first, second)``
-- the same rule as
:meth:`~repro.datamodel.pairs.ComparisonColumns.weight_sorted` and
:class:`~repro.progressive.schedulers.WeightOrderScheduler`.  This order is
part of the algorithms' contract (it decides which endpoint of a tied edge
becomes a center) and is pinned by frozen fixtures
(``tests/fixtures/clustering/``), so the clusters of a run are reproducible
bit for bit.

:class:`~repro.matching.cluster_engine.ClusteringEngine` is the workflow's
clustering stage: it adds the pooled connected-components pass and
otherwise calls the algorithm's own :meth:`ClusteringAlgorithm.cluster`, so
a custom algorithm -- or a subclass overriding ``cluster`` -- runs its own
method.
"""

from __future__ import annotations

import abc
from array import array
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple, Union

import numpy as _np

from repro.core.unionfind import IntUnionFind
from repro.datamodel.pairs import (
    DecisionColumns,
    canonical_orientation,
    heaviest_first,
    identifier_ranks,
)
from repro.matching.matchers import MatchDecision

Decisions = Union[DecisionColumns, Iterable[MatchDecision]]


def as_columns(decisions: Decisions) -> DecisionColumns:
    """``decisions`` as columns: a :class:`DecisionColumns` as it is, any
    other iterable of decisions interned."""
    if isinstance(decisions, DecisionColumns):
        return decisions
    return DecisionColumns.from_decisions(decisions)


def group_by_root(
    links: IntUnionFind, order: Sequence[int], ids: Sequence[str]
) -> List[FrozenSet[str]]:
    """Clusters of the ``order``-ed ordinals, grouped by union-find root.

    Clusters come out in first-appearance order of their roots over
    ``order`` (the members in first-touch order).
    """
    groups: dict = {}
    for ordinal in order:
        groups.setdefault(links.find(ordinal), []).append(ordinal)
    return [frozenset(ids[member] for member in members) for members in groups.values()]


def _positive_edges_heaviest_first(columns: DecisionColumns) -> Tuple[List[int], List[int]]:
    """The canonical ``(first, second)`` ordinals of the positive decisions, heaviest first.

    Descending similarity, ties broken by the identifier ranks of the
    canonical pair (rank comparison equals string comparison).
    """
    first, second = canonical_orientation(columns.ids, columns.first, columns.second)
    positive = _np.flatnonzero(_np.frombuffer(columns.is_match, dtype=_np.uint8))
    first, second = first[positive], second[positive]
    similarity = _np.frombuffer(columns.similarity, dtype=_np.float64)[positive]
    order = heaviest_first(identifier_ranks(columns.ids), first, second, similarity)
    return first[order].tolist(), second[order].tolist()


class ClusteringAlgorithm(abc.ABC):
    """Interface: positive match decisions in, equivalence clusters out."""

    name = "clustering"

    @abc.abstractmethod
    def cluster(self, decisions: Decisions) -> List[FrozenSet[str]]:
        """Return disjoint clusters covering every identifier in a positive decision.

        ``decisions`` is a :class:`DecisionColumns` or any iterable of
        :class:`~repro.matching.matchers.MatchDecision` (iterating columns
        materialises decision objects lazily).
        """

    @staticmethod
    def clusters_to_pairs(clusters: Iterable[FrozenSet[str]]) -> Set[Tuple[str, str]]:
        """All matching pairs induced by the clusters (for evaluation).

        Materialises one tuple per within-cluster pair -- quadratic in the
        cluster size.  Callers that only need the *number* of induced pairs
        (precision/recall denominators) should use
        :meth:`count_cluster_pairs` instead, which is what the evaluation
        fast paths do.
        """
        pairs: Set[Tuple[str, str]] = set()
        for cluster in clusters:
            members = sorted(cluster)
            for i, first in enumerate(members):
                for second in members[i + 1 :]:
                    pairs.add((first, second))
        return pairs

    @staticmethod
    def count_cluster_pairs(clusters: Iterable[FrozenSet[str]]) -> int:
        """Number of matching pairs induced by the clusters, without building them.

        Equals ``len(clusters_to_pairs(clusters))`` for disjoint clusters, in
        O(number of clusters) instead of O(total pairs).
        """
        return sum(len(cluster) * (len(cluster) - 1) // 2 for cluster in clusters)


class ConnectedComponentsClustering(ClusteringAlgorithm):
    """Transitive closure of declared matches via union--find."""

    name = "connected_components"

    def cluster(self, decisions: Decisions) -> List[FrozenSet[str]]:
        columns = as_columns(decisions)
        ids = columns.ids
        first, second = canonical_orientation(columns.ids, columns.first, columns.second)
        links = IntUnionFind(len(ids))
        touched = bytearray(len(ids))
        order: List[int] = []
        for f, s, flag in zip(first.tolist(), second.tolist(), columns.is_match):
            if not flag:
                continue
            if not touched[f]:
                touched[f] = 1
                order.append(f)
            if not touched[s]:
                touched[s] = 1
                order.append(s)
            links.union(f, s)
        return group_by_root(links, order, ids)


class CenterClustering(ClusteringAlgorithm):
    """Greedy center clustering over edges sorted by descending similarity."""

    name = "center"

    def cluster(self, decisions: Decisions) -> List[FrozenSet[str]]:
        columns = as_columns(decisions)
        ids = columns.ids
        # center ordinal per assigned node, -1 while unassigned
        cluster_of = array("q", [-1]) * len(ids)
        is_center = bytearray(len(ids))
        order: List[int] = []  # nodes in assignment order

        for f, s in zip(*_positive_edges_heaviest_first(columns)):
            assigned_first = cluster_of[f] >= 0
            assigned_second = cluster_of[s] >= 0
            if not assigned_first and not assigned_second:
                # first becomes a center, second joins it
                cluster_of[f] = f
                is_center[f] = 1
                cluster_of[s] = f
                order.append(f)
                order.append(s)
            elif assigned_first and not assigned_second:
                if is_center[f]:
                    cluster_of[s] = f
                else:
                    # first is a non-center member: second starts its own cluster
                    cluster_of[s] = s
                    is_center[s] = 1
                order.append(s)
            elif assigned_second and not assigned_first:
                if is_center[s]:
                    cluster_of[f] = s
                else:
                    cluster_of[f] = f
                    is_center[f] = 1
                order.append(f)
            # both assigned: the edge is ignored (no merging in plain center clustering)

        groups: dict = {}
        for node in order:
            groups.setdefault(cluster_of[node], []).append(node)
        return [frozenset(ids[member] for member in members) for members in groups.values()]


class MergeCenterClustering(ClusteringAlgorithm):
    """Center clustering that merges clusters when an edge joins two centers."""

    name = "merge_center"

    def cluster(self, decisions: Decisions) -> List[FrozenSet[str]]:
        columns = as_columns(decisions)
        ids = columns.ids
        links = IntUnionFind(len(ids))
        is_center = bytearray(len(ids))
        assigned = bytearray(len(ids))
        order: List[int] = []  # nodes in assignment order

        for f, s in zip(*_positive_edges_heaviest_first(columns)):
            assigned_first = assigned[f]
            assigned_second = assigned[s]
            if not assigned_first and not assigned_second:
                is_center[f] = 1
                assigned[f] = 1
                assigned[s] = 1
                order.append(f)
                order.append(s)
                links.union(f, s)
            elif assigned_first and not assigned_second:
                assigned[s] = 1
                order.append(s)
                links.union(f, s)
            elif assigned_second and not assigned_first:
                assigned[f] = 1
                order.append(f)
                links.union(s, f)
            elif is_center[f] and is_center[s] and links.find(f) != links.find(s):
                # both assigned: merge only if both are centers
                links.union(f, s)

        return group_by_root(links, order, ids)
