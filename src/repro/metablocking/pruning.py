"""Pruning schemes for meta-blocking.

Given the weighted blocking graph, a pruning scheme decides which edges
(candidate comparisons) survive:

* **WEP** (Weighted Edge Pruning): keep the edges whose weight exceeds the
  global average edge weight.
* **CEP** (Cardinality Edge Pruning): keep the globally top-``K`` edges, where
  ``K`` is half the total number of block assignments (the standard budget of
  the original formulation).
* **WNP** (Weighted Node Pruning): for every node keep its edges whose weight
  exceeds the node-local average; an edge survives if either endpoint keeps it
  (the *redefined*, recall-oriented variant), or both endpoints for the
  reciprocal variant.
* **CNP** (Cardinality Node Pruning): for every node keep its top-``k`` edges
  with ``k`` derived from the average number of blocks per node; an edge
  survives if either endpoint keeps it, or both for the reciprocal variant.

Node-centric schemes retain at least some comparisons for every description,
which keeps recall high; edge-centric schemes enforce a global budget, which
maximises precision.
"""

from __future__ import annotations

import abc
import heapq
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.blocking.base import check_count
from repro.metablocking.graph import BlockingGraph, WeightedEdge
from repro.metablocking.weighting import WeightingScheme


class PruningScheme(abc.ABC):
    """Interface of a pruning scheme: weighted edges in, retained edges out."""

    name: str = "pruning"

    @abc.abstractmethod
    def prune(
        self, graph: BlockingGraph, weighting: WeightingScheme
    ) -> List[WeightedEdge]:
        """Return the retained (weighted) edges of the blocking graph."""

    # ------------------------------------------------------------------
    @staticmethod
    def _weighted_edges(
        graph: BlockingGraph, weighting: WeightingScheme
    ) -> List[WeightedEdge]:
        """Materialise every edge of the graph with its weight."""
        weighting.prepare(graph)
        edges = []
        for first, second in graph.edges():
            weight = weighting.weight(graph, first, second)
            edges.append(WeightedEdge(first, second, weight))
        return edges


class WeightedEdgePruning(PruningScheme):
    """WEP: keep edges with weight above the global average."""

    name = "WEP"

    def prune(self, graph: BlockingGraph, weighting: WeightingScheme) -> List[WeightedEdge]:
        edges = self._weighted_edges(graph, weighting)
        if not edges:
            return []
        # fsum: the exactly rounded mean is independent of accumulation order,
        # so the streaming entity-index engine reproduces it bit-for-bit
        threshold = math.fsum(edge.weight for edge in edges) / len(edges)
        return [edge for edge in edges if edge.weight > threshold or math.isclose(edge.weight, threshold) and edge.weight > 0]


class CardinalityEdgePruning(PruningScheme):
    """CEP: keep the globally top-K edges.

    ``K`` defaults to half the total number of block assignments (sum of block
    sizes / 2), the budget used in the original meta-blocking formulation; a
    custom budget, ``None`` or an ``int >= 0``, can be supplied.
    """

    name = "CEP"

    def __init__(self, budget: Optional[int] = None) -> None:
        self.budget = budget if budget is None else check_count("budget", budget, 0)

    def _default_budget(self, graph: BlockingGraph) -> int:
        total_assignments = sum(len(block) for block in graph.blocks)
        return max(1, total_assignments // 2)

    def prune(self, graph: BlockingGraph, weighting: WeightingScheme) -> List[WeightedEdge]:
        edges = self._weighted_edges(graph, weighting)
        if not edges:
            return []
        budget = self.budget if self.budget is not None else self._default_budget(graph)
        budget = min(budget, len(edges))
        # deterministic top-K: sort by (weight desc, pair asc)
        ranked = sorted(edges, key=lambda e: (-e.weight, e.first, e.second))
        return ranked[:budget]


class WeightedNodePruning(PruningScheme):
    """WNP: per-node average-weight threshold; an edge survives if either endpoint keeps it."""

    name = "WNP"

    #: If True, an edge must be kept by *both* endpoints (reciprocal variant).
    reciprocal = False

    def prune(self, graph: BlockingGraph, weighting: WeightingScheme) -> List[WeightedEdge]:
        edges = self._weighted_edges(graph, weighting)
        if not edges:
            return []
        # node-local incident weights; fsum keeps the per-node mean exactly
        # rounded (and therefore independent of edge enumeration order)
        incident: Dict[str, List[float]] = {}
        for edge in edges:
            for node in (edge.first, edge.second):
                incident.setdefault(node, []).append(edge.weight)
        thresholds = {node: math.fsum(weights) / len(weights) for node, weights in incident.items()}

        retained = []
        for edge in edges:
            keep_first = edge.weight >= thresholds[edge.first]
            keep_second = edge.weight >= thresholds[edge.second]
            keep = (keep_first and keep_second) if self.reciprocal else (keep_first or keep_second)
            if keep and edge.weight > 0:
                retained.append(edge)
        return retained


class ReciprocalWeightedNodePruning(WeightedNodePruning):
    """Reciprocal WNP: an edge survives only if both endpoints keep it."""

    name = "ReciprocalWNP"
    reciprocal = True


class CardinalityNodePruning(PruningScheme):
    """CNP: per-node top-k edges; an edge survives if either endpoint keeps it.

    ``k`` (``None`` or an ``int >= 0``) defaults to ``max(1, round(total
    block assignments / num nodes) - 1)``, i.e. one less than the average
    number of blocks per description, as in the original formulation.
    """

    name = "CNP"

    #: If True, an edge must be kept by *both* endpoints (reciprocal variant).
    reciprocal = False

    def __init__(self, k: Optional[int] = None) -> None:
        self.k = k if k is None else check_count("k", k, 0)

    def _default_k(self, graph: BlockingGraph) -> int:
        nodes = max(1, graph.num_nodes)
        total_assignments = sum(len(block) for block in graph.blocks)
        return max(1, int(round(total_assignments / nodes)) - 1)

    def prune(self, graph: BlockingGraph, weighting: WeightingScheme) -> List[WeightedEdge]:
        edges = self._weighted_edges(graph, weighting)
        if not edges:
            return []
        k = self.k if self.k is not None else self._default_k(graph)

        # per node, the k heaviest incident edges (deterministic tie-break)
        per_node: Dict[str, List[Tuple[float, str, str]]] = {}
        for edge in edges:
            entry = (edge.weight, edge.first, edge.second)
            for node in (edge.first, edge.second):
                per_node.setdefault(node, []).append(entry)

        kept_by_node: Dict[str, Set[Tuple[str, str]]] = {}
        for node, incident in per_node.items():
            top = heapq.nlargest(k, incident, key=lambda e: (e[0], e[1], e[2]))
            kept_by_node[node] = {(first, second) for _, first, second in top}

        retained = []
        for edge in edges:
            pair = (edge.first, edge.second)
            keep_first = pair in kept_by_node.get(edge.first, ())
            keep_second = pair in kept_by_node.get(edge.second, ())
            keep = (keep_first and keep_second) if self.reciprocal else (keep_first or keep_second)
            if keep and edge.weight > 0:
                retained.append(edge)
        return retained


class ReciprocalCardinalityNodePruning(CardinalityNodePruning):
    """Reciprocal CNP: an edge survives only if both endpoints keep it."""

    name = "ReciprocalCNP"
    reciprocal = True


_PRUNING = {
    "WEP": WeightedEdgePruning,
    "CEP": CardinalityEdgePruning,
    "WNP": WeightedNodePruning,
    "CNP": CardinalityNodePruning,
    "RECIPROCALWNP": ReciprocalWeightedNodePruning,
    "RECIPROCALCNP": ReciprocalCardinalityNodePruning,
}

#: Names :func:`get_pruning_scheme` accepts (in any letter case).
PRUNING_SCHEMES = tuple(scheme.name for scheme in _PRUNING.values())


def get_pruning_scheme(name: str, **kwargs) -> PruningScheme:
    """Instantiate a pruning scheme by (case-insensitive) name."""
    key = name.upper().replace("_", "")
    if key not in _PRUNING:
        raise KeyError(f"unknown pruning scheme {name!r}; available: {sorted(_PRUNING)}")
    return _PRUNING[key](**kwargs)
