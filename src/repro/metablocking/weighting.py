"""Edge-weighting schemes for meta-blocking.

Every scheme estimates, from block co-occurrence statistics alone, how likely
the descriptions joined by an edge are to match.  The five classical schemes
are implemented:

* **CBS** (Common Blocks Scheme): the number of blocks the two descriptions
  share.  Rationale: the more blocks two descriptions co-occur in, the more
  tokens/keys they share.
* **ECBS** (Enhanced Common Blocks Scheme): CBS scaled by the (log of the)
  inverse number of blocks each description belongs to, discounting
  descriptions that appear in very many blocks.
* **JS** (Jaccard Scheme): the Jaccard coefficient of the two descriptions'
  block sets.
* **EJS** (Enhanced Jaccard Scheme): JS scaled by the (log of the) inverse
  node degree of each description, discounting descriptions involved in very
  many comparisons.
* **ARCS** (Aggregate Reciprocal Comparisons Scheme): the sum of ``1 /
  cardinality`` over the shared blocks -- co-occurrence in small blocks is
  stronger evidence than in huge ones.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Optional

from repro.metablocking.graph import BlockingGraph


class WeightingScheme(abc.ABC):
    """Interface of an edge-weighting scheme over a blocking graph."""

    name: str = "weighting"

    def prepare(self, graph: BlockingGraph) -> None:
        """Hook for schemes that need graph-level statistics (e.g. node degrees)."""

    @abc.abstractmethod
    def weight(self, graph: BlockingGraph, first: str, second: str) -> float:
        """Weight of the edge between ``first`` and ``second`` (assumed adjacent)."""


class CBS(WeightingScheme):
    """Common Blocks Scheme: number of shared blocks."""

    name = "CBS"

    def weight(self, graph: BlockingGraph, first: str, second: str) -> float:
        return float(graph.num_shared_blocks(first, second))


class ECBS(WeightingScheme):
    """Enhanced Common Blocks Scheme: CBS discounted by per-node block counts."""

    name = "ECBS"

    def weight(self, graph: BlockingGraph, first: str, second: str) -> float:
        shared = graph.num_shared_blocks(first, second)
        if shared == 0:
            return 0.0
        total_blocks = max(1, graph.total_blocks())
        blocks_first = max(1, graph.num_node_blocks(first))
        blocks_second = max(1, graph.num_node_blocks(second))
        return (
            shared
            * math.log10(total_blocks / blocks_first + 1.0)
            * math.log10(total_blocks / blocks_second + 1.0)
        )


class JS(WeightingScheme):
    """Jaccard Scheme: Jaccard coefficient of the two block sets."""

    name = "JS"

    def weight(self, graph: BlockingGraph, first: str, second: str) -> float:
        shared = graph.num_shared_blocks(first, second)
        if shared == 0:
            return 0.0
        union = (
            graph.num_node_blocks(first) + graph.num_node_blocks(second) - shared
        )
        return shared / union if union else 0.0


class EJS(WeightingScheme):
    """Enhanced Jaccard Scheme: JS discounted by node degrees (comparison counts)."""

    name = "EJS"

    def __init__(self) -> None:
        self._degrees: Dict[str, int] = {}
        self._total_edges = 0

    def prepare(self, graph: BlockingGraph) -> None:
        self._degrees = {node: graph.node_degree(node) for node in graph.nodes()}
        self._total_edges = max(1, graph.num_edges)

    def weight(self, graph: BlockingGraph, first: str, second: str) -> float:
        shared = graph.num_shared_blocks(first, second)
        if shared == 0:
            return 0.0
        union = graph.num_node_blocks(first) + graph.num_node_blocks(second) - shared
        jaccard = shared / union if union else 0.0
        degree_first = self._degrees.get(first) or graph.node_degree(first) or 1
        degree_second = self._degrees.get(second) or graph.node_degree(second) or 1
        return (
            jaccard
            * math.log10(self._total_edges / degree_first + 1.0)
            * math.log10(self._total_edges / degree_second + 1.0)
        )


class ARCS(WeightingScheme):
    """Aggregate Reciprocal Comparisons Scheme: sum of inverse shared-block cardinalities."""

    name = "ARCS"

    def weight(self, graph: BlockingGraph, first: str, second: str) -> float:
        total = 0.0
        for block_index in graph.shared_blocks(first, second):
            cardinality = graph.block_cardinality(block_index)
            if cardinality > 0:
                total += 1.0 / cardinality
        return total


_SCHEMES = {
    "CBS": CBS,
    "ECBS": ECBS,
    "JS": JS,
    "EJS": EJS,
    "ARCS": ARCS,
}

#: Names :func:`get_weighting_scheme` accepts (in any letter case).
WEIGHTING_SCHEMES = tuple(_SCHEMES)


def get_weighting_scheme(name: str) -> WeightingScheme:
    """Instantiate a weighting scheme by (case-insensitive) name."""
    key = name.upper()
    if key not in _SCHEMES:
        raise KeyError(f"unknown weighting scheme {name!r}; available: {sorted(_SCHEMES)}")
    return _SCHEMES[key]()
