"""Meta-blocking: restructuring a block collection to prune unpromising comparisons.

Meta-blocking transforms a block collection into a *blocking graph* whose
nodes are descriptions and whose edges connect descriptions co-occurring in at
least one block (eliminating redundant comparisons by construction).  Every
edge receives a weight that estimates the matching likelihood of the adjacent
descriptions using block co-occurrence statistics only; low-weighted edges are
pruned.  The classical scheme combinations are:

* weighting: :data:`~repro.metablocking.weighting.CBS`, ``ECBS``, ``JS``,
  ``EJS``, ``ARCS``;
* pruning: weighted/cardinality edge pruning (WEP/CEP) and weighted/cardinality
  node pruning (WNP/CNP), plus their reciprocal variants.

Two interchangeable execution paths implement the restructuring, chosen by
the schemes' exact types:

* **index** (the standard schemes) -- :class:`~repro.metablocking.entity_index.EntityIndexEngine`
  stores block membership as flat integer arrays in CSR form with an interned
  identifier/ordinal mapping, stays in ordinal space from there on (weights
  and pruning run as ranged passes that expand a bounded batch of node
  neighbourhoods at a time) and hands back the retained comparisons as flat
  ``(first, second, weight)`` columns.  Pruned edges are never all resident:
  peak transient memory is one node batch plus the retained columns, not the
  number of graph edges, and the hot loops run over machine integers
  (vectorised with NumPy).  Pick it for anything beyond toy
  inputs.
* **graph** (any other scheme) -- :class:`~repro.metablocking.graph.BlockingGraph` materialises a
  dictionary entry per edge plus per-edge shared-block lists, and the pruning
  schemes in :mod:`repro.metablocking.pruning` materialise every weighted
  edge before filtering.  Memory and time are O(edges), but the code follows
  the paper's formulation line by line.  It is kept as the readable reference
  implementation, as the extension point for custom
  :class:`~repro.metablocking.weighting.WeightingScheme` /
  :class:`~repro.metablocking.pruning.PruningScheme` subclasses (which
  automatically fall back to it), and as the oracle of the equivalence test
  suite.

Both paths retain identical comparison sets for every (weighting x pruning)
combination; the equivalence suite holds the index path to
``pruning.prune(BlockingGraph(blocks), weighting)``.
"""

from repro.metablocking.entity_index import (
    INDEX_PRUNING_SCHEMES,
    INDEX_WEIGHTING_SCHEMES,
    EntityIndexEngine,
)
from repro.metablocking.graph import BlockingGraph, WeightedEdge
from repro.metablocking.pipeline import MetaBlocking
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningScheme,
    ReciprocalCardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)
from repro.metablocking.weighting import (
    ARCS,
    CBS,
    ECBS,
    EJS,
    JS,
    WeightingScheme,
    get_weighting_scheme,
)

__all__ = [
    "ARCS",
    "CBS",
    "ECBS",
    "EJS",
    "INDEX_PRUNING_SCHEMES",
    "INDEX_WEIGHTING_SCHEMES",
    "JS",
    "BlockingGraph",
    "CardinalityEdgePruning",
    "CardinalityNodePruning",
    "EntityIndexEngine",
    "MetaBlocking",
    "PruningScheme",
    "ReciprocalCardinalityNodePruning",
    "ReciprocalWeightedNodePruning",
    "WeightedEdge",
    "WeightedEdgePruning",
    "WeightedNodePruning",
    "WeightingScheme",
    "get_weighting_scheme",
]
