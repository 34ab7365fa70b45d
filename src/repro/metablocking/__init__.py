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

One engine runs every scheme pair:
:class:`~repro.metablocking.entity_index.EntityIndexEngine` stores block
membership as flat integer arrays in CSR form with an interned
identifier/ordinal mapping, stays in ordinal space from there on (weights and
pruning run as passes over the whole graph that expand a bounded batch of
node neighbourhoods at a time) and hands back the retained comparisons as flat
``(first, second, weight)`` columns.  Pruned edges are never all resident:
peak transient memory is one node batch plus the retained columns, not the
number of graph edges, and the hot loops run over machine integers
(vectorised with NumPy).  :class:`~repro.metablocking.pipeline.MetaBlocking`
accepts the library schemes, by name or as instances of a library scheme
class or a subclass of one (which runs as the library scheme it derives
from).  ``tests/fixtures/metablocking/seeded.json`` freezes what every
scheme pair retains.
"""

from repro.metablocking.entity_index import EntityIndexEngine, WeightedEdge
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
    "JS",
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
