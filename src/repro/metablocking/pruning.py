"""Pruning schemes for meta-blocking.

Given the weighted blocking graph, a pruning scheme decides which edges
(candidate comparisons) survive:

* **WEP** (Weighted Edge Pruning): keep the edges whose weight is at least
  the global average edge weight.
* **CEP** (Cardinality Edge Pruning): keep the globally top-``K`` edges, where
  ``K`` is half the total number of block assignments (the standard budget of
  the original formulation).
* **WNP** (Weighted Node Pruning): for every node keep its edges whose weight
  is at least the node-local average; an edge survives if either endpoint keeps it
  (the *redefined*, recall-oriented variant), or both endpoints for the
  reciprocal variant.
* **CNP** (Cardinality Node Pruning): for every node keep its top-``k`` edges
  with ``k`` derived from the average number of blocks per node; an edge
  survives if either endpoint keeps it, or both for the reciprocal variant.

Node-centric schemes retain at least some comparisons for every description,
which keeps recall high; edge-centric schemes enforce a global budget, which
maximises precision.  :class:`~repro.metablocking.entity_index.EntityIndexEngine`
runs all six; a scheme object is its name, plus CEP's ``budget`` or CNP's
``k``.
"""

from __future__ import annotations

from typing import Optional

from repro.blocking.base import check_count


class PruningScheme:
    """Base of the pruning schemes: a scheme is its :attr:`name`."""

    name: str = "pruning"


class WeightedEdgePruning(PruningScheme):
    """WEP: keep edges with weight at least the global average."""

    name = "WEP"


class CardinalityEdgePruning(PruningScheme):
    """CEP: keep the globally top-K edges.

    ``K`` defaults to half the total number of block assignments (sum of block
    sizes / 2), the budget used in the original meta-blocking formulation; a
    custom budget, ``None`` or an ``int >= 0``, can be supplied.
    """

    name = "CEP"

    def __init__(self, budget: Optional[int] = None) -> None:
        self.budget = budget if budget is None else check_count("budget", budget, 0)


class WeightedNodePruning(PruningScheme):
    """WNP: per-node average-weight threshold; an edge survives if either endpoint keeps it."""

    name = "WNP"


class ReciprocalWeightedNodePruning(WeightedNodePruning):
    """Reciprocal WNP: an edge survives only if both endpoints keep it."""

    name = "ReciprocalWNP"


class CardinalityNodePruning(PruningScheme):
    """CNP: per-node top-k edges; an edge survives if either endpoint keeps it.

    ``k`` (``None`` or an ``int >= 0``) defaults to ``max(1, round(total
    block assignments / num nodes) - 1)``, i.e. one less than the average
    number of blocks per description, as in the original formulation.
    """

    name = "CNP"

    def __init__(self, k: Optional[int] = None) -> None:
        self.k = k if k is None else check_count("k", k, 0)


class ReciprocalCardinalityNodePruning(CardinalityNodePruning):
    """Reciprocal CNP: an edge survives only if both endpoints keep it."""

    name = "ReciprocalCNP"


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
