"""Edge-weighting schemes for meta-blocking.

Every scheme estimates, from block co-occurrence statistics alone, how likely
the descriptions joined by an edge are to match.  The five classical schemes
are implemented by :class:`~repro.metablocking.entity_index.EntityIndexEngine`;
a scheme object only names the one to run:

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


class WeightingScheme:
    """Base of the weighting schemes: a scheme is its :attr:`name`."""

    name: str = "weighting"


class CBS(WeightingScheme):
    """Common Blocks Scheme: number of shared blocks."""

    name = "CBS"


class ECBS(WeightingScheme):
    """Enhanced Common Blocks Scheme: CBS discounted by per-node block counts."""

    name = "ECBS"


class JS(WeightingScheme):
    """Jaccard Scheme: Jaccard coefficient of the two block sets."""

    name = "JS"


class EJS(WeightingScheme):
    """Enhanced Jaccard Scheme: JS discounted by node degrees (comparison counts)."""

    name = "EJS"


class ARCS(WeightingScheme):
    """Aggregate Reciprocal Comparisons Scheme: sum of inverse shared-block cardinalities."""

    name = "ARCS"


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
