"""Blocking schemes for entity resolution (Section II of the tutorial).

The package covers three families:

* **Traditional, schema-aware schemes** for relational records --
  :class:`~repro.blocking.standard.StandardBlocking`,
  :class:`~repro.blocking.standard.QGramsBlocking`,
  :class:`~repro.blocking.standard.ExtendedQGramsBlocking`,
  :class:`~repro.blocking.standard.SuffixArrayBlocking`,
  :class:`~repro.blocking.sorted_neighborhood.SortedNeighborhoodBlocking`,
  :class:`~repro.blocking.canopy.CanopyClusteringBlocking`.
* **Schema-agnostic schemes** for the Web of data --
  :class:`~repro.blocking.token_blocking.TokenBlocking`,
  :class:`~repro.blocking.token_blocking.AttributeClusteringBlocking`,
  :class:`~repro.blocking.token_blocking.PrefixInfixSuffixBlocking`,
  :class:`~repro.blocking.similarity_join.SimilarityJoinBlocking`,
  :class:`~repro.blocking.minhash.MinHashLSHBlocking`,
  :class:`~repro.blocking.multiblock.MultidimensionalBlocking`.
* **Block cleaning** -- :class:`~repro.blocking.cleaning.BlockPurging`,
  :class:`~repro.blocking.cleaning.BlockFiltering`,
  :class:`~repro.blocking.cleaning.ComparisonPropagation`.

Execution paths
---------------

Building and cleaning run behind
:class:`~repro.blocking.engine.BlockingEngine`.  The exact library builders
and cleaners run on flat integer columns (postings of description ordinals,
a CSR of block members, one ``lexsort`` for filtering, pairs deduplicated as
single integers); any other builder or cleaner -- subclasses included --
runs its own ``build`` / ``process``, the readable reference the
equivalence suite compares against.  A builder falling back announces
itself with a one-time :class:`RuntimeWarning` naming the scheme.  Both
paths produce block-for-block identical collections; see
:mod:`repro.blocking.engine` for the exact layout and guarantees.

Tie rules pinned by the array engines
-------------------------------------

The long-tail builders fix (and the bit-identity suite pins) the orderings
that make both engines reproducible:

* **sorted neighbourhood** (all three variants): entries sort by
  ``(key, identifier)``; windows keep members in sorted-entry order and the
  multi-pass variant prefixes window keys with the pass index.
* **canopy**: centre selection is the seeded shuffle of the input order,
  and every centre scans candidates in that same shuffled order.
* **minhash/LSH**: band keys order lexicographically by their formatted
  key string; per-band member order is description (posting) order.
* **similarity join**: tokens rank by ``(document frequency, token)``,
  records process shortest-first with identifier tie-breaks, and verified
  pairs emit in canonical pair order.
"""

from repro.blocking.base import Block, BlockBuilder, BlockCollection
from repro.blocking.canopy import CanopyClusteringBlocking
from repro.blocking.cleaning import (
    BlockFiltering,
    BlockPurging,
    ComparisonPropagation,
    adaptive_cardinality_threshold,
    clean_blocks,
)
from repro.blocking.engine import BlockingEngine
from repro.blocking.minhash import MinHashLSHBlocking, MinHashSignature
from repro.blocking.multiblock import MultidimensionalBlocking
from repro.blocking.similarity_join import SimilarityJoinBlocking
from repro.blocking.sorted_neighborhood import (
    ExtendedSortedNeighborhoodBlocking,
    MultiPassSortedNeighborhoodBlocking,
    SortedNeighborhoodBlocking,
    sorted_order,
)
from repro.blocking.standard import (
    ExtendedQGramsBlocking,
    QGramsBlocking,
    StandardBlocking,
    SuffixArrayBlocking,
    attribute_key,
    soundex,
    soundex_key,
)
from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
    cluster_attribute_profiles,
    cluster_attributes,
)

__all__ = [
    "AttributeClusteringBlocking",
    "Block",
    "BlockBuilder",
    "BlockCollection",
    "BlockFiltering",
    "BlockPurging",
    "BlockingEngine",
    "CanopyClusteringBlocking",
    "ComparisonPropagation",
    "ExtendedQGramsBlocking",
    "ExtendedSortedNeighborhoodBlocking",
    "MinHashLSHBlocking",
    "MinHashSignature",
    "MultiPassSortedNeighborhoodBlocking",
    "MultidimensionalBlocking",
    "PrefixInfixSuffixBlocking",
    "QGramsBlocking",
    "SimilarityJoinBlocking",
    "SortedNeighborhoodBlocking",
    "StandardBlocking",
    "SuffixArrayBlocking",
    "TokenBlocking",
    "adaptive_cardinality_threshold",
    "attribute_key",
    "clean_blocks",
    "cluster_attribute_profiles",
    "cluster_attributes",
    "sorted_order",
    "soundex",
    "soundex_key",
]
