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

Execution
---------

Each builder's ``build(data, context=None)`` and each cleaner's ``process``
is the one body of its algorithm.  The token family, attribute clustering,
minhash/LSH, canopy, the sorted-neighbourhood variants and the similarity
join read the interned token columns of a
:class:`~repro.core.context.PipelineContext` -- the one passed in when it
owns the input, a private one otherwise -- and the token-keyed builds hand
their blocks on as :class:`~repro.blocking.columns.BlockColumns` postings;
the key-based schemes (standard, q-grams, suffix arrays) read the
descriptions and borrow only the context's identifier table.  Every builder
emits :class:`~repro.blocking.columns.BlockColumns`, the one form blocks
take.  Purging and filtering are passes over
the block columns.  Propagation walks the distinct pairs with
:meth:`BlockColumns.distinct_pairs
<repro.blocking.columns.BlockColumns.distinct_pairs>`; it, the similarity
join and multidimensional blocking emit their pair blocks through
:meth:`BlockColumns.from_pairs <repro.blocking.columns.BlockColumns.from_pairs>`.
:class:`~repro.blocking.engine.BlockingEngine` runs build and clean as one
workflow stage; a subclass that overrides ``build`` or ``process`` runs its
own method wherever it is used.

Tie rules
---------

The orderings that make every build reproducible (the seeded fixtures in
``tests/fixtures/blocking/`` pin them):

* **token family**: blocks come in sorted key order; members in
  description (ordinal) order, left before right for clean--clean input.
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
    "sorted_order",
    "soundex",
    "soundex_key",
]
