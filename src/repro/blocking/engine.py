"""Blocking and block cleaning on columns.

:class:`BlockingEngine` runs the paper's first pillar -- schema-agnostic
token blocking, block purging, block filtering, comparison propagation -- as
passes over *(block, description ordinal)* assignments, never over strings.
The form blocks travel in is :class:`~repro.blocking.columns.BlockColumns`:
the block keys in sorted-key order, a CSR of member ordinals into one
identifier table and the left-member count of every block.  The
:class:`~repro.blocking.base.BlockCollection` the engine returns is a lazy
view over those columns; :class:`~repro.blocking.base.Block` objects exist
only if somebody iterates it (the default workflow never does:
:meth:`EntityIndexEngine.from_columns
<repro.metablocking.entity_index.EntityIndexEngine.from_columns>` takes the
columns as they are).

* **Index path** (the exact library types) --

  **Building**: :class:`TokenBlocking` and
  :class:`PrefixInfixSuffixBlocking` read the merged token-id column of a
  :class:`~repro.core.context.PipelineContext` -- the shared one when it owns
  the input, a private one otherwise, so there is one token-build path.  One
  stable argsort of the column by token id groups it into postings with
  ascending ordinals (prefix--infix--suffix interns its URI keys per
  description first); ``member_limit``, the degenerate-block rules and the
  sorted-key order are masks and one gather over the posting sizes
  (:meth:`BlockColumns.from_postings
  <repro.blocking.columns.BlockColumns.from_postings>`).
  :class:`AttributeClusteringBlocking` reads the context's per-attribute
  columns, so the same interned id sets feed the attribute clustering
  (:func:`cluster_attribute_profiles`) and the blocking keys.

  **Cleaning**: whatever arrives as objects (the long-tail builders, oracle
  builds, user collections) is interned once by
  :meth:`BlockColumns.from_collection
  <repro.blocking.columns.BlockColumns.from_collection>`; a collection the
  engine built is already columns.  Then

  - purging is a mask over the cardinality column, with the threshold from
    :func:`adaptive_cardinality_threshold`, which the oracle shares;
  - filtering ranks each description's assignments by block cardinality in
    one global ``np.lexsort`` (stable, so block order breaks ties exactly
    like the oracle's per-entity sort) and keeps the flagged assignments
    with one compress and one ``bincount`` for the new block sizes
    (:meth:`BlockColumns.select
    <repro.blocking.columns.BlockColumns.select>`);
  - comparison propagation deduplicates pairs as single integers
    (``(min ordinal << 32) | max ordinal``) instead of canonical string
    tuples, emitting first-occurrence pair blocks in the oracle's exact
    order.

  **Long-tail families**: the minhash/LSH, canopy, sorted-neighbourhood
  (single-, extended- and multi-pass) and similarity-self-join schemes have
  array builds in their own modules, dispatched through ``_ARRAY_BUILDS``
  with the same exact-type rule and the same signature -- signatures as one
  integer matrix, canopies from token postings, windows from one sorted
  pass, prefix filtering over sorted-id columns with columnar verification.

* **Oracle path** -- delegates to the legacy builders/cleaners, which
  remain the readable reference implementation (the equivalence suite,
  ``tests/test_blocking_equivalence.py``, calls ``builder.build`` and
  ``cleaner.process`` directly) and the path user builders take into the
  workflow -- every scheme the index path does not natively support:
  custom :class:`~repro.blocking.base.BlockBuilder` implementations,
  subclasses of the supported builders (whose overridden ``tokens_of`` /
  ``build`` the columnar path cannot see), and subclasses of the cleaner
  classes.  A builder falling back emits a one-time
  :class:`RuntimeWarning` naming the scheme, so the cliff is visible.

Both paths produce block-for-block identical collections -- same blocks,
same deterministic key order, same member order within every block -- so
swapping them never changes a workflow's output, only its speed.  The
cleaning passes assume well-formed bilateral blocks (no identifier occurring
on both sides of one block, the same malformed shape the meta-blocking
engines reject).
"""

from __future__ import annotations

import warnings
from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.blocking.base import Block, BlockBuilder, BlockCollection, ERInput
from repro.blocking.canopy import CanopyClusteringBlocking
from repro.blocking.canopy import _index_build as _canopy_index_build
from repro.blocking.cleaning import (
    BlockFiltering,
    BlockPurging,
    adaptive_cardinality_threshold,
)
from repro.blocking.columns import BlockColumns, int_view
from repro.blocking.columns import add_block as _add_block
from repro.blocking.columns import append_posting as _append_posting
from repro.blocking.minhash import MinHashLSHBlocking
from repro.blocking.minhash import _index_build as _minhash_index_build
from repro.blocking.similarity_join import SimilarityJoinBlocking
from repro.blocking.similarity_join import _index_build as _join_index_build
from repro.blocking.sorted_neighborhood import (
    ExtendedSortedNeighborhoodBlocking,
    MultiPassSortedNeighborhoodBlocking,
    SortedNeighborhoodBlocking,
)
from repro.blocking.sorted_neighborhood import _index_build as _sn_index_build
from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
    cluster_attribute_profiles,
)
from repro.core.context import PipelineContext
from repro.datamodel.pairs import canonical_pair, identifier_ranks, stable_argsort
from repro.text.tokenize import uri_tokens

import numpy as _np

#: Builders with a native index-engine implementation.  Exact type checks:
#: subclasses may override ``tokens_of``/``build`` in ways the columnar path
#: cannot replicate, so they fall back to the oracle.
_INDEX_BUILDERS = (TokenBlocking, PrefixInfixSuffixBlocking, AttributeClusteringBlocking)

#: Long-tail scheme families with an array build in their own module.  Same
#: exact-type rule as ``_INDEX_BUILDERS``; each build function has the
#: signature ``(builder, data, context) -> BlockCollection``.
_ARRAY_BUILDS = {
    MinHashLSHBlocking: _minhash_index_build,
    CanopyClusteringBlocking: _canopy_index_build,
    SortedNeighborhoodBlocking: _sn_index_build,
    ExtendedSortedNeighborhoodBlocking: _sn_index_build,
    MultiPassSortedNeighborhoodBlocking: _sn_index_build,
    SimilarityJoinBlocking: _join_index_build,
}


def _context_token_build(builder: TokenBlocking, context) -> BlockColumns:
    """Token / prefix--infix--suffix build over a context's columns.

    The keys of a description are the context's merged distinct ids filtered
    by the builder's stop words and minimum token length (the admission rule
    ``token_set`` applies while tokenising), so the key set per description
    is the oracle's by construction.  The postings -- token ids, a pointer
    column and the member ordinals, ascending inside each posting -- come
    from one stable argsort of the whole column for plain token blocking,
    and from a walk over the per-description slices for prefix--infix--suffix
    blocking, which interns URI keys per description.
    """
    token_filter = context.token_filter(builder.stop_words, builder.min_token_length)
    if type(builder) is not PrefixInfixSuffixBlocking:
        np = _np
        ptr, ids, _counts = context.token_columns()
        token_ids = int_view(ids)
        ordinals = np.repeat(np.arange(len(ptr) - 1), np.diff(int_view(ptr)))
        if not token_filter.trivial:
            mask = np.frombuffer(token_filter.mask(context.vocabulary_size), dtype=np.bool_)
            admitted = mask[token_ids]
            token_ids, ordinals = token_ids[admitted], ordinals[admitted]
        # stable: the ordinals stay ascending inside every posting
        order = stable_argsort(token_ids, context.vocabulary_size)
        sorted_ids = token_ids[order]
        # a posting starts wherever the sorted id changes (ids are >= 0)
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        tokens = sorted_ids[starts].tolist()
        posting_ptr = np.append(starts, len(sorted_ids))
        members = ordinals[order]
    else:
        trivial = token_filter.trivial
        allows = token_filter.allows
        ids = context.ids
        postings: Dict[int, array] = {}
        stop_words = builder.stop_words
        min_token_length = builder.min_token_length
        for ordinal in range(context.num_descriptions):
            token_ids, _counts = context.token_counts(ordinal)
            # value tokens plus the URI-derived keys; the infix keys may
            # overlap the value tokens, so the per-description key set is
            # deduplicated exactly like the oracle's ``tokens_of`` set union
            keys = {t for t in token_ids if trivial or allows(t)}
            _, infix, infix_tokens = uri_tokens(ids[ordinal])
            if infix:
                keys.add(context.intern(infix.lower()))
            for token in infix_tokens:
                if len(token) >= min_token_length and token not in stop_words:
                    keys.add(context.intern(token))
            for key in keys:
                _append_posting(postings, key, ordinal)
        tokens = list(postings)
        posting_ptr, members = array("q", [0]), array("q")
        for posting in postings.values():
            members.extend(posting)
            posting_ptr.append(len(members))
    return BlockColumns.from_postings(
        list(map(context._tokens.__getitem__, tokens)),
        posting_ptr,
        members,
        context.ids,
        context.left_count,
        builder.member_limit(context.num_descriptions),
    )


def _index_attribute_clustering_build(
    builder: AttributeClusteringBlocking, context
) -> BlockCollection:
    """Index-engine build for attribute-clustering blocking.

    No tokenisation pass: the per-attribute token-id sets are the context's
    columns filtered by the builder's stop words and minimum token length,
    and they feed both the attribute clustering (Jaccard over id sets equals
    Jaccard over the oracle's string sets, and
    :func:`cluster_attribute_profiles` is the very code the oracle runs) and
    the blocking keys, so the two stages agree on tokenisation by
    construction.
    """
    ids = context.ids
    token_filter = context.token_filter(builder.stop_words, builder.min_token_length)
    trivial = token_filter.trivial
    allows = token_filter.allows

    tokenised: List[List[Tuple[str, List[int]]]] = []
    attribute_profiles: Dict[str, Set[int]] = {}
    for ordinal in range(context.num_descriptions):
        entries: List[Tuple[str, List[int]]] = []
        for attribute, attr_ids, _counts in context.attribute_entries(ordinal):
            token_ids = [t for t in attr_ids if trivial or allows(t)]
            profile = attribute_profiles.get(attribute)
            if profile is None:
                attribute_profiles[attribute] = profile = set()
            profile.update(token_ids)
            if token_ids:
                entries.append((attribute, token_ids))
        tokenised.append(entries)

    clusters = cluster_attribute_profiles(attribute_profiles, builder.similarity_threshold)

    postings: Dict[Tuple[int, int], array] = {}
    for ordinal, entries in enumerate(tokenised):
        keys: Set[Tuple[int, int]] = set()
        for attribute, token_ids in entries:
            cluster_id = clusters.get(attribute, 0)
            for token_id in token_ids:
                keys.add((cluster_id, token_id))
        for key in keys:
            _append_posting(postings, key, ordinal)

    limit = builder.member_limit(len(ids))
    collection = BlockCollection(name=builder.name)
    token_of = context.token
    for key, pair in sorted(
        (f"c{cluster_id}#{token_of(token_id)}", (cluster_id, token_id))
        for cluster_id, token_id in postings
    ):
        posting = postings[pair]
        if limit is not None and len(posting) > limit:
            continue
        _add_block(collection, key, posting, ids, context.left_count)
    return collection


# ----------------------------------------------------------------------
# index cleaning passes
# ----------------------------------------------------------------------
def _index_purge(columns: BlockColumns, purging: BlockPurging) -> BlockColumns:
    """Purging: a mask over the cardinality column."""
    cards = columns.cardinalities()
    if purging.max_comparisons is not None:
        threshold = purging.max_comparisons
    else:
        ascending = _np.sort(cards).tolist()
        threshold = adaptive_cardinality_threshold(ascending, purging.smoothing_factor)
    sizes = _np.diff(int_view(columns.blk_ptr))
    return columns.select(_np.repeat(cards <= threshold, sizes))


def _index_filter(columns: BlockColumns, filtering: BlockFiltering) -> BlockColumns:
    """Filtering: rank every description's assignments, keep the flagged ones.

    Every description keeps the assignments to its ``ceil(ratio * degree)``
    smallest blocks (at least one).  All assignments are ranked in one
    stable ``lexsort`` by (entity, cardinality) -- stability preserves the
    block-major layout, i.e. ascending block index, as the tie-break,
    exactly like the oracle's per-entity ``(cardinality, block index)``
    sort.
    """
    np = _np
    ratio = filtering.ratio
    cards = columns.cardinalities()
    ent_of = int_view(columns.members)
    card_of = np.repeat(cards, np.diff(int_view(columns.blk_ptr)))
    order = np.lexsort((card_of, ent_of))
    ent_sorted = ent_of[order]
    degrees = np.bincount(ent_of, minlength=len(columns.ids))
    ent_ptr = np.concatenate(([0], np.cumsum(degrees)))
    rank = np.arange(len(ent_of)) - ent_ptr[ent_sorted]
    keep_counts = np.maximum(1, np.ceil(ratio * degrees)).astype(np.int64)
    flags = np.zeros(len(ent_of), dtype=np.bool_)
    flags[order[rank < keep_counts[ent_sorted]]] = True
    return columns.select(flags)


def _index_propagate(blocks: BlockCollection, parallel=None) -> BlockCollection:
    """Comparison propagation: integer-coded pair deduplication.

    Pairs are deduplicated as single ``int64`` codes over description
    ordinals (the bound :func:`~repro.datamodel.pairs.pair_code` assumes:
    fewer than ``2**31`` ordinals); blocks and within-block comparisons are
    visited in the oracle's order, so the first-occurrence pair blocks come
    out in the identical sequence (and with the identical left/right
    orientation, which the oracle takes from the first block that proposes
    the pair).
    """
    columns = BlockColumns.from_collection(blocks)
    name = f"{blocks.name}/propagated"
    if parallel is not None and len(columns):
        # ranged worker passes with driver-side first-occurrence resolution;
        # emission order, keys and orientation match the sequential pass
        out = parallel.propagate_pairs(columns)
    else:
        out = _propagate(columns)
    deduplicated = BlockCollection(name=name)
    deduplicated._extend_trusted(out)
    return deduplicated


def _propagate(columns: BlockColumns) -> List[Block]:
    """Vectorised propagation; peak memory is O(aggregate comparisons).

    The full code/endpoint arrays are materialised before the global
    ``np.unique`` (~24 bytes per redundant comparison), trading a transient
    spike for per-pair Python work.  For inputs whose aggregate cardinality
    vastly exceeds the distinct pair count -- e.g. unpurged collections with
    extreme redundancy -- purge first, as the workflow does.
    """
    np = _np
    ids = columns.ids
    members = int_view(columns.members)
    code_chunks: List = []
    a_chunks: List = []
    b_chunks: List = []
    #: per chunk: the generating block's left-ordinal set, or None (unilateral)
    chunk_left: List[Optional[Set[int]]] = []
    chunk_sizes: List[int] = []
    for start, stop, split in zip(columns.blk_ptr, columns.blk_ptr[1:], columns.split):
        if split >= 0:
            left = members[start : start + split]
            right = members[start + split : stop]
            a = np.repeat(left, len(right))
            b = np.tile(right, len(left))
            self_pairs = a == b
            if self_pairs.any():  # fail on the first self-pair, like the oracle
                member = ids[int(a[int(np.argmax(self_pairs))])]
                canonical_pair(member, member)
            chunk_left.append(set(left.tolist()))
        else:
            flat = members[start:stop]
            upper_i, upper_j = np.triu_indices(len(flat), 1)
            a = flat[upper_i]
            b = flat[upper_j]
            chunk_left.append(None)
        code_chunks.append(np.minimum(a, b) << 32 | np.maximum(a, b))
        a_chunks.append(a)
        b_chunks.append(b)
        chunk_sizes.append(len(a))
    if not code_chunks:
        return []

    codes = np.concatenate(code_chunks)
    a_all = np.concatenate(a_chunks)
    b_all = np.concatenate(b_chunks)
    # np.unique returns each code's first occurrence in the concatenated
    # (= oracle generation) order; re-sorting those positions restores the
    # oracle's emission order exactly
    _uniques, first_positions = np.unique(codes, return_index=True)
    first_positions.sort()
    a_sel = a_all[first_positions]
    b_sel = b_all[first_positions]

    # the emission loop runs once per distinct pair and dominates large
    # propagations, so the Block construction is inlined (__new__ + slot
    # assignment, the trusted equivalent of Block.pair/bilateral_pair)
    out: List[Block] = []
    append = out.append
    new_block = Block.__new__
    empty = ()
    if all(left_set is None for left_set in chunk_left):  # purely unilateral
        # canonical pair order resolved vectorised: comparing identifier
        # ranks reproduces the per-pair `id_a < id_b` checks
        rank = identifier_ranks(ids)
        swap = rank[b_sel] < rank[a_sel]
        first_list = np.where(swap, b_sel, a_sel).tolist()
        second_list = np.where(swap, a_sel, b_sel).tolist()
        for a, b in zip(first_list, second_list):
            id_a, id_b = ids[a], ids[b]
            block = new_block(Block)
            block.key = f"pair:{id_a}|{id_b}"
            block._members = (id_a, id_b)
            block._left = empty
            block._right = empty
            append(block)
    else:
        a_list = a_sel.tolist()
        b_list = b_sel.tolist()
        offsets = np.cumsum(np.asarray(chunk_sizes, dtype=np.int64))
        chunk_list = np.searchsorted(offsets, first_positions, side="right").tolist()
        for a, b, chunk in zip(a_list, b_list, chunk_list):
            id_a, id_b = ids[a], ids[b]
            left_set = chunk_left[chunk]
            block = new_block(Block)
            if left_set is None:
                if id_a < id_b:
                    block.key = f"pair:{id_a}|{id_b}"
                    block._members = (id_a, id_b)
                else:
                    block.key = f"pair:{id_b}|{id_a}"
                    block._members = (id_b, id_a)
                block._left = empty
                block._right = empty
            else:
                if id_a < id_b:
                    first, second, first_ordinal = id_a, id_b, a
                else:
                    first, second, first_ordinal = id_b, id_a, b
                block.key = f"pair:{first}|{second}"
                block._members = empty
                if first_ordinal in left_set:
                    block._left = (first,)
                    block._right = (second,)
                else:
                    block._left = (second,)
                    block._right = (first,)
            append(block)
    return out


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class BlockingEngine:
    """Block building and cleaning on the index path, the oracle as fallback.

    Parameters
    ----------
    builder:
        The blocking scheme to execute (default: :class:`TokenBlocking`).
        The index engine natively supports :class:`TokenBlocking`,
        :class:`PrefixInfixSuffixBlocking` and
        :class:`AttributeClusteringBlocking` (exact types); every other
        builder -- including subclasses -- transparently falls back to its
        own ``build``, so the engine is always safe to use.
    context:
        Optional shared :class:`~repro.core.context.PipelineContext`.  When
        given and the context owns the input data, the index builders read
        its interned token columns and the blocks speak its ordinals -- the
        single-interning guarantee of the shared pipeline context.  For data
        the context does not own (or without one) the index builders intern
        a private context.  Ignored by builders without an index
        implementation.
    parallel:
        Optional :class:`~repro.mapreduce.parallel.ParallelEngine`.
        Comparison propagation fans out over it; building, purging and
        filtering run on the driver's column kernels either way (shipping
        their columns costs more than the kernels do).

    Notes
    -----
    :attr:`last_engine` reports which engine actually executed the most
    recent :meth:`build` or :meth:`clean` call (``"index"`` or
    ``"oracle"``); a :meth:`clean` call that mixes native cleaners with
    custom subclasses reports ``"oracle"``.
    """

    def __init__(
        self,
        builder: Optional[BlockBuilder] = None,
        context=None,
        parallel=None,
    ) -> None:
        self.builder = builder if builder is not None else TokenBlocking()
        self.context = context
        self.parallel = parallel
        #: engine that actually executed the last build/clean call
        self.last_engine: Optional[str] = None
        self._warned_fallback = False

    # ------------------------------------------------------------------
    @property
    def build_index_applicable(self) -> bool:
        """Whether :meth:`build` will run on the index engine."""
        return type(self.builder) in _INDEX_BUILDERS or type(self.builder) in _ARRAY_BUILDS

    def build(self, data: ERInput) -> BlockCollection:
        """Build the blocks of ``data`` with the configured builder."""
        if self.build_index_applicable:
            self.last_engine = "index"
            builder = self.builder
            context = self.context
            if context is None or not context.owns(data):
                context = PipelineContext(data)
            array_build = _ARRAY_BUILDS.get(type(builder))
            if array_build is not None:
                return array_build(builder, data, context)
            if type(builder) is AttributeClusteringBlocking:
                return _index_attribute_clustering_build(builder, context)
            columns = _context_token_build(builder, context)
            return BlockCollection.from_columns(columns, name=builder.name)
        self.last_engine = "oracle"
        if not self._warned_fallback:
            self._warned_fallback = True
            warnings.warn(
                f"blocking scheme {type(self.builder).__name__} "
                f"({self.builder.name!r}) has no index-engine implementation; "
                "falling back to the object-path oracle build",
                RuntimeWarning,
                stacklevel=2,
            )
        return self.builder.build(data)

    def clean(
        self,
        blocks: BlockCollection,
        purging: Optional[BlockPurging] = None,
        filtering: Optional[BlockFiltering] = None,
        propagate: bool = False,
    ) -> BlockCollection:
        """Purging, then filtering, then optional comparison propagation.

        Mirrors :func:`repro.blocking.cleaning.clean_blocks`; each step runs
        on the index engine when its cleaner is the exact library class, and
        falls back to the cleaner's own ``process`` otherwise (custom
        subclasses may override behaviour the column kernels cannot see).
        """
        result = blocks
        oracle_used = False
        steps = (
            (purging, BlockPurging, _index_purge, "purged"),
            (filtering, BlockFiltering, _index_filter, "filtered"),
        )
        for cleaner, library_type, kernel, suffix in steps:
            if cleaner is None:
                continue
            if type(cleaner) is library_type:
                columns = kernel(BlockColumns.from_collection(result), cleaner)
                result = BlockCollection.from_columns(columns, name=f"{result.name}/{suffix}")
            else:
                oracle_used = True
                result = cleaner.process(result)
        if propagate:
            result = _index_propagate(result, parallel=self.parallel)
        self.last_engine = "oracle" if oracle_used else "index"
        return result

    def run(
        self,
        data: ERInput,
        purging: Optional[BlockPurging] = None,
        filtering: Optional[BlockFiltering] = None,
        propagate: bool = False,
    ) -> BlockCollection:
        """Convenience: :meth:`build` followed by :meth:`clean`.

        Afterwards :attr:`last_engine` aggregates over both phases: it
        reads ``"index"`` only when the build *and* every cleaning step ran
        on the index engine, and ``"oracle"`` as soon as either phase fell
        back.  Call :meth:`build` and :meth:`clean` separately (as
        :class:`~repro.core.workflow.ERWorkflow` does) to observe the
        per-phase engine.
        """
        built = self.build(data)
        build_engine = self.last_engine
        cleaned = self.clean(built, purging=purging, filtering=filtering, propagate=propagate)
        if build_engine == "oracle":
            self.last_engine = "oracle"
        return cleaned
