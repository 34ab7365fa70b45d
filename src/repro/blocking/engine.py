"""Array-backed blocking + block-cleaning engine.

The legacy block builders in :mod:`repro.blocking.token_blocking` and the
cleaners in :mod:`repro.blocking.cleaning` are the readable formulation of
the blocking phase, but they run on per-description ``dict``/``set``
structures: every builder re-tokenises raw strings into Python string sets,
keys its inverted index by strings, and every cleaner re-derives per-block
Python sets of identifiers.  After the meta-blocking (PR 1) and matching
(PR 2) engines, blocking was the last phase whose hot loops touch strings
instead of machine integers.

:class:`BlockingEngine` completes the columnar path.  Two engines sit behind
one interface, following the established two-engine pattern:

* ``engine="index"`` (the default) --

  **Building**: the token-based schemes (:class:`TokenBlocking`,
  :class:`PrefixInfixSuffixBlocking`, :class:`AttributeClusteringBlocking`)
  tokenise each description exactly once through a
  :class:`~repro.text.profile_store.ProfileStore`, which interns tokens to
  dense integer ids.  The inverted key index is then a flat mapping
  ``token id -> array('q') posting of description ordinals`` (for
  attribute clustering, ``(cluster id, token id) -> posting``); the posting
  arrays grow in description order, so materialising the final
  :class:`~repro.blocking.base.Block` objects in deterministic sorted-key
  order reproduces the oracle builders block for block.  Attribute
  clustering in particular pays tokenisation once instead of twice: the
  same interned per-attribute token sets feed both the attribute-similarity
  clustering (via :func:`cluster_attribute_profiles`) and the blocking keys.

  **Cleaning**: :class:`BlockPurging`, :class:`BlockFiltering` and
  :class:`ComparisonPropagation` become streaming passes over a CSR entity
  index of the block collection -- ``blk_ptr``/``ent_of`` arrays mapping
  every block to the ordinals of its members (and back) -- instead of
  per-block Python sets:

  - purging computes the cardinality column once and selects blocks with a
    single pass, sharing :func:`adaptive_cardinality_threshold` with the
    oracle so both derive the identical bound;
  - filtering ranks each description's assignments by block cardinality in
    one global ``np.lexsort`` over the assignment arrays (stable, so block
    order breaks ties exactly like the oracle's per-entity sort) and marks
    kept assignments in a flat flag array; the pure-Python fallback runs
    the same stable per-entity sort over the same arrays, bit-identically;
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

* ``engine="oracle"`` -- delegates to the legacy builders/cleaners, which
  remain the readable reference implementation, the test oracle of the
  equivalence suite (``tests/test_blocking_equivalence.py``; only tests and
  benchmarks select it), and the path user builders take into the workflow --
  every scheme the index engine does not natively support: custom
  :class:`~repro.blocking.base.BlockBuilder` implementations,
  subclasses of the supported builders (whose overridden ``tokens_of`` /
  ``build`` the columnar path cannot see), and subclasses of the cleaner
  classes.  Falling back from ``engine="index"`` emits a one-time
  :class:`RuntimeWarning` naming the scheme, so the cliff is visible.

Both engines produce block-for-block identical collections -- same blocks,
same deterministic key order, same member order within every block -- so
swapping them never changes a workflow's output, only its speed.  The
cleaning passes assume well-formed bilateral blocks (no identifier occurring
on both sides of one block, the same malformed shape the meta-blocking
engines reject).
"""

from __future__ import annotations

import math
import warnings
from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.blocking.base import Block, BlockBuilder, BlockCollection, ERInput
from repro.blocking.canopy import CanopyClusteringBlocking
from repro.blocking.canopy import _index_build as _canopy_index_build
from repro.blocking.cleaning import (
    BlockFiltering,
    BlockPurging,
    ComparisonPropagation,
    adaptive_cardinality_threshold,
)
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
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.pairs import canonical_pair
from repro.text.profile_store import ProfileStore
from repro.text.tokenize import token_set, uri_tokens

try:  # pragma: no cover - exercised implicitly when numpy is installed
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Execution engines of the blocking phase.
BLOCKING_ENGINES = ("index", "oracle")

#: Builders with a native index-engine implementation.  Exact type checks:
#: subclasses may override ``tokens_of``/``build`` in ways the columnar path
#: cannot replicate, so they fall back to the oracle.
_INDEX_BUILDERS = (TokenBlocking, PrefixInfixSuffixBlocking, AttributeClusteringBlocking)

#: Long-tail scheme families with an array build in their own module.  Same
#: exact-type rule as ``_INDEX_BUILDERS``; each build function has the
#: signature ``(builder, data, context, use_numpy) -> BlockCollection``.
_ARRAY_BUILDS = {
    MinHashLSHBlocking: _minhash_index_build,
    CanopyClusteringBlocking: _canopy_index_build,
    SortedNeighborhoodBlocking: _sn_index_build,
    ExtendedSortedNeighborhoodBlocking: _sn_index_build,
    MultiPassSortedNeighborhoodBlocking: _sn_index_build,
    SimilarityJoinBlocking: _join_index_build,
}


def _index_token_build(
    builder: TokenBlocking, data: ERInput, context=None
) -> BlockCollection:
    """Index-engine build for token blocking and prefix--infix--suffix blocking.

    With a shared ``context`` nothing is tokenised here: the build reads the
    context's interned columns (:func:`_context_token_build`).  Without one
    (or for data the context does not own) this is the per-engine pass:
    ``builder.tokens_of`` (the library implementation -- exact-type dispatch
    guarantees it is not overridden) supplies the keys of each description,
    so the key *content* is the oracle's by construction; the engine's part
    is the representation: keys are interned to dense ids once and the
    inverted index holds flat ``array('q')`` postings of description
    ordinals instead of nested string-keyed dicts of identifier lists.
    """
    if context is not None:
        return _context_token_build(builder, context)
    store = ProfileStore(
        stop_words=builder.stop_words, min_token_length=builder.min_token_length
    )
    intern = store.intern
    ids: List[str] = []
    postings: Dict[int, array] = {}
    for _side, description in BlockBuilder._iter_with_side(data):
        ordinal = len(ids)
        ids.append(description.identifier)
        for token in builder.tokens_of(description):
            _append_posting(postings, intern(token), ordinal)

    left_count = len(data.left) if isinstance(data, CleanCleanTask) else -1
    limit = builder.member_limit(len(ids))
    collection = BlockCollection(name=builder.name)
    for key, token_id in sorted((store.token(tid), tid) for tid in postings):
        posting = postings[token_id]
        if limit is not None and len(posting) > limit:
            continue
        _add_block(collection, key, posting, ids, left_count)
    return collection


def _emit_token_blocks(
    builder: TokenBlocking, context, postings: Dict[int, Sequence[int]]
) -> BlockCollection:
    """Materialise a block collection from token-id postings over a context.

    The shared emission tail of the sequential context build and the
    multi-process build: blocks come out in deterministic sorted-key order,
    oversized postings are dropped by the builder's
    :meth:`~repro.blocking.token_blocking.TokenBlocking.member_limit`, and
    degenerate blocks by :func:`_add_block` -- so any two paths that agree on
    posting content produce identical collections.
    """
    ids = context.ids
    left_count = context.left_count
    limit = builder.member_limit(context.num_descriptions)
    collection = BlockCollection(name=builder.name)
    token_of = context.token
    for key, token_id in sorted((token_of(tid), tid) for tid in postings):
        posting = postings[token_id]
        if limit is not None and len(posting) > limit:
            continue
        _add_block(collection, key, posting, ids, left_count)
    return collection


def _column_postings(context, token_filter) -> Dict[int, List[int]]:
    """Token postings straight from the context's merged ids column (NumPy).

    The column is description-major, so the ordinal of every entry is one
    ``repeat`` over the pointer differences; the builder's admission rule is
    a boolean take through the filter's per-vocabulary mask; and one *stable*
    argsort by token id groups the entries into postings while keeping the
    ordinals ascending inside each -- the content the per-description loop
    appends one entry at a time.
    """
    np = _np
    ptr, ids, _counts = context.token_columns()
    token_ids = np.asarray(ids)
    ordinals = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    if not token_filter.trivial:
        mask = np.frombuffer(token_filter.mask(context.vocabulary_size), dtype=np.bool_)
        admitted = mask[token_ids]
        token_ids, ordinals = token_ids[admitted], ordinals[admitted]
    order = np.argsort(token_ids, kind="stable")
    sorted_ids = token_ids[order]
    # a posting starts wherever the sorted id changes (ids are >= 0)
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    flat = ordinals[order].tolist()
    bounds = starts.tolist() + [len(flat)]
    return {
        key: flat[bounds[index] : bounds[index + 1]]
        for index, key in enumerate(sorted_ids[starts].tolist())
    }


def _context_token_build(builder: TokenBlocking, context) -> BlockCollection:
    """Token / prefix--infix--suffix build over a shared context's columns.

    The keys of a description are the context's merged distinct ids filtered
    by the builder's stop words and minimum token length (the admission rule
    ``token_set`` applies while tokenising), so the key set per description
    is the oracle's by construction.  Plain token blocking derives all
    postings at once from the whole column (:func:`_column_postings`);
    prefix--infix--suffix blocking interns URI keys per description, so it
    walks the per-description slices -- as plain token blocking does when
    NumPy is not importable.
    """
    token_filter = context.token_filter(builder.stop_words, builder.min_token_length)
    uri_keys = type(builder) is PrefixInfixSuffixBlocking
    if _np is not None and not uri_keys:
        return _emit_token_blocks(builder, context, _column_postings(context, token_filter))
    trivial = token_filter.trivial
    allows = token_filter.allows
    ids: List[str] = context.ids
    postings: Dict[int, array] = {}
    stop_words = builder.stop_words
    min_token_length = builder.min_token_length
    for ordinal in range(context.num_descriptions):
        token_ids, _counts = context.token_counts(ordinal)
        if uri_keys:
            # value tokens plus the URI-derived keys of PrefixInfixSuffix
            # blocking; the infix keys may overlap the value tokens, so the
            # per-description key set is deduplicated exactly like the
            # oracle's ``tokens_of`` set union
            keys = {t for t in token_ids if trivial or allows(t)}
            _, infix, infix_tokens = uri_tokens(ids[ordinal])
            if infix:
                keys.add(context.intern(infix.lower()))
            for token in infix_tokens:
                if len(token) >= min_token_length and token not in stop_words:
                    keys.add(context.intern(token))
            for key in keys:
                _append_posting(postings, key, ordinal)
        else:
            for token_id in token_ids:
                if trivial or allows(token_id):
                    _append_posting(postings, token_id, ordinal)

    return _emit_token_blocks(builder, context, postings)


def _index_attribute_clustering_build(
    builder: AttributeClusteringBlocking, data: ERInput, context=None
) -> BlockCollection:
    """Index-engine build for attribute-clustering blocking.

    One tokenisation pass: the interned per-attribute token-id sets feed both
    the attribute clustering (Jaccard over id sets equals Jaccard over the
    oracle's string sets, and :func:`cluster_attribute_profiles` is the very
    code the oracle runs) and the blocking keys, so the two stages agree on
    tokenisation by construction.  With a shared ``context`` even that single
    pass disappears: the per-attribute id sets are the context's columns
    filtered by the builder's stop words and minimum token length.
    """
    # the two token-id sources -- context columns vs a fresh per-engine store
    # -- only differ in where a description's (attribute, token ids) entries
    # come from; the profile accumulation below is shared
    if context is not None:
        ids = context.ids
        token_filter = context.token_filter(
            builder.stop_words, builder.min_token_length
        )
        trivial = token_filter.trivial
        allows = token_filter.allows

        def description_entries():
            for ordinal in range(context.num_descriptions):
                yield [
                    (attribute, [t for t in attr_ids if trivial or allows(t)])
                    for attribute, attr_ids, _counts in context.attribute_entries(ordinal)
                ]

    else:
        store = ProfileStore(
            stop_words=builder.stop_words, min_token_length=builder.min_token_length
        )
        intern = store.intern
        ids = []

        def description_entries():
            for _side, description in BlockBuilder._iter_with_side(data):
                ids.append(description.identifier)
                yield [
                    (
                        attribute,
                        [
                            intern(token)
                            for token in token_set(
                                description.values(attribute),
                                stop_words=builder.stop_words,
                                min_length=builder.min_token_length,
                            )
                        ],
                    )
                    for attribute in description.attribute_names
                ]

    tokenised: List[List[Tuple[str, List[int]]]] = []
    attribute_profiles: Dict[str, Set[int]] = {}
    for attribute_token_ids in description_entries():
        entries: List[Tuple[str, List[int]]] = []
        for attribute, token_ids in attribute_token_ids:
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

    left_count = (
        context.left_count
        if context is not None
        else (len(data.left) if isinstance(data, CleanCleanTask) else -1)
    )
    limit = builder.member_limit(len(ids))
    collection = BlockCollection(name=builder.name)
    token_of = context.token if context is not None else store.token
    for key, pair in sorted(
        (f"c{cluster_id}#{token_of(token_id)}", (cluster_id, token_id))
        for cluster_id, token_id in postings
    ):
        posting = postings[pair]
        if limit is not None and len(posting) > limit:
            continue
        _add_block(collection, key, posting, ids, left_count)
    return collection


# ----------------------------------------------------------------------
# CSR entity index over a block collection
# ----------------------------------------------------------------------
class _BlockIndex:
    """Flat assignment arrays of a block collection (one entry per membership).

    ``ent_of[p]`` is the ordinal of the description held by assignment ``p``;
    assignments are laid out block-major (``blk_ptr[b]:blk_ptr[b+1]`` covers
    block ``b`` in its member order) and ``card_of[p]`` caches the containing
    block's cardinality.
    """

    __slots__ = ("ordinal", "ent_of", "card_of", "blk_ptr")

    def __init__(self, blocks: BlockCollection) -> None:
        self.ordinal: Dict[str, int] = {}
        intern = self.ordinal.setdefault
        self.ent_of = array("q")
        self.card_of = array("q")
        self.blk_ptr = array("q", [0])
        for block in blocks:
            cardinality = block.num_comparisons()
            for member in block.members:
                self.ent_of.append(intern(member, len(self.ordinal)))
                self.card_of.append(cardinality)
            self.blk_ptr.append(len(self.ent_of))

    @property
    def num_entities(self) -> int:
        return len(self.ordinal)

    @property
    def num_assignments(self) -> int:
        return len(self.ent_of)


# ----------------------------------------------------------------------
# index cleaning passes
# ----------------------------------------------------------------------
def _index_purge(
    blocks: BlockCollection, purging: BlockPurging, parallel=None
) -> BlockCollection:
    """Streaming purging pass: one cardinality column, one selection sweep.

    With a :class:`~repro.mapreduce.parallel.ParallelEngine` the cardinality
    column is computed by the pool over contiguous block ranges; threshold
    selection stays on the driver and the output is bit-identical.
    """
    purged = BlockCollection(name=f"{blocks.name}/purged")
    if len(blocks) == 0:
        return purged
    if parallel is not None:
        cards = parallel.block_cardinalities(blocks)
    else:
        cards = array("q", (block.num_comparisons() for block in blocks))
    if purging.max_comparisons is not None:
        threshold = purging.max_comparisons
    else:
        threshold = adaptive_cardinality_threshold(sorted(cards), purging.smoothing_factor)
    for block, cardinality in zip(blocks, cards):
        if cardinality <= threshold:
            purged.add(block)
    return purged


def _index_filter(
    blocks: BlockCollection, filtering: BlockFiltering, use_numpy: bool, parallel=None
) -> BlockCollection:
    """Streaming filtering pass over the CSR assignment arrays.

    Every description keeps the assignments to its ``ceil(ratio * degree)``
    smallest blocks (at least one).  The NumPy path ranks all assignments in
    one stable ``lexsort`` by (entity, cardinality) -- stability preserves
    the block-major layout, i.e. ascending block index, as the tie-break,
    exactly like the oracle's per-entity ``(cardinality, block index)``
    sort; the fallback runs the same stable sort per entity.
    """
    filtered = BlockCollection(name=f"{blocks.name}/filtered")
    if len(blocks) == 0:
        return filtered
    index = _BlockIndex(blocks)
    ratio = filtering.ratio

    if parallel is not None and index.num_assignments:
        # per-entity keep sets are independent, so pooled ranged passes over
        # the shared assignment columns reproduce the flags bit-identically
        keep_flags = parallel.filter_keep_flags(
            index.ent_of, index.card_of, index.num_entities, ratio, use_numpy
        )
    elif use_numpy and _np is not None and index.num_assignments:
        keep_flags = bytearray(index.num_assignments)
        np = _np
        ent_of = np.frombuffer(index.ent_of, dtype=np.int64)
        card_of = np.frombuffer(index.card_of, dtype=np.int64)
        order = np.lexsort((card_of, ent_of))
        ent_sorted = ent_of[order]
        degrees = np.bincount(ent_of, minlength=index.num_entities)
        ent_ptr = np.concatenate(([0], np.cumsum(degrees)))
        rank = np.arange(index.num_assignments, dtype=np.int64) - ent_ptr[ent_sorted]
        keep_counts = np.maximum(1, np.ceil(ratio * degrees)).astype(np.int64)
        for position in order[rank < keep_counts[ent_sorted]].tolist():
            keep_flags[position] = 1
    else:
        keep_flags = bytearray(index.num_assignments)
        per_entity: List[List[int]] = [[] for _ in range(index.num_entities)]
        for position, o in enumerate(index.ent_of):
            per_entity[o].append(position)
        card_of = index.card_of
        for positions in per_entity:
            # positions are ascending (block-major layout) and sort() is
            # stable, so ranking by cardinality alone reproduces the
            # oracle's (cardinality, block index) ranking
            positions.sort(key=card_of.__getitem__)
            keep = max(1, math.ceil(ratio * len(positions)))
            for position in positions[:keep]:
                keep_flags[position] = 1

    blk_ptr = index.blk_ptr
    for block_index, block in enumerate(blocks):
        start, end = blk_ptr[block_index], blk_ptr[block_index + 1]
        flags = keep_flags[start:end]
        if block.is_bilateral:
            split = len(block.left_members)
            left = [m for m, f in zip(block.left_members, flags[:split]) if f]
            right = [m for m, f in zip(block.right_members, flags[split:]) if f]
            if left and right:
                filtered.add(Block(block.key, left_members=left, right_members=right))
        else:
            members = [m for m, f in zip(block.members, flags) if f]
            if len(members) >= 2:
                filtered.add(Block(block.key, members=members))
    return filtered


def _index_propagate(
    blocks: BlockCollection, use_numpy: bool, parallel=None
) -> BlockCollection:
    """Streaming comparison propagation: integer-coded pair deduplication.

    Pairs are deduplicated as single integers ``(min << 32) | max`` over
    description ordinals (ordinals are assumed to fit 32 bits -- four
    billion descriptions -- which every realistic collection satisfies);
    blocks and within-block comparisons are visited in the oracle's order,
    so the first-occurrence pair blocks come out in the identical sequence
    (and with the identical left/right orientation, which the oracle takes
    from the first block that proposes the pair).

    The NumPy path generates each block's pair codes vectorised and
    resolves first occurrences globally with one ``np.unique``; the
    pure-Python path streams the same codes through a set.  The per-pair
    output blocks are identical either way.  The vectorised codes live in
    ``int64``, whose sign bit caps the shifted half at ``2**31`` ordinals;
    collections beyond that (which would not fit in memory anyway) take the
    arbitrary-precision pure-Python path automatically.
    """
    if parallel is not None and len(blocks):
        # ranged worker passes with driver-side first-occurrence resolution;
        # emission order, keys and orientation match the sequential pass
        return parallel.propagate_pairs(blocks)
    if use_numpy and _np is not None:
        # total member count bounds the number of distinct ordinals cheaply
        if sum(len(block) for block in blocks) < (1 << 31):
            return _propagate_numpy(blocks)
    return _propagate_python(blocks)


def _propagate_python(blocks: BlockCollection) -> BlockCollection:
    deduplicated = BlockCollection(name=f"{blocks.name}/propagated")
    ordinal: Dict[str, int] = {}
    intern = ordinal.setdefault
    seen: Set[int] = set()
    seen_add = seen.add
    out: List[Block] = []
    append = out.append
    pair = Block.pair
    bilateral_pair = Block.bilateral_pair
    for block in blocks:
        if block.is_bilateral:
            left_members = block.left_members
            right_members = block.right_members
            left_ordinals = [intern(m, len(ordinal)) for m in left_members]
            right_ordinals = [intern(m, len(ordinal)) for m in right_members]
            left_set = set(left_ordinals)
            for a, id_a in zip(left_ordinals, left_members):
                shifted = a << 32
                for b, id_b in zip(right_ordinals, right_members):
                    if a == b:  # self-pair: fail exactly like the oracle
                        canonical_pair(id_a, id_b)
                    code = shifted | b if a < b else (b << 32) | a
                    if code in seen:
                        continue
                    seen_add(code)
                    if id_a < id_b:
                        first, second, first_ordinal = id_a, id_b, a
                    else:
                        first, second, first_ordinal = id_b, id_a, b
                    # orientation follows the oracle: the canonical first
                    # identifier leads if it sits on this block's left side
                    if first_ordinal in left_set:
                        append(bilateral_pair(f"pair:{first}|{second}", first, second))
                    else:
                        append(bilateral_pair(f"pair:{first}|{second}", second, first))
        else:
            members = block.members
            member_ordinals = [intern(m, len(ordinal)) for m in members]
            for i, a in enumerate(member_ordinals):
                id_a = members[i]
                shifted = a << 32
                for j in range(i + 1, len(member_ordinals)):
                    b = member_ordinals[j]
                    code = shifted | b if a < b else (b << 32) | a
                    if code in seen:
                        continue
                    seen_add(code)
                    id_b = members[j]
                    if id_a < id_b:
                        append(pair(f"pair:{id_a}|{id_b}", id_a, id_b))
                    else:
                        append(pair(f"pair:{id_b}|{id_a}", id_b, id_a))
    deduplicated._extend_trusted(out)
    return deduplicated


def _propagate_numpy(blocks: BlockCollection) -> BlockCollection:
    """Vectorised propagation; peak memory is O(aggregate comparisons).

    The full code/endpoint arrays are materialised before the global
    ``np.unique`` (~24 bytes per redundant comparison), trading a transient
    spike for the per-pair Python work the streaming path pays.  For inputs
    whose aggregate cardinality vastly exceeds the distinct pair count --
    e.g. unpurged collections with extreme redundancy -- prefer purging
    first (as the workflow does) or the pure-Python path, which holds only
    the distinct-pair set.
    """
    np = _np
    deduplicated = BlockCollection(name=f"{blocks.name}/propagated")
    ordinal: Dict[str, int] = {}
    intern = ordinal.setdefault
    code_chunks: List = []
    a_chunks: List = []
    b_chunks: List = []
    #: per chunk: the generating block's left-ordinal set, or None (unilateral)
    chunk_left: List[Optional[Set[int]]] = []
    chunk_sizes: List[int] = []
    for block in blocks:
        if block.is_bilateral:
            left_ordinals = [intern(m, len(ordinal)) for m in block.left_members]
            right_ordinals = [intern(m, len(ordinal)) for m in block.right_members]
            left = np.asarray(left_ordinals, dtype=np.int64)
            right = np.asarray(right_ordinals, dtype=np.int64)
            a = np.repeat(left, len(right))
            b = np.tile(right, len(left))
            self_pairs = a == b
            if self_pairs.any():  # fail on the first self-pair, like the oracle
                position = int(np.argmax(self_pairs))
                member = block.left_members[position // len(right)]
                canonical_pair(member, block.right_members[position % len(right)])
            chunk_left.append(set(left_ordinals))
        else:
            member_ordinals = [intern(m, len(ordinal)) for m in block.members]
            flat = np.asarray(member_ordinals, dtype=np.int64)
            upper_i, upper_j = np.triu_indices(len(flat), 1)
            a = flat[upper_i]
            b = flat[upper_j]
            chunk_left.append(None)
        code_chunks.append(np.minimum(a, b) << 32 | np.maximum(a, b))
        a_chunks.append(a)
        b_chunks.append(b)
        chunk_sizes.append(len(a))
    if not code_chunks:
        return deduplicated

    # ordinal -> identifier (the interning dict preserves insertion order)
    ids = list(ordinal)

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
        # canonical pair order resolved vectorised: rank[o] is ordinal o's
        # position in the identifiers' lexicographic order, and NumPy's
        # unicode comparison agrees with Python's str comparison, so the
        # swap mask reproduces the per-pair `id_a < id_b` checks
        rank = np.empty(len(ids), dtype=np.int64)
        rank[np.argsort(np.array(ids))] = np.arange(len(ids), dtype=np.int64)
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
    deduplicated._extend_trusted(out)
    return deduplicated


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class BlockingEngine:
    """Block building and cleaning with an index and an oracle engine.

    Parameters
    ----------
    builder:
        The blocking scheme to execute (default: :class:`TokenBlocking`).
        The index engine natively supports :class:`TokenBlocking`,
        :class:`PrefixInfixSuffixBlocking` and
        :class:`AttributeClusteringBlocking` (exact types); every other
        builder -- including subclasses -- transparently falls back to its
        own ``build``, so the engine is always safe to use.
    engine:
        ``"index"`` (default) or ``"oracle"``.
    use_numpy:
        Force (``True``, raising :class:`ValueError` when NumPy is not
        importable) or forbid (``False``) the vectorised filtering and
        propagation passes; ``None`` (default) uses NumPy whenever it is
        importable.  Both paths produce bit-identical output.
    context:
        Optional shared :class:`~repro.core.context.PipelineContext`.  When
        given and the context owns the input data, the index builders read
        the context's interned token columns instead of tokenising the
        collection themselves -- the single-interning guarantee of the
        shared pipeline context.  Ignored (per-engine interning, exactly as
        before) for data the context does not own, for the oracle engine,
        and for builders without an index implementation.
    parallel:
        Optional :class:`~repro.mapreduce.parallel.ParallelEngine`.  When
        given (together with a context that owns the input), plain
        :class:`TokenBlocking` builds fan the postings pass out to worker
        processes over the context's shared columns -- bit-identical to the
        single-process index build.  Every other configuration (the
        prefix--infix--suffix and attribute-clustering schemes intern new
        keys driver-side, foreign collections have no shared columns)
        silently stays single-process.

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
        engine: str = "index",
        use_numpy: Optional[bool] = None,
        context=None,
        parallel=None,
    ) -> None:
        if engine not in BLOCKING_ENGINES:
            raise ValueError(f"unknown engine {engine!r}; available: {BLOCKING_ENGINES}")
        if use_numpy and _np is None:
            raise ValueError(
                "use_numpy=True but numpy is not importable; "
                "pass use_numpy=None to fall back automatically"
            )
        self.builder = builder if builder is not None else TokenBlocking()
        self.engine = engine
        self.context = context
        self.parallel = parallel
        self._use_numpy = (_np is not None) if use_numpy is None else bool(use_numpy)
        #: engine that actually executed the last build/clean call
        self.last_engine: Optional[str] = None
        self._warned_fallback = False

    # ------------------------------------------------------------------
    @property
    def build_index_applicable(self) -> bool:
        """Whether :meth:`build` will run on the index engine."""
        return self.engine == "index" and (
            type(self.builder) in _INDEX_BUILDERS or type(self.builder) in _ARRAY_BUILDS
        )

    def build(self, data: ERInput) -> BlockCollection:
        """Build the blocks of ``data`` with the configured builder."""
        if self.build_index_applicable:
            self.last_engine = "index"
            context = self.context
            if context is not None and not context.owns(data):
                context = None
            array_build = _ARRAY_BUILDS.get(type(self.builder))
            if array_build is not None:
                return array_build(self.builder, data, context, self._use_numpy)
            if type(self.builder) is AttributeClusteringBlocking:
                return _index_attribute_clustering_build(self.builder, data, context)
            if (
                self.parallel is not None
                and context is not None
                and type(self.builder) is TokenBlocking
                and context.num_descriptions > 0
            ):
                postings = self.parallel.token_postings(self.builder, context)
                return _emit_token_blocks(self.builder, context, postings)
            return _index_token_build(self.builder, data, context)
        self.last_engine = "oracle"
        if self.engine == "index" and not self._warned_fallback:
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
        subclasses may override behaviour the streaming pass cannot see).
        """
        result = blocks
        oracle_used = self.engine != "index"
        ran = False
        if purging is not None:
            ran = True
            if self.engine == "index" and type(purging) is BlockPurging:
                result = _index_purge(result, purging, parallel=self.parallel)
            else:
                oracle_used = True
                result = purging.process(result)
        if filtering is not None:
            ran = True
            if self.engine == "index" and type(filtering) is BlockFiltering:
                result = _index_filter(
                    result, filtering, self._use_numpy, parallel=self.parallel
                )
            else:
                oracle_used = True
                result = filtering.process(result)
        if propagate:
            ran = True
            if self.engine == "index":
                result = _index_propagate(
                    result, self._use_numpy, parallel=self.parallel
                )
            else:
                oracle_used = True
                result = ComparisonPropagation().process(result)
        if ran:
            self.last_engine = "oracle" if oracle_used else "index"
        else:
            self.last_engine = self.engine
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
