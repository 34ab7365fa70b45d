"""Token blocking and attribute-clustering blocking for the Web of data.

These are the schema-agnostic schemes the tutorial presents as the family
"that relies on a simple inverted index of entity descriptions extracted from
the tokens of their attribute values": two descriptions co-occur in a block if
they share at least one token, regardless of the attributes in which the
token appears.

Attribute-clustering blocking refines token blocking by first clustering
attribute names whose value distributions are similar and then requiring the
shared token to appear in attributes of the same cluster, which trims the
comparisons token blocking suggests between semantically unrelated values.

All three builders read the interned token columns of a
:class:`~repro.core.context.PipelineContext` (the shared one when it owns the
input, a private one otherwise) and return their blocks as
:class:`~repro.blocking.columns.BlockColumns` postings in sorted-key order.
"""

from __future__ import annotations

import math
from array import array
from typing import AbstractSet, Dict, Iterable, List, Optional, Set, Tuple

import numpy as _np

from repro.blocking.base import (
    BlockBuilder,
    BlockCollection,
    ERInput,
    check_unit_interval,
    interned,
)
from repro.blocking.columns import BlockColumns, append_posting, concatenated
from repro.core.unionfind import UnionFind
from repro.datamodel.pairs import stable_argsort
from repro.text.similarity import jaccard_similarity
from repro.text.tokenize import DEFAULT_STOP_WORDS, check_min_token_length, uri_tokens


class TokenBlocking(BlockBuilder):
    """Schema-agnostic token blocking: one block per distinct token.

    Parameters
    ----------
    stop_words:
        Tokens that never become blocks (extremely frequent tokens produce
        blocks of near-quadratic cost with almost no evidence).
    min_token_length:
        Tokens shorter than this are ignored.
    max_block_fraction:
        Optional upper bound on the fraction of all descriptions a block may
        contain; larger blocks are dropped (a light-weight built-in purging).
        ``None`` keeps every block.
    """

    name = "token_blocking"

    def __init__(
        self,
        stop_words: Optional[Iterable[str]] = DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
        max_block_fraction: Optional[float] = None,
    ) -> None:
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = check_min_token_length(min_token_length)
        if max_block_fraction is not None:
            check_unit_interval("max_block_fraction", max_block_fraction, open_low=True)
        self.max_block_fraction = max_block_fraction

    def member_limit(self, total: int) -> Optional[int]:
        """Largest member count a block may have under ``max_block_fraction``.

        ``None`` when no bound is configured or the collection is empty.  The
        bound is the floor of ``max_block_fraction * total`` computed with a
        small tolerance so that binary-floating-point representation error
        cannot shave off a description the exact product would admit (e.g.
        ``0.3 * 10`` evaluates to ``2.999...96``, whose plain ``int()``
        truncation used to yield 2 instead of the intended 3).  The limit
        never drops below 2, so minimal pair blocks always survive.

        For clean--clean input the count covers the members of *both* sides
        of a bilateral block -- the documented semantics is a fraction of
        *all* descriptions, and ``total`` likewise counts both collections.
        """
        if self.max_block_fraction is None or total <= 0:
            return None
        return max(2, math.floor(self.max_block_fraction * total + 1e-9))

    def build(self, data: ERInput, context=None) -> BlockCollection:
        """One block per admitted token, in sorted-key order, as columns.

        The keys of a description are its merged distinct token ids admitted
        by the stop words and the minimum token length (the rule
        ``token_set`` applies while tokenising); ``max_block_fraction``, the
        degenerate-block rules and the key order are masks and one gather
        over the posting sizes (:meth:`BlockColumns.from_postings
        <repro.blocking.columns.BlockColumns.from_postings>`).
        """
        context = interned(data, context)
        keys, ptr, members = self._postings(context)
        columns = BlockColumns.from_postings(
            keys,
            ptr,
            members,
            context.ids,
            context.left_count,
            self.member_limit(context.num_descriptions),
        )
        return BlockCollection.from_columns(columns, name=self.name)

    def _postings(self, context):
        """``(keys, pointer column, member ordinals)`` of every token posting.

        One stable argsort of the context's merged token-id column groups it
        by token id, so the ordinals stay ascending inside every posting.
        """
        np = _np
        token_filter = context.token_filter(self.stop_words, self.min_token_length)
        ptr, token_ids, _counts = context.token_columns()
        ordinals = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
        if not token_filter.trivial:
            admitted = token_filter.mask(context.vocabulary_size)[token_ids]
            token_ids, ordinals = token_ids[admitted], ordinals[admitted]
        order = stable_argsort(token_ids, context.vocabulary_size)
        sorted_ids = token_ids[order]
        # a posting starts wherever the sorted id changes (ids are >= 0)
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        keys = list(map(context._tokens.__getitem__, sorted_ids[starts].tolist()))
        return keys, np.append(starts, len(sorted_ids)), ordinals[order]


class PrefixInfixSuffixBlocking(TokenBlocking):
    """Token blocking extended with tokens extracted from URI-like identifiers.

    Web entities frequently carry name information in their URIs (the *infix*
    of the URI); this scheme adds the infix tokens -- and the full infix as a
    single key -- to the value tokens used by plain token blocking, which is
    the essence of prefix--infix(--suffix) blocking for RDF data.
    """

    name = "prefix_infix_suffix"

    def _postings(self, context):
        """Postings from a walk over the descriptions: value tokens plus the
        URI keys, interned per description into the context's vocabulary."""
        select = context.token_filter(self.stop_words, self.min_token_length).select
        ids = context.ids
        postings: Dict[int, array] = {}
        for ordinal in range(context.num_descriptions):
            # the infix keys may overlap the value tokens: one key set per
            # description
            keys = set(select(context.token_counts(ordinal)[0]).tolist())
            _, infix, infix_tokens = uri_tokens(ids[ordinal])
            if infix:
                keys.add(context.intern(infix.lower()))
            for token in infix_tokens:
                if len(token) >= self.min_token_length and token not in self.stop_words:
                    keys.add(context.intern(token))
            for key in keys:
                append_posting(postings, key, ordinal)
        return (list(map(context._tokens.__getitem__, postings)), *concatenated(postings))


def cluster_attribute_profiles(
    profiles: Dict[str, AbstractSet],
    similarity_threshold: float = 0.25,
) -> Dict[str, int]:
    """Cluster attribute names given their (already tokenised) value profiles.

    Returns a mapping ``attribute name -> cluster id``.  Attributes whose best
    similarity to any other attribute is below ``similarity_threshold`` end up
    in a catch-all "glue" cluster (cluster id 0), mirroring the original
    attribute-clustering construction: every attribute must belong to some
    cluster so that no token evidence is lost.  The profiles may hold token
    strings or interned token ids: the Jaccard similarities, and therefore
    the clustering, are the same either way.
    """
    names = sorted(profiles)
    # best-match graph: attribute -> most similar other attribute
    best_match: Dict[str, Tuple[str, float]] = {}
    for i, name_a in enumerate(names):
        best_name, best_score = "", 0.0
        for name_b in names:
            if name_a == name_b:
                continue
            score = jaccard_similarity(profiles[name_a], profiles[name_b])
            if score > best_score:
                best_name, best_score = name_b, score
        best_match[name_a] = (best_name, best_score)

    # union-find over mutual links above the threshold
    links = UnionFind(names)

    for name_a, (name_b, score) in best_match.items():
        if name_b and score >= similarity_threshold:
            links.union(name_a, name_b)

    clusters: Dict[str, int] = {}
    glue_members = []
    next_cluster = 1
    roots: Dict[str, int] = {}
    for name in names:
        _, score = best_match[name]
        if score < similarity_threshold:
            glue_members.append(name)
            continue
        root = links.find(name)
        if root not in roots:
            roots[root] = next_cluster
            next_cluster += 1
        clusters[name] = roots[root]
    for name in glue_members:
        clusters[name] = 0
    return clusters


class AttributeClusteringBlocking(TokenBlocking):
    """Attribute-clustering blocking: token blocks scoped by attribute cluster.

    The blocking key of a token is the pair ``(cluster id, token)``, so two
    descriptions co-occur only if they share a token in attributes whose
    names were clustered together.  Compared to plain token blocking this
    keeps pair completeness high while discarding comparisons due to tokens
    shared across unrelated attributes (e.g. a city name appearing both in an
    address and in a product name).
    """

    name = "attribute_clustering"

    def __init__(
        self,
        similarity_threshold: float = 0.25,
        stop_words: Optional[Iterable[str]] = DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
        max_block_fraction: Optional[float] = None,
    ) -> None:
        super().__init__(
            stop_words=stop_words,
            min_token_length=min_token_length,
            max_block_fraction=max_block_fraction,
        )
        self.similarity_threshold = similarity_threshold

    def _clustered(self, context):
        """``attribute name -> cluster id`` (0: the glue cluster) and, per
        ordinal, its ``(attribute, admitted token ids)`` entries.

        The per-attribute token-id sets are the context's columns admitted by
        the stop words and minimum token length; they feed both the
        clustering and the blocking keys, so the two stages agree on what a
        token is.  For clean--clean input the profiles pool *both*
        collections: attribute clustering aligns the vocabularies of the two
        sources, so an attribute used by both contributes the evidence of
        both.
        """
        select = context.token_filter(self.stop_words, self.min_token_length).select
        tokenised: List[List[Tuple[str, List[int]]]] = []
        profiles: Dict[str, Set[int]] = {}
        for ordinal in range(context.num_descriptions):
            entries: List[Tuple[str, List[int]]] = []
            for attribute, attr_ids, _counts in context.attribute_entries(ordinal):
                token_ids = select(attr_ids).tolist()
                profile = profiles.get(attribute)
                if profile is None:
                    profiles[attribute] = profile = set()
                profile.update(token_ids)
                if token_ids:
                    entries.append((attribute, token_ids))
            tokenised.append(entries)
        return cluster_attribute_profiles(profiles, self.similarity_threshold), tokenised

    def build(self, data: ERInput, context=None) -> BlockCollection:
        """One block per ``(attribute cluster, token)`` key, as columns."""
        context = interned(data, context)
        clusters, tokenised = self._clustered(context)
        postings: Dict[Tuple[int, int], array] = {}
        for ordinal, entries in enumerate(tokenised):
            keys: Set[Tuple[int, int]] = set()
            for attribute, token_ids in entries:
                cluster_id = clusters.get(attribute, 0)
                keys.update((cluster_id, token_id) for token_id in token_ids)
            for key in keys:
                append_posting(postings, key, ordinal)
        token_of = context.token
        columns = BlockColumns.from_postings(
            [f"c{cluster_id}#{token_of(token_id)}" for cluster_id, token_id in postings],
            *concatenated(postings),
            context.ids,
            context.left_count,
            self.member_limit(context.num_descriptions),
        )
        return BlockCollection.from_columns(columns, name=self.name)
