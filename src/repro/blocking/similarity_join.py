"""String-similarity-join blocking (prefix filtering / AllPairs--PPJoin style).

The tutorial describes an alternative blocking approach that "constructs
blocks by identifying all pairs of descriptions whose string values
similarities are above a certain threshold ... without computing the
similarity of all pairs" by building an inverted index over tokens.  This
module implements the classical prefix-filtering similarity join:

1. tokens are globally ordered from rarest to most frequent;
2. each description only indexes the *prefix* of its sorted token list (long
   enough that two descriptions whose prefixes are disjoint cannot reach the
   similarity threshold);
3. candidate pairs are generated from the inverted index on prefix tokens,
   and verified with the exact set similarity (Jaccard here);
4. verified pairs become (tiny, two-member) blocks.

The positional filter of PPJoin is applied on top of plain prefix filtering to
discard candidates whose maximum possible overlap is already too small.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as _np

from repro.blocking.base import (
    BlockBuilder,
    BlockCollection,
    ERInput,
    check_unit_interval,
    interned,
)
from repro.blocking.columns import BlockColumns, TokenColumnView
from repro.datamodel.pairs import identifier_ranks
from repro.text.tokenize import DEFAULT_STOP_WORDS, check_min_token_length


class SimilarityJoinBlocking(BlockBuilder):
    """Self- or cross-join of descriptions with Jaccard similarity above a threshold.

    Parameters
    ----------
    threshold:
        Jaccard similarity threshold in (0, 1]; pairs at or above it become blocks.
    use_positional_filter:
        Whether to additionally apply PPJoin's positional filter, which
        tightens the candidate set without changing the result.
    stop_words, min_token_length:
        Tokenisation options, identical to token blocking so results are
        comparable.
    """

    name = "similarity_join"

    def __init__(
        self,
        threshold: float = 0.5,
        use_positional_filter: bool = True,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
    ) -> None:
        self.threshold = check_unit_interval("threshold", threshold, open_low=True)
        self.use_positional_filter = use_positional_filter
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = check_min_token_length(min_token_length)
        #: populated by :meth:`build`; statistics useful for benchmarks
        self.last_candidate_count = 0
        self.last_verified_count = 0

    # ------------------------------------------------------------------
    def build(self, data: ERInput, context=None) -> BlockCollection:
        """One two-member block ``join:<first>|<second>`` per verified pair,
        in canonical pair order (held as pair columns)."""
        view, _engine, first, second = self._verified(interned(data, context))
        left = None
        if view.left_count >= 0:
            left = _np.where(first < view.left_count, first, second)
        pairs = BlockColumns.from_pairs("join", view.ids, first, second, left)
        return BlockCollection.from_columns(pairs, name=self.name)

    def join_pairs(self, data: ERInput, context=None) -> List[Tuple[str, str, float]]:
        """The verified pairs with their exact Jaccard similarities (join-style API)."""
        view, engine, first, second = self._verified(interned(data, context))
        first, second = first.tolist(), second.tolist()
        scores = engine.score_ordinal_pairs(first, second)
        ids = view.ids
        return [(ids[f], ids[s], score) for f, s, score in zip(first, second, scores)]

    def _verified(self, context):
        """``(token view, matching engine, first, second)``: the verified pairs.

        ``first`` and ``second`` are int64 ordinal columns in canonical pair
        order; the engine (a Jaccard matcher at the join threshold) scores
        them on request.

        Candidate generation runs entirely in *rank space*: the global
        rarest-first token order ranks ids once by ``(document frequency,
        token string)``, records are processed shortest-first with
        identifier tie-breaks, and the prefix-index scan collapses into one
        vectorised encounter enumeration (see :func:`_vectorised_candidates`
        for why the positional filter admits this).  Candidate pairs are
        packed into single integers whose ascending order is the sorted
        order of the canonical identifier pairs.  Verification runs a Jaccard
        :class:`~repro.matching.matchers.ProfileSimilarityMatcher` at the
        join threshold over the context's profiles (whose token filter is
        this view's): the matching engine's ordinal-pair kernel
        (:meth:`~repro.matching.engine.MatchingEngine.decide_ordinal_pairs`,
        whose flags are the exact body's decisions) decides every candidate;
        only :meth:`join_pairs` scores the kept pairs, by the exact body
        (:meth:`~repro.matching.engine.MatchingEngine.score_ordinal_pairs`).
        """
        from repro.matching.engine import MatchingEngine
        from repro.matching.matchers import ProfileSimilarityMatcher

        view = TokenColumnView.from_context(context, self.stop_words, self.min_token_length)
        columns = view.columns
        ids = view.ids
        n = len(columns)
        threshold = self.threshold
        left_count = view.left_count

        document_frequency: Dict[int, int] = {}
        frequency_get = document_frequency.get
        for column in columns:
            for token_id in column:
                document_frequency[token_id] = frequency_get(token_id, 0) + 1
        token_of = view.token_of
        rank_of: Dict[int, int] = {
            token_id: rank
            for rank, token_id in enumerate(
                sorted(document_frequency, key=lambda t: (document_frequency[t], token_of(t)))
            )
        }

        # identifier ranks: candidate pairs order by them exactly as canonical
        # string pairs sort
        id_rank = identifier_ranks(ids)
        record_order = sorted(range(n), key=lambda o: (len(columns[o]), ids[o]))
        ordered_codes = _vectorised_candidates(
            columns,
            n,
            left_count,
            threshold,
            self.use_positional_filter,
            rank_of,
            view.num_tokens,
            id_rank,
            record_order,
        )
        self.last_candidate_count = int(ordered_codes.size)
        rank_to_ordinal = _np.argsort(id_rank)
        first = rank_to_ordinal[ordered_codes // n]
        second = rank_to_ordinal[ordered_codes % n]
        matcher = ProfileSimilarityMatcher(
            threshold=threshold,
            stop_words=self.stop_words,
            min_token_length=self.min_token_length,
            similarity_name="jaccard",
        )
        engine = MatchingEngine(matcher, context=context)
        # the flags are the exact body's decisions: only the kept pairs are scored
        kept = engine.decide_ordinal_pairs(first, second)
        first, second = first[kept], second[kept]
        self.last_verified_count = len(first)
        return view, engine, first, second


def _vectorised_candidates(
    columns,
    n: int,
    left_count: int,
    threshold: float,
    use_positional: bool,
    rank_of: Dict[int, int],
    num_tokens: int,
    id_rank,
    record_order: Sequence[int],
):
    """All candidate codes in one vectorised pass, sorted ascending.

    PPJoin's sequential positional filter looks order-sensitive (a pair's
    overlap bound grows by one per failed check), but over rank-sorted prefixes both the
    scanning record's position and the indexed record's position strictly
    increase between consecutive shared tokens, so the remaining-overlap
    bound shrinks by at least one per encounter while the failure count
    grows by exactly one: once the first shared prefix token of a pair
    fails the filter, every later one must fail too, and if any encounter
    passes then the first one does.  A pair is therefore a candidate
    exactly when *any* of its (earlier record, later record, shared prefix
    token) encounters passes the filters with a zero prior bound -- a
    fully static test this helper evaluates for every encounter at once.
    The float expressions are the sequential loop's, and "earlier" follows
    its shortest-first processing order, so the returned candidate set is
    the sequential loop's exactly.
    """
    np = _np
    lens = np.fromiter((len(column) for column in columns), dtype=np.int64, count=n)
    if n == 0 or int(lens.sum()) == 0:
        return np.empty(0, dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(columns), np.int64, int(lens.sum()))
    # token id -> rank translation through a dense lookup column
    rank_lookup = np.zeros(num_tokens, dtype=np.int64)
    count = len(rank_of)
    rank_lookup[np.fromiter(rank_of.keys(), dtype=np.int64, count=count)] = np.fromiter(
        rank_of.values(), dtype=np.int64, count=count
    )
    record_ids = np.repeat(np.arange(n, dtype=np.int64), lens)
    # stable sort by (record, rank): record segments stay contiguous and
    # in place, each holding its ranks ascending -- the ranked token lists
    order = np.lexsort((rank_lookup[flat], record_ids))
    ranks = rank_lookup[flat][order]
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    positions = np.arange(len(flat), dtype=np.int64) - np.repeat(offsets, lens)
    # keep only prefix positions; size-0 records contribute no elements
    prefix_lens = lens - np.ceil(lens * threshold).astype(np.int64) + 1
    in_prefix = positions < prefix_lens[record_ids]
    prefix_ranks = ranks[in_prefix]
    prefix_records = record_ids[in_prefix]
    prefix_positions = positions[in_prefix]
    # group prefix entries by token, ordered by processing order inside
    # each group: an encounter pairs an entry with every earlier entry
    processing = np.empty(n, dtype=np.int64)
    processing[np.asarray(record_order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    group_order = np.lexsort((processing[prefix_records], prefix_ranks))
    entry_ranks = prefix_ranks[group_order]
    entry_records = prefix_records[group_order]
    entry_positions = prefix_positions[group_order]
    total = len(entry_ranks)
    if total == 0:
        return np.empty(0, dtype=np.int64)
    is_start = np.empty(total, dtype=bool)
    is_start[0] = True
    np.not_equal(entry_ranks[1:], entry_ranks[:-1], out=is_start[1:])
    group_start = np.maximum.accumulate(
        np.where(is_start, np.arange(total, dtype=np.int64), 0)
    )
    within = np.arange(total, dtype=np.int64) - group_start
    encounters = int(within.sum())
    if encounters == 0:
        return np.empty(0, dtype=np.int64)
    later = np.repeat(np.arange(total, dtype=np.int64), within)
    spans = np.zeros(total, dtype=np.int64)
    np.cumsum(within[:-1], out=spans[1:])
    earlier = np.repeat(group_start, within) + (
        np.arange(encounters, dtype=np.int64) - np.repeat(spans, within)
    )
    earlier_record = entry_records[earlier]
    later_record = entry_records[later]
    earlier_size = lens[earlier_record]
    later_size = lens[later_record]
    # length filter: the sequential ``other_size < threshold * size`` with
    # the earlier record as "other" (processing is shortest-first)
    keep = earlier_size >= threshold * later_size
    if left_count >= 0:
        keep &= (earlier_record < left_count) != (later_record < left_count)
    if use_positional:
        remaining = np.minimum(
            later_size - entry_positions[later], earlier_size - entry_positions[earlier]
        )
        keep &= remaining >= threshold / (1.0 + threshold) * (later_size + earlier_size)
    first_rank = id_rank[later_record[keep]]
    second_rank = id_rank[earlier_record[keep]]
    codes = np.minimum(first_rank, second_rank) * n + np.maximum(first_rank, second_rank)
    return np.unique(codes)
