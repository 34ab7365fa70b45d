"""Columnar profile store: one matcher's token profiles over a pipeline context.

The pairwise matchers re-derive the token profile of a description on every
comparison: :class:`~repro.matching.matchers.ProfileSimilarityMatcher` calls
``token_set`` twice per pair and the TF-IDF path re-tokenises and re-weights
both descriptions through ``TfIdfVectorizer.transform``.  A description that
appears in *K* candidate pairs therefore pays its tokenisation and
normalisation cost *K* times, which dominates the matching phase once
meta-blocking has made candidate generation cheap.

:class:`ProfileStore` reads the profiles off a
:class:`~repro.core.context.PipelineContext` instead, which interned every
description once.  A :class:`Profile` holds:

* the **sorted token-id array** (``array('q')``) plus the id *set*, which turn
  every set similarity (Jaccard, Dice, overlap, cosine) into integer
  intersection counting;
* in TF-IDF mode, the **aligned weight array** with the same term-frequency
  scaling and smoothed IDF as ``TfIdfVectorizer.transform``, plus the
  **L2 norm** of the vector, computed with :func:`math.fsum` (whose exactly
  rounded result is independent of accumulation order, so the norm is
  bit-identical to the one the pairwise oracle derives from its ``dict``
  vector).

The store's **whole-collection form** is :meth:`ProfileStore.columns`: one
:class:`ProfileColumns` CSR over the context's ordinals (filtered token ids,
TF-IDF weights from one idf column and row norms), derived from
``context.token_columns()`` in a handful of array operations with no
:class:`Profile` object per description.  Its sort-merge
:meth:`ProfileColumns.shared` is the matching engine's ordinal-pair kernel
(:meth:`MatchingEngine.decide_ordinal_pairs
<repro.matching.engine.MatchingEngine.decide_ordinal_pairs>`), and its
lazily built transpose (rows per token) is what scores a merge against its
neighbourhood (:meth:`ProfileColumns.shared_with`); its weights
are the very floats of the per-description profiles (the same IEEE
operations, elementwise), its dot products and norms are plain vectorised
sums -- see :meth:`ProfileColumns.margin` for how far those can be from the
exactly rounded ones.  :class:`Profile` objects are built only where a score
must be exact: :meth:`ProfileStore.ordinal_profile` serves the context's
descriptions by ordinal (lazily, cached), :meth:`ProfileStore.build` any
other description (a merge, a replaced object), uncached, its tokens
interned into the context's vocabulary.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, List, Optional, Tuple

from repro.datamodel.description import EntityDescription
from repro.text.tokenize import token_set
from repro.text.vectorizer import SparseVector, TfIdfVectorizer

import numpy as _np


class Profile:
    """The columnar view of one description's token profile.

    Attributes
    ----------
    identifier:
        Identifier of the profiled description.
    token_ids:
        Sorted ``array('q')`` of interned token ids (distinct tokens).
    weights:
        TF-IDF weight ``array('d')`` aligned with ``token_ids``; ``None`` in
        set mode.
    norm:
        Precomputed L2 norm of ``weights`` (``0.0`` in set mode), computed
        with :func:`math.fsum` so it is bit-identical to the norm of the
        equivalent ``dict`` vector regardless of token order.

    The derived views (:attr:`id_set`, :attr:`weight_map`) are built lazily
    and cached: only the similarity mode that actually runs pays for its view.
    """

    __slots__ = (
        "identifier",
        "token_ids",
        "weights",
        "norm",
        "_id_set",
        "_weight_map",
    )

    def __init__(
        self,
        identifier: str,
        token_ids: array,
        weights: Optional[array] = None,
        norm: float = 0.0,
    ) -> None:
        self.identifier = identifier
        self.token_ids = token_ids
        self.weights = weights
        self.norm = norm
        self._id_set = None
        self._weight_map = None

    def __len__(self) -> int:
        return len(self.token_ids)

    @property
    def id_set(self) -> frozenset:
        """The token ids as a ``frozenset`` for C-speed set intersection."""
        if self._id_set is None:
            self._id_set = frozenset(self.token_ids)
        return self._id_set

    @property
    def weight_map(self) -> Optional[SparseVector]:
        """Token id -> weight as a SparseVector carrying the precomputed
        norm, so the pure-Python cosine pass can feed it straight into
        :func:`repro.text.vectorizer.weighted_cosine`; ``None`` in set mode."""
        if self._weight_map is None and self.weights is not None:
            self._weight_map = SparseVector(
                zip(self.token_ids, self.weights), norm=self.norm
            )
        return self._weight_map


class ProfileColumns:
    """Every context description's profile as one CSR, and its transpose.

    Row ``o`` (a context ordinal) holds the sorted token ids the store's
    token filter admits and, in TF-IDF mode, the aligned weights -- the
    floats the per-description :class:`Profile` carries, derived by the same
    IEEE operations elementwise.  :meth:`shared` scores pairs of rows by
    sorting the entries of both rows of every pair once.

    The transpose -- per token id, the rows that hold it and their weights
    -- is built lazily, once, by one stable argsort of the id column; it
    scores one profile outside the columns against many rows
    (:meth:`shared_with`, the update phase's merges).

    ``sizes`` is the profile length per row (what the set similarities
    divide by), ``norms`` the L2 norm per row (TF-IDF mode only).
    """

    __slots__ = ("ptr", "ids", "weights", "sizes", "norms", "stride", "_longest", "_by_token")

    def __init__(self, context, token_filter, idf=None) -> None:
        """``idf``: the float64 idf per token id (TF-IDF mode) or ``None``."""
        np = _np
        ptr, ids, counts = (
            np.array(column, dtype=np.int64) for column in context.token_columns()
        )
        vocabulary_size = context.vocabulary_size
        #: every stored id is below it, so a ``pair * stride + id`` key
        #: names one (pair, id) entry
        self.stride = max(1, vocabulary_size)
        if not token_filter.trivial:
            keep = np.frombuffer(token_filter.mask(vocabulary_size), dtype=np.bool_)[ids]
            kept_before = np.zeros(len(ids) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept_before[1:])
            ptr, ids, counts = kept_before[ptr], ids[keep], counts[keep]
        sizes = np.diff(ptr)
        self.ptr = ptr
        self.sizes = sizes
        self.ids = ids
        self._longest = int(sizes.max(initial=0))
        self._by_token = None
        self.weights = self.norms = None
        if idf is not None:
            # the maximal count is taken after the filter
            filled = sizes > 0
            starts = ptr[:-1][filled]
            max_count = np.repeat(np.maximum.reduceat(counts, starts), sizes[filled])
            self.weights = (0.5 + 0.5 * counts / max_count) * idf[ids]
            self.norms = np.zeros(len(sizes), dtype=np.float64)
            self.norms[filled] = np.sqrt(np.add.reduceat(self.weights * self.weights, starts))

    def margin(self, query_size: int = 0) -> float:
        """How far a cosine from these columns can be from the exact one.

        Both paths multiply the same weight pairs (one rounding, the same
        float whichever operand comes first) and differ in how they add:
        the exact path rounds each sum once (``fsum``), the columns add term
        by term.  Every term is non-negative, so a sum of ``n`` terms is off
        by at most ``(n - 1) u`` of itself (``u = 2**-53``).  With ``L`` the
        longest row the two dot products differ by ``L u``, each pair of
        norms by ``(L / 2 + 2) u`` (a square root halves the error of its
        argument and rounds once), the norm products and the quotients
        round once per path: ``(2 L + 8) u`` of a score that is at most 1.
        The margin is twice that.  ``query_size`` is the length of a profile
        scored against the rows (:meth:`shared_with`); it counts towards
        ``L``.
        """
        longest = max(self._longest, query_size)
        return (4 * longest + 16) * 2.0**-53

    def shared(self, first, second):
        """Per pair of rows: how many ids they share (set mode), or the sum
        of the products of the weights of the ids they share (TF-IDF mode).

        A sort-merge: the entries of both rows of every pair are gathered
        as ``pair * stride + id`` keys, the first row's before the second's,
        and sorted stably once, so a shared id is two adjacent equal keys,
        the first row's entry first.  ``bincount`` adds a pair's hits in
        ascending id order.
        """
        np = _np
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        count = len(first)
        rows = np.empty(2 * count, dtype=np.int64)
        rows[0::2] = first
        rows[1::2] = second
        starts = self.ptr[rows]
        sizes = self.ptr[rows + 1] - starts
        entry = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        entry += np.arange(len(entry))
        keys = np.repeat(np.arange(count) * self.stride, sizes.reshape(-1, 2).sum(axis=1))
        keys += self.ids[entry]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        hit = np.flatnonzero(keys[1:] == keys[:-1])
        pair = keys[hit] // self.stride
        if self.weights is None:
            return np.bincount(pair, minlength=count)
        entry = entry[order]
        products = self.weights[entry[hit]] * self.weights[entry[hit + 1]]
        return np.bincount(pair, weights=products, minlength=count)

    def _transpose(self):
        """``(ptr, rows, weights, slot)``: per token id ``t``, the rows that
        hold it, ``rows[ptr[t]:ptr[t + 1]]`` in ascending row order, and
        their aligned weights (``None`` in set mode); ``slot`` is a row-sized
        scratch column of ``-1``."""
        if self._by_token is None:
            np = _np
            order = np.argsort(self.ids, kind="stable")
            ptr = np.zeros(self.stride + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.ids, minlength=self.stride), out=ptr[1:])
            rows = np.repeat(np.arange(len(self.sizes)), self.sizes)[order]
            weights = self.weights[order] if self.weights is not None else None
            slot = np.full(len(self.sizes), -1, dtype=np.int64)
            self._by_token = (ptr, rows, weights, slot)
        return self._by_token

    def shared_with(self, profile: Profile, rows):
        """Per row of ``rows``: what :meth:`shared` gives for that row and a
        row holding ``profile``.

        The transpose segments of the profile's ids are gathered in
        ascending id order and ``bincount`` adds each row's hits in that
        order -- the ids and products :meth:`shared` adds, in its order, so
        the sums are bit-equal.  Ids the vocabulary gained after the columns
        were built are held by no row.  Rows are placed through the scratch
        ``slot`` column (reset before returning), so a call costs what the
        profile's segments hold, not the number of rows.
        """
        np = _np
        token_ptr, token_rows, token_weights, slot = self._transpose()
        rows = np.asarray(rows, dtype=np.int64)
        ids = np.asarray(profile.token_ids, dtype=np.int64)
        known = ids < self.stride
        starts = token_ptr[ids[known]]
        lengths = token_ptr[ids[known] + 1] - starts
        bounds = np.cumsum(lengths) - lengths
        entry = np.repeat(starts - bounds, lengths) + np.arange(int(lengths.sum()))
        slot[rows] = np.arange(len(rows))
        try:
            position = slot[token_rows[entry]]
            back = slot[rows]
        finally:
            slot[rows] = -1
        hit = position >= 0
        if token_weights is None:
            return np.bincount(position[hit], minlength=len(rows))[back]
        weights = np.asarray(profile.weights or (), dtype=np.float64)[known]
        products = np.repeat(weights, lengths)[hit] * token_weights[entry[hit]]
        return np.bincount(position[hit], weights=products, minlength=len(rows))[back]


class ProfileStore:
    """One matcher's token profiles over a pipeline context.

    A store instance mirrors the configuration of exactly one matcher:

    * **set mode** (``vectorizer=None``) -- profiles are the distinct tokens of
      ``token_set(description.values(), stop_words, min_length)``, matching
      :class:`~repro.matching.matchers.ProfileSimilarityMatcher`'s
      un-vectorised path;
    * **TF-IDF mode** (``vectorizer`` given) -- profiles additionally carry
      the weight column and norm of ``vectorizer.transform(description)``,
      taken directly from the transform output, so the columns hold
      bit-identical floats by construction.

    Parameters
    ----------
    context:
        The :class:`~repro.core.context.PipelineContext` whose vocabulary the
        token ids index.  The profile of every description it owns is built
        straight from its interned columns -- no re-tokenisation, same floats
        (counts and document frequencies are exact integers, the weight/norm
        arithmetic is the very expression of ``TfIdfVectorizer.transform``
        and :func:`~repro.text.vectorizer.l2_norm`).  A description outside
        the context (a merge of the update phase, or a replaced object
        reusing a known identifier) is tokenised by :meth:`build`.
    stop_words / min_token_length:
        Set-mode tokenisation options (ignored in TF-IDF mode, exactly as the
        pairwise matcher ignores them when a vectoriser is present).
    vectorizer:
        Optional fitted :class:`~repro.text.vectorizer.TfIdfVectorizer`.
    """

    def __init__(
        self,
        context,
        stop_words: Optional[Iterable[str]] = None,
        min_token_length: int = 1,
        vectorizer: Optional[TfIdfVectorizer] = None,
    ) -> None:
        self.context = context
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = min_token_length
        self.vectorizer = vectorizer
        #: ordinal -> profile / CSR over the context's descriptions (lazy)
        self._ordinal_profiles: Optional[List[Optional[Profile]]] = None
        self._columns: Optional[ProfileColumns] = None

    def intern(self, token: str) -> int:
        """The context's dense integer id of ``token``, assigning one if new."""
        return self.context.intern(token)

    def token(self, token_id: int) -> str:
        """Inverse of :meth:`intern`."""
        return self.context.token(token_id)

    @property
    def vocabulary_size(self) -> int:
        return self.context.vocabulary_size

    @property
    def mode(self) -> str:
        return "tfidf" if self.vectorizer is not None else "set"

    # ------------------------------------------------------------------
    # profiles by context ordinal
    # ------------------------------------------------------------------
    def _token_filter(self):
        """The context's admission mask for this store's tokenisation."""
        if self.vectorizer is None:
            return self.context.token_filter(self.stop_words, self.min_token_length)
        return self.context.token_filter(None, self.vectorizer.min_token_length)

    def ordinal_profile(self, ordinal: int) -> Profile:
        """The exact profile of the context description at ``ordinal``.

        Built on first use from :meth:`columns` and cached; row ``o`` never
        goes stale, because the context interned ``context.description(o)``
        once and for all.
        """
        profiles = self._ordinal_profiles
        if profiles is None:
            profiles = self._ordinal_profiles = [None] * self.context.num_descriptions
        profile = profiles[ordinal]
        if profile is None:
            profile = profiles[ordinal] = self._build_from_context(ordinal)
        return profile

    def columns(self) -> ProfileColumns:
        """Every context description's profile as one :class:`ProfileColumns`
        (built once)."""
        if self._columns is None:
            idf = None
            if self.vectorizer is not None:
                idf = self.vectorizer.idf_column(self.context.tokens)
            self._columns = ProfileColumns(self.context, self._token_filter(), idf)
        return self._columns

    # ------------------------------------------------------------------
    def build(self, description: EntityDescription) -> Profile:
        """The profile of ``description``.

        A description the context owns is served by :meth:`ordinal_profile`;
        any other (a merge, or a different object under a known identifier)
        is tokenised into the context's vocabulary and not kept: it is scored
        and dropped.
        """
        context = self.context
        ordinal = context.ordinal(description.identifier)
        if ordinal is not None and context.description(ordinal) is description:
            return self.ordinal_profile(ordinal)
        if self.vectorizer is None:
            tokens = token_set(
                description.values(),
                stop_words=self.stop_words,
                min_length=self.min_token_length,
            )
            ids = array("q", sorted(self.intern(token) for token in tokens))
            return Profile(description.identifier, ids)

        # TF-IDF mode: the columns are the vectorizer's own transform output
        # re-keyed to interned ids, so they are bit-identical to the pairwise
        # oracle's vectors by construction -- including the SparseVector's
        # fsum-precomputed norm
        vector = self.vectorizer.transform(description)
        if not vector:
            return Profile(description.identifier, array("q"))
        weighted: List[Tuple[int, float]] = sorted(
            (self.intern(token), weight) for token, weight in vector.items()
        )
        ids = array("q", (token_id for token_id, _ in weighted))
        weights = array("d", (weight for _, weight in weighted))
        return Profile(description.identifier, ids, weights, vector.norm)

    def _build_from_context(self, ordinal: int) -> Profile:
        """The profile of the context description at ``ordinal``, read off
        :meth:`columns` (no tokenisation).

        Bit-identity with the tokenising path: the columns hold the same
        filtered distinct ids and, in TF-IDF mode, the weights of
        ``TfIdfVectorizer.transform`` (its IEEE operations on the same exact
        counts); the norm goes through :func:`math.fsum` (exactly rounded,
        accumulation-order independent) like
        :func:`~repro.text.vectorizer.l2_norm`.
        """
        columns = self.columns()
        entries = slice(columns.ptr[ordinal], columns.ptr[ordinal + 1])
        identifier = self.context.ids[ordinal]
        ids = array("q", columns.ids[entries].tobytes())
        if columns.weights is None or not len(ids):
            return Profile(identifier, ids)
        weights = array("d", columns.weights[entries].tobytes())
        return Profile(identifier, ids, weights, math.sqrt(math.fsum(w * w for w in weights)))
