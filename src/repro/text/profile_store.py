"""Columnar profile store: interned tokens and cached per-entity arrays.

The pairwise matchers re-derive the token profile of a description on every
comparison: :class:`~repro.matching.matchers.ProfileSimilarityMatcher` calls
``token_set`` twice per pair and the TF-IDF path re-tokenises and re-weights
both descriptions through ``TfIdfVectorizer.transform``.  A description that
appears in *K* candidate pairs therefore pays its tokenisation and
normalisation cost *K* times, which dominates the matching phase once
meta-blocking has made candidate generation cheap.

:class:`ProfileStore` amortises that cost to once per description.  Tokens are
interned to dense integer ids shared across the whole collection, and for
every description the store caches a :class:`Profile`:

* the **sorted token-id array** (``array('q')``) plus the id *set*, which turn
  every set similarity (Jaccard, Dice, overlap, cosine) into integer
  intersection counting;
* in TF-IDF mode, the **aligned weight array** with the same term-frequency
  scaling and smoothed IDF as ``TfIdfVectorizer.transform``, plus the
  **L2 norm** of the vector, precomputed once with :func:`math.fsum` (whose
  exactly rounded result is independent of accumulation order, so the cached
  norm is bit-identical to the one the pairwise oracle derives from its
  ``dict`` vector).

Profiles are computed lazily (a description that never reaches the matcher
never pays) and cached by identifier.  The cache remembers which description
*object* produced each profile: when a different object arrives under the same
identifier -- e.g. after a merge replaced the description -- the stale entry is
recomputed automatically, and :meth:`ProfileStore.invalidate` drops a single
entry explicitly without touching the rest of the store.

A context-backed store additionally has a **whole-collection form**,
:meth:`ProfileStore.columns`: one :class:`ProfileColumns` CSR over the
context's ordinals (filtered token ids, TF-IDF weights, row norms and a
globally sorted ``row * stride + id`` key column), derived from
``context.token_columns()`` in a handful of array operations with no
:class:`Profile` object per description.  It is what the matching engine's
ordinal-pair kernel reads (:meth:`MatchingEngine.decide_ordinal_pairs
<repro.matching.engine.MatchingEngine.decide_ordinal_pairs>`), and its
lazily built transpose (rows per token) is what scores a merge against its
neighbourhood (:meth:`ProfileColumns.shared_with`); its weights
are the very floats of the per-description profiles (the same IEEE
operations, elementwise), its dot products and norms are plain vectorised
sums -- see :meth:`ProfileColumns.margin` for how far those can be from the
exactly rounded ones.  :class:`Profile` objects are built only where a score
must be exact: :meth:`ProfileStore.ordinal_profile` serves the context's
descriptions by ordinal (lazily, cached), :meth:`ProfileStore.profile` any
description by identifier.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.datamodel.description import EntityDescription
from repro.text.tokenize import token_set
from repro.text.vectorizer import SparseVector, TfIdfVectorizer

import numpy as _np


class Profile:
    """The cached columnar view of one description's token profile.

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
    IEEE operations elementwise.  ``keys`` is ``row * stride + id`` over all
    rows: ascending by construction, so one ``searchsorted`` finds any
    (row, id) entry (:meth:`shared`, row against row).

    The transpose -- per token id, the rows that hold it and their weights
    -- is built lazily, once, by one stable argsort of the id column; it
    scores one profile outside the columns against many rows
    (:meth:`shared_with`, the update phase's merges).

    ``sizes`` is the profile length per row (what the set similarities
    divide by), ``norms`` the L2 norm per row (TF-IDF mode only).
    """

    __slots__ = (
        "ptr", "ids", "weights", "keys", "sizes", "norms", "stride", "_longest", "_by_token"
    )

    def __init__(self, context, token_filter, vectorizer=None) -> None:
        np = _np
        ptr, ids, counts = (
            np.array(column, dtype=np.int64) for column in context.token_columns()
        )
        vocabulary_size = context.vocabulary_size
        #: every stored id is below it, so a key names one (row, id) entry
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
        self.keys = np.repeat(np.arange(len(sizes)) * self.stride, sizes) + ids
        self._longest = int(sizes.max(initial=0))
        self._by_token = None
        self.weights = self.norms = None
        if vectorizer is not None:
            # the idf floats are the vectorizer's own (np.log need not round
            # like math.log); the maximal count is taken after the filter
            idf = np.fromiter(
                map(vectorizer.idf, map(context.token, range(vocabulary_size))),
                dtype=np.float64,
                count=vocabulary_size,
            )
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

        The entries of the shorter row of each pair are looked up among the
        other row's through the key column; ``bincount`` adds a pair's hits
        in ascending id order, whichever row was the shorter.
        """
        np = _np
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        ptr = self.ptr
        swap = ptr[second + 1] - ptr[second] < ptr[first + 1] - ptr[first]
        probe = np.where(swap, second, first)
        table = np.where(swap, first, second)
        sizes = ptr[probe + 1] - ptr[probe]
        bounds = np.zeros(len(probe) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        pair = np.repeat(np.arange(len(probe)), sizes)
        entry = np.arange(bounds[-1]) + np.repeat(ptr[probe] - bounds[:-1], sizes)
        wanted = np.repeat(table * self.stride, sizes) + self.ids[entry]
        keys = self.keys
        found = np.searchsorted(keys, wanted)
        found[found == len(keys)] = 0
        hit = keys[found] == wanted
        pair = pair[hit]
        if self.weights is None:
            return np.bincount(pair, minlength=len(probe))
        products = self.weights[entry[hit]] * self.weights[found[hit]]
        return np.bincount(pair, weights=products, minlength=len(probe))

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
    """Interns tokens once per collection and caches per-description columns.

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
    stop_words / min_token_length:
        Set-mode tokenisation options (ignored in TF-IDF mode, exactly as the
        pairwise matcher ignores them when a vectoriser is present).
    vectorizer:
        Optional fitted :class:`~repro.text.vectorizer.TfIdfVectorizer`.
    context:
        Optional shared :class:`~repro.core.context.PipelineContext`.  When
        given, the store delegates token interning to the context's
        vocabulary and builds the profile of every description the context
        owns straight from the interned columns -- no re-tokenisation, same
        floats (counts and document frequencies are exact integers, the
        weight/norm arithmetic is the very expression of
        ``TfIdfVectorizer.transform`` and :func:`~repro.text.vectorizer.l2_norm`).
        Descriptions outside the context (e.g. transient merged descriptions
        of the update phase, or a replaced object reusing a known
        identifier) transparently take the tokenising path.  A context also
        gives the store an ordinal space: :meth:`ordinal_profile` serves the
        owned descriptions' exact profiles by ordinal and :meth:`columns`
        all of them at once as one CSR.
    """

    def __init__(
        self,
        stop_words: Optional[Iterable[str]] = None,
        min_token_length: int = 1,
        vectorizer: Optional[TfIdfVectorizer] = None,
        context=None,
    ) -> None:
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = min_token_length
        self.vectorizer = vectorizer
        self.context = context
        self._token_ids: Dict[str, int] = {}
        self._tokens: List[str] = []
        #: token id -> idf weight column of the configured vectorizer,
        #: extended lazily (context mode only)
        self._idf: array = array("d")
        #: identifier -> (source description, profile); the source reference
        #: detects stale entries when a new object reuses an identifier
        self._profiles: Dict[str, Tuple[EntityDescription, Profile]] = {}
        #: ordinal -> profile / CSR over the context's descriptions (lazy)
        self._ordinal_profiles: Optional[List[Optional[Profile]]] = None
        self._columns: Optional[ProfileColumns] = None
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # token interning
    # ------------------------------------------------------------------
    def intern(self, token: str) -> int:
        """Return the dense integer id of ``token``, assigning one if new."""
        if self.context is not None:
            return self.context.intern(token)
        token_id = self._token_ids.get(token)
        if token_id is None:
            token_id = len(self._tokens)
            self._token_ids[token] = token_id
            self._tokens.append(token)
        return token_id

    def token(self, token_id: int) -> str:
        """Inverse of :meth:`intern`."""
        if self.context is not None:
            return self.context.token(token_id)
        return self._tokens[token_id]

    @property
    def vocabulary_size(self) -> int:
        if self.context is not None:
            return self.context.vocabulary_size
        return len(self._tokens)

    @property
    def mode(self) -> str:
        return "tfidf" if self.vectorizer is not None else "set"

    def __len__(self) -> int:
        return len(self._profiles)

    # ------------------------------------------------------------------
    # profiles
    # ------------------------------------------------------------------
    def profile(self, description: EntityDescription) -> Profile:
        """The cached :class:`Profile` of ``description`` (built on first use).

        The cache is keyed by identifier but verified against the description
        object: a *different* object under a known identifier (a merged or
        otherwise replaced description) transparently recomputes the entry, so
        callers never observe a stale profile.
        """
        entry = self._profiles.get(description.identifier)
        if entry is not None and entry[0] is description:
            self.hits += 1
            return entry[1]
        self.misses += 1
        profile = self.build(description)
        self._profiles[description.identifier] = (description, profile)
        return profile

    def invalidate(self, identifier: str) -> bool:
        """Drop the cached profile of ``identifier``; other entries are kept.

        Returns whether an entry existed.  The per-pair branch of the
        update/iterate phase drops each merge's transient entry this way.
        """
        return self._profiles.pop(identifier, None) is not None

    def clear(self) -> None:
        """Drop every cached profile (the interned vocabulary is kept)."""
        self._profiles.clear()

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

        Built on first use from the context's interned columns (no
        tokenisation) and cached; row ``o`` never goes stale, because the
        context interned ``context.description(o)`` once and for all.
        """
        profiles = self._ordinal_profiles
        if profiles is None:
            if self.context is None:
                raise ValueError("profiles by ordinal need a shared pipeline context")
            profiles = self._ordinal_profiles = [None] * self.context.num_descriptions
        profile = profiles[ordinal]
        if profile is None:
            profile = profiles[ordinal] = self._build_from_context(ordinal)
        return profile

    def columns(self) -> ProfileColumns:
        """Every context description's profile as one :class:`ProfileColumns`
        (built once)."""
        if self._columns is None:
            if self.context is None:
                raise ValueError("profile columns need a shared pipeline context")
            self._columns = ProfileColumns(self.context, self._token_filter(), self.vectorizer)
        return self._columns

    # ------------------------------------------------------------------
    def build(self, description: EntityDescription) -> Profile:
        """The profile of ``description``, not cached by identifier.

        What :meth:`profile` runs on a cache miss; callers use it directly for
        transient descriptions (the update phase's merges) that are scored
        once and dropped.  A description the context owns is served by
        :meth:`ordinal_profile`.
        """
        context = self.context
        if context is not None:
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
        """Build a profile from the context's interned columns (no tokenisation).

        Bit-identity with the tokenising path: the set-mode ids are the same
        filtered distinct tokens; the TF-IDF weights apply the exact
        term-frequency expression of ``TfIdfVectorizer.transform`` to the
        exact integer counts the transform would derive, and the norm goes
        through :func:`math.fsum` (exactly rounded, accumulation-order
        independent) like :func:`~repro.text.vectorizer.l2_norm`.
        """
        context = self.context
        identifier = context.ids[ordinal]
        token_filter = self._token_filter()
        ids, counts = context.token_counts(ordinal)
        if self.vectorizer is None:
            return Profile(identifier, token_filter.select(ids))

        if not token_filter.trivial:
            kept = [
                (token_id, count)
                for token_id, count in zip(ids, counts)
                if token_filter.allows(token_id)
            ]
            ids = array("q", (t for t, _ in kept))
            counts = array("q", (c for _, c in kept))
        if not len(ids):
            return Profile(identifier, array("q"))
        idf = self._idf
        vocabulary_size = context.vocabulary_size
        if len(idf) < vocabulary_size:
            token_of = context.token
            idf_of = self.vectorizer.idf
            idf.extend(
                idf_of(token_of(token_id))
                for token_id in range(len(idf), vocabulary_size)
            )
        max_count = max(counts)
        weights = array(
            "d",
            (
                (0.5 + 0.5 * count / max_count) * idf[token_id]
                for token_id, count in zip(ids, counts)
            ),
        )
        norm = math.sqrt(math.fsum(w * w for w in weights))
        return Profile(identifier, ids, weights, norm)
