"""Shared columnar pipeline context: one tokenisation pass per workflow run.

Before this module, every phase of :class:`~repro.core.workflow.ERWorkflow`
built its own token universe: the blocking engine interned a
:class:`~repro.text.profile_store.ProfileStore`, the matching engine interned
another, the TF-IDF vectoriser ran a third full tokenisation pass over the
collection to fit document frequencies, and the update/iterate phase
re-blocked the whole collection from scratch -- so every entity description
was tokenised three to four times per run.

:class:`PipelineContext` interns the collection **once**:

* every description is assigned a dense **ordinal** (in the collection's
  iteration order -- left before right for clean--clean tasks, exactly the
  order of ``BlockBuilder._iter_with_side``);
* every token is interned into one shared **vocabulary** of dense integer
  ids (the very representation :class:`~repro.text.profile_store.ProfileStore`
  uses);
* for every description, the context stores one **column per attribute**:
  the sorted distinct token ids of that attribute's values plus the aligned
  occurrence counts -- and one **ordered token-id stream** over all values
  (duplicates kept, in value order), from which order-sensitive consumers
  such as sorted-neighbourhood keys are derived.

All downstream token views are derived from these columns without touching
the raw strings again:

* **blocking keys** -- the merged distinct ids filtered by the builder's
  stop words and minimum token length (a per-vocabulary
  :class:`TokenFilter` mask, computed once per configuration);
* **attribute-clustering profiles** -- the per-attribute id sets, filtered
  the same way;
* **TF-IDF document frequencies** -- :meth:`fit_vectorizer` counts each
  token's document frequency over the interned columns and returns a
  regularly-fitted :class:`~repro.text.vectorizer.TfIdfVectorizer` whose
  ``idf`` values are bit-identical to a ``fit(iter(data))`` pass (the
  frequencies are exact integers either way);
* **matching profiles** -- a :class:`~repro.text.profile_store.ProfileStore`
  constructed with ``context=...`` builds its per-description columns from
  the interned counts instead of re-tokenising (see
  :meth:`ProfileStore.build`).

The context is deliberately import-light (datamodel + text only), so the
engine modules can accept one without importing :mod:`repro.core`; engines
keep their private per-engine stores as the fallback whenever a context is
not supplied or does not own the input data.

The interning pass is lazy: a context that is created but never asked for
token data costs nothing beyond the constructor.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.text.tokenize import tokenize
from repro.text.vectorizer import TfIdfVectorizer

ERInput = object  # EntityCollection | CleanCleanTask (kept loose to stay import-light)


class TokenFilter:
    """A (stop words, minimum length) admission mask over a context vocabulary.

    The mask is evaluated once per token *id* and cached in a flat
    ``bytearray``, so filtering a description's column touches no strings.
    The vocabulary may keep growing after the filter is created (e.g. the
    prefix--infix--suffix builder interns URI tokens on the fly); the mask
    extends itself lazily.
    """

    __slots__ = ("_context", "stop_words", "min_length", "_flags")

    def __init__(
        self, context: "PipelineContext", stop_words: FrozenSet[str], min_length: int
    ) -> None:
        self._context = context
        self.stop_words = stop_words
        self.min_length = min_length
        self._flags = bytearray()

    @property
    def trivial(self) -> bool:
        """Whether the filter admits every token (no mask lookups needed)."""
        return self.min_length <= 1 and not self.stop_words

    def _extend(self, size: int) -> None:
        flags = self._flags
        tokens = self._context._tokens
        stops = self.stop_words
        min_length = self.min_length
        for token_id in range(len(flags), size):
            token = tokens[token_id]
            flags.append(len(token) >= min_length and token not in stops)

    def allows(self, token_id: int) -> bool:
        if len(self._flags) <= token_id:
            self._extend(token_id + 1)
        return bool(self._flags[token_id])

    def select(self, token_ids: Iterable[int]) -> array:
        """The admitted subset of ``token_ids``, order preserved."""
        if self.trivial:
            return token_ids if isinstance(token_ids, array) else array("q", token_ids)
        flags = self._flags
        vocabulary_size = self._context.vocabulary_size
        if len(flags) < vocabulary_size:
            self._extend(vocabulary_size)
        return array("q", (t for t in token_ids if flags[t]))

    def mask(self, size: int) -> bytes:
        """The admission flags of token ids ``0..size-1`` as immutable bytes.

        The multi-process engine ships this snapshot to worker processes so
        they can apply the filter without the vocabulary strings.
        """
        if len(self._flags) < size:
            self._extend(size)
        return bytes(self._flags[:size])


class PipelineContext:
    """One collection, interned once, shared by every pipeline phase.

    Parameters
    ----------
    data:
        The :class:`~repro.datamodel.collection.EntityCollection` or
        :class:`~repro.datamodel.collection.CleanCleanTask` being resolved.
        The context holds a reference and verifies ownership via identity
        (:meth:`owns`), so it can never silently serve columns for a
        different collection.
    """

    def __init__(self, data: ERInput) -> None:
        self.data = data
        self._interned = False
        self._ids: List[str] = []
        self._ordinal: Dict[str, int] = {}
        self._descriptions: List[EntityDescription] = []
        self.left_count = -1
        # shared vocabulary (token string <-> dense id)
        self._token_ids: Dict[str, int] = {}
        self._tokens: List[str] = []
        # per description: attribute names + aligned (sorted ids, counts) columns
        self._attr_names: List[Tuple[str, ...]] = []
        self._attr_ids: List[Tuple[array, ...]] = []
        self._attr_counts: List[Tuple[array, ...]] = []
        # per description: merged all-attribute (sorted ids, counts), built lazily
        self._merged: List[Optional[Tuple[array, array]]] = []
        # per description: every token id in value order (duplicates kept)
        self._streams: List[array] = []
        self._filters: Dict[Tuple[FrozenSet[str], int], TokenFilter] = {}
        self._fitted: Dict[int, TfIdfVectorizer] = {}

    # ------------------------------------------------------------------
    # ownership / structure
    # ------------------------------------------------------------------
    def owns(self, data: object) -> bool:
        """Whether this context was built for exactly ``data`` (identity)."""
        return data is self.data

    def _collect_descriptions(self) -> List[EntityDescription]:
        """The descriptions in interning order (left before right), side-effect:
        records ``left_count`` for clean--clean tasks.  Does **not** mark the
        context interned -- both the serial pass and the sharded parallel
        build start from this exact list."""
        data = self.data
        if isinstance(data, CleanCleanTask):
            descriptions = list(data.left) + list(data.right)
            self.left_count = len(data.left)
        else:
            descriptions = list(data)
        return descriptions

    def _intern_all(self) -> None:
        if self._interned:
            return
        self._interned = True
        descriptions = self._collect_descriptions()
        token_ids = self._token_ids
        tokens = self._tokens
        for description in descriptions:
            self._ordinal[description.identifier] = len(self._ids)
            self._ids.append(description.identifier)
            self._descriptions.append(description)
            names: List[str] = []
            id_columns: List[array] = []
            count_columns: List[array] = []
            stream = array("q")
            for attribute in description.attribute_names:
                counts: Dict[int, int] = {}
                for value in description.values(attribute):
                    for token in tokenize(value):
                        token_id = token_ids.get(token)
                        if token_id is None:
                            token_id = len(tokens)
                            token_ids[token] = token_id
                            tokens.append(token)
                        counts[token_id] = counts.get(token_id, 0) + 1
                        stream.append(token_id)
                names.append(attribute)
                items = sorted(counts.items())
                id_columns.append(array("q", (t for t, _ in items)))
                count_columns.append(array("q", (c for _, c in items)))
            self._attr_names.append(tuple(names))
            self._attr_ids.append(tuple(id_columns))
            self._attr_counts.append(tuple(count_columns))
            self._merged.append(None)
            self._streams.append(stream)

    def _intern_shards(
        self,
        descriptions: List[EntityDescription],
        shards: Iterable[Tuple[List[str], list]],
    ) -> None:
        """Merge worker-built interning shards into this (empty) context.

        Each shard covers a contiguous slice of ``descriptions`` (shards in
        slice order) and carries a *local* vocabulary -- token strings in the
        shard's first-occurrence order -- plus, per description, the
        attribute names and the per-attribute local-id/count columns and the
        local-id stream, exactly as :meth:`_intern_all` would have built them
        with a fresh vocabulary.

        The merge reassigns global ids by walking the shard vocabularies in
        shard order and get-or-assigning each token: a token's global id is
        therefore assigned at its global first occurrence, which reproduces
        the serial vocabulary order byte for byte.  Per-attribute columns are
        remapped and re-sorted by global id (the serial columns are sorted by
        id), and streams are remapped elementwise (order preserved).
        """
        if self._interned:
            raise RuntimeError("context is already interned")
        self._interned = True
        token_ids = self._token_ids
        tokens = self._tokens
        position = 0
        for local_tokens, entries in shards:
            remap = array("q", bytes(8 * len(local_tokens)))
            for local_id, token in enumerate(local_tokens):
                token_id = token_ids.get(token)
                if token_id is None:
                    token_id = len(tokens)
                    token_ids[token] = token_id
                    tokens.append(token)
                remap[local_id] = token_id
            for names, id_columns, count_columns, stream in entries:
                description = descriptions[position]
                position += 1
                self._ordinal[description.identifier] = len(self._ids)
                self._ids.append(description.identifier)
                self._descriptions.append(description)
                global_ids: List[array] = []
                global_counts: List[array] = []
                for ids_local, counts_local in zip(id_columns, count_columns):
                    items = sorted(
                        zip((remap[t] for t in ids_local), counts_local)
                    )
                    global_ids.append(array("q", (t for t, _ in items)))
                    global_counts.append(array("q", (c for _, c in items)))
                self._attr_names.append(names)
                self._attr_ids.append(tuple(global_ids))
                self._attr_counts.append(tuple(global_counts))
                self._merged.append(None)
                self._streams.append(array("q", (remap[t] for t in stream)))
        if position != len(descriptions):
            raise RuntimeError(
                f"interning shards cover {position} descriptions, "
                f"expected {len(descriptions)}"
            )

    @property
    def num_descriptions(self) -> int:
        self._intern_all()
        return len(self._ids)

    @property
    def ids(self) -> List[str]:
        """Identifier of every description, indexed by ordinal."""
        self._intern_all()
        return self._ids

    @property
    def descriptions(self) -> List[EntityDescription]:
        """The description objects, indexed by ordinal."""
        self._intern_all()
        return self._descriptions

    def ordinal(self, identifier: str) -> Optional[int]:
        self._intern_all()
        return self._ordinal.get(identifier)

    def description(self, ordinal: int) -> EntityDescription:
        return self.descriptions[ordinal]

    # ------------------------------------------------------------------
    # vocabulary
    # ------------------------------------------------------------------
    def intern(self, token: str) -> int:
        """Dense integer id of ``token``, assigning one if new."""
        self._intern_all()
        token_id = self._token_ids.get(token)
        if token_id is None:
            token_id = len(self._tokens)
            self._token_ids[token] = token_id
            self._tokens.append(token)
        return token_id

    def token(self, token_id: int) -> str:
        """Inverse of :meth:`intern`."""
        return self._tokens[token_id]

    @property
    def vocabulary_size(self) -> int:
        self._intern_all()
        return len(self._tokens)

    def token_filter(
        self, stop_words: Optional[Iterable[str]], min_length: int
    ) -> TokenFilter:
        """The cached :class:`TokenFilter` for a tokenisation configuration."""
        self._intern_all()
        stops = frozenset(stop_words) if stop_words else frozenset()
        key = (stops, min_length)
        cached = self._filters.get(key)
        if cached is None:
            cached = self._filters[key] = TokenFilter(self, stops, min_length)
        return cached

    # ------------------------------------------------------------------
    # per-description columns
    # ------------------------------------------------------------------
    def attribute_entries(self, ordinal: int) -> Iterable[Tuple[str, array, array]]:
        """``(attribute, sorted distinct ids, aligned counts)`` per attribute.

        Attributes whose values hold no token still appear (with empty
        columns), exactly as the attribute-clustering oracle records an
        empty profile for them.
        """
        self._intern_all()
        return zip(
            self._attr_names[ordinal],
            self._attr_ids[ordinal],
            self._attr_counts[ordinal],
        )

    def token_stream(self, ordinal: int) -> array:
        """Every token id of the description, in value order, duplicates kept.

        The stream records the tokens in exactly the order ``tokenize``
        yields them over ``description.values()`` (attributes in insertion
        order, values in insertion order).  Because ``normalize`` splits on
        the same word pattern that separates values in
        ``EntityDescription.text``, joining the stream's token strings with
        a single space reproduces ``normalize(description.text())`` --
        the default sorted-neighbourhood key -- without touching the raw
        strings again.
        """
        self._intern_all()
        return self._streams[ordinal]

    def token_counts(self, ordinal: int) -> Tuple[array, array]:
        """All-attribute ``(sorted distinct ids, aligned occurrence counts)``.

        The merge over the per-attribute columns is computed once per
        description and cached; the counts are exactly the ones
        ``TfIdfVectorizer.transform`` derives from the raw values.
        """
        self._intern_all()
        merged = self._merged[ordinal]
        if merged is None:
            id_columns = self._attr_ids[ordinal]
            if len(id_columns) == 1:
                merged = (id_columns[0], self._attr_counts[ordinal][0])
            else:
                counts: Dict[int, int] = {}
                for ids, column in zip(id_columns, self._attr_counts[ordinal]):
                    for token_id, count in zip(ids, column):
                        counts[token_id] = counts.get(token_id, 0) + count
                items = sorted(counts.items())
                merged = (
                    array("q", (t for t, _ in items)),
                    array("q", (c for _, c in items)),
                )
            self._merged[ordinal] = merged
        return merged

    # ------------------------------------------------------------------
    # TF-IDF fitting from the interned postings
    # ------------------------------------------------------------------
    def fit_vectorizer(self, min_token_length: int = 1) -> TfIdfVectorizer:
        """A fitted :class:`TfIdfVectorizer`, derived from the interned columns.

        Document frequencies are counted over the per-description distinct
        ids instead of a second tokenisation pass.  The result is
        indistinguishable from ``TfIdfVectorizer(min_token_length).fit(iter(data))``:
        the frequency of every token and the document count are the same
        exact integers, so every derived ``idf`` is the same float.
        """
        cached = self._fitted.get(min_token_length)
        if cached is not None:
            return cached
        self._intern_all()
        frequencies = [0] * len(self._tokens)
        token_filter = self.token_filter(None, min_token_length)
        trivial = token_filter.trivial
        for ordinal in range(len(self._ids)):
            ids, _counts = self.token_counts(ordinal)
            for token_id in ids:
                if trivial or token_filter.allows(token_id):
                    frequencies[token_id] += 1
        document_frequency = {
            self._tokens[token_id]: frequency
            for token_id, frequency in enumerate(frequencies)
            if frequency
        }
        vectorizer = TfIdfVectorizer.from_document_frequencies(
            document_frequency, len(self._ids), min_token_length=min_token_length
        )
        self._fitted[min_token_length] = vectorizer
        return vectorizer
