"""Shared columnar pipeline context: one tokenisation pass per workflow run.

Every phase of :class:`~repro.core.workflow.ERWorkflow` reads its token view
from one :class:`PipelineContext`, which interns the collection **once**:

* every description is assigned a dense **ordinal** (in the collection's
  iteration order -- left before right for clean--clean tasks, exactly the
  order of ``BlockBuilder._iter_with_side``);
* every token is interned into one shared **vocabulary** of dense integer
  ids, assigned in order of first occurrence over the collection;
* the token data lives in flat int64 ndarray **CSR columns**, published
  read-only, never in per-description objects:

  - the **stream** column: every token id of every value in value order,
    duplicates kept, one segment per description -- order-sensitive
    consumers such as sorted-neighbourhood keys read it;
  - the **slot** columns: one slot per (description, attribute), holding the
    sorted distinct token ids of that attribute's values plus the aligned
    occurrence counts, and the attribute names -- derived on first
    :meth:`~PipelineContext.attribute_entries` (only attribute-clustering
    blocking reads them), from the stream and each slot's end in it;
  - the **merged** columns: per description, the sorted distinct ids over
    all attributes plus the aligned counts.

**Chunks.**  The interning pass walks the descriptions in chunks of
``_CHUNK_DESCRIPTIONS``.  The chunk's slots (each attribute's values joined
by a space) and its per-description slot counts come from C-level ``map``
passes over the attribute mappings, with no Python loop per description.
One :func:`~repro.text.tokenize.tokenize_slots`
call splits a chunk's slots into one word list, a mark closing each slot;
one C-level pass maps it to ids through a vocabulary that gives a new token
the next id on its first lookup (chunks go in stream order, so the ids are
the ones a token-by-token pass assigns) and the mark -1, so slot ends are
the mark positions less the marks before them; and one sorted-distinct/count
kernel (:func:`_sorted_distinct`) derives the merged columns of the whole
chunk.  The transient arrays are bounded by the chunk; the chunks' columns
are concatenated once, at the end.  Nothing is published until the pass has
succeeded: an interrupted pass leaves the context un-interned.  The slot
columns are derived later the same way, one chunk at a time, and published
only when complete.

**Accessors.**  :meth:`~PipelineContext.token_counts`,
:meth:`~PipelineContext.attribute_entries` and
:meth:`~PipelineContext.token_stream` are *per description* and return
read-only ndarray slices; :meth:`~PipelineContext.token_columns` hands out
the merged columns *whole* (``ptr``, ``ids``, ``counts``) for the consumers
that work on all descriptions at once -- the token-blocking postings build,
the profile columns, the long-tail builders' token view and
:meth:`~PipelineContext.fit_vectorizer` -- so none loops per description.
A consumer that walks a row in Python takes it ``tolist()`` first.

All downstream token views are derived from these columns without touching
the raw strings again:

* **blocking keys** -- the merged distinct ids filtered by the builder's
  stop words and minimum token length (a per-vocabulary
  :class:`TokenFilter` mask, computed once per configuration);
* **attribute-clustering profiles** -- the per-attribute id sets, filtered
  the same way;
* **TF-IDF document frequencies** -- :meth:`fit_vectorizer` counts each
  token's document frequency over the merged ids column and returns a
  regularly-fitted :class:`~repro.text.vectorizer.TfIdfVectorizer` whose
  ``idf`` values are bit-identical to a ``fit(iter(data))`` pass (the
  frequencies are exact integers either way);
* **matching profiles** -- a :class:`~repro.text.profile_store.ProfileStore`
  is always built over a context and reads its profile columns off the
  interned counts instead of re-tokenising (see
  :meth:`ProfileStore.columns`).

The context is deliberately import-light (datamodel + text only), so the
engine modules can build one without importing the workflow; an engine
given no context, or one that does not own the input data, runs over a
private context of that data.

The interning pass is lazy: a context that is created but never asked for
token data costs nothing beyond the constructor.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.text.tokenize import SLOT_MARK, tokenize_slots
from repro.text.vectorizer import TfIdfVectorizer

import numpy as _np

ERInput = object  # EntityCollection | CleanCleanTask (kept loose to stay import-light)

#: Descriptions tokenised per interning chunk: large enough that the per-chunk
#: kernel calls amortise, small enough that its transient arrays stay around
#: a megabyte whatever the collection size.
_CHUNK_DESCRIPTIONS = 2048

_ATTRIBUTES = operator.attrgetter("attributes")


def _sorted_distinct(ids, ptr, id_space: int):
    """Sorted distinct ids and their counts for every segment of a CSR column.

    Segment ``s`` is ``ids[ptr[s]:ptr[s + 1]]``; returns ``(ptr, ids, counts)``
    of the deduplicated column.  One ``np.unique`` over ``segment * id_space
    + id`` sorts by (segment, id) and counts in a single call; the output
    pointer comes from pointer differences over the sorted keys, so an empty
    segment comes out empty (``np.add.reduceat`` would not give 0 for it).
    """
    np = _np
    segment = np.repeat(np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr))
    keys, counts = np.unique(segment * id_space + ids, return_counts=True)
    key_segment = keys // id_space
    out_ptr = np.searchsorted(key_segment, np.arange(len(ptr)))
    return out_ptr, keys - key_segment * id_space, counts


def _published(parts: List, pointer: bool = False):
    """The chunk columns ``parts`` as one read-only int64 ndarray.

    With ``pointer`` the parts are the chunks' pointer columns less their
    leading 0, each relative to its chunk: they are shifted by the values
    before them and joined after one leading 0.  The context hands its
    columns out whole; the flag makes "read, never mutate" hold by type.
    """
    if pointer:
        shifted, end = [_np.zeros(1, dtype=_np.int64)], 0
        for part in parts:
            shifted.append(part + end)
            if len(part):
                end = shifted[-1][-1]
        parts = shifted
    column = _np.concatenate(parts, dtype=_np.int64) if parts else _np.zeros(0, dtype=_np.int64)
    column.setflags(write=False)
    return column


class _Csr:
    """One CSR group of read-only int64 ndarray columns: ``ptr``, ``ids``, ``counts``."""

    __slots__ = ("ptr", "ids", "counts")

    def __init__(self, chunks: Sequence[tuple] = ()) -> None:
        """The chunks' ``(ptr, ids, counts)`` CSRs (each ``ptr`` from 0) laid end to end."""
        self.ptr = _published([ptr[1:] for ptr, _ids, _counts in chunks], pointer=True)
        self.ids = _published([ids for _ptr, ids, _counts in chunks])
        self.counts = _published([counts for _ptr, _ids, counts in chunks])

    def segment(self, index: int) -> Tuple[_np.ndarray, _np.ndarray]:
        start, stop = self.ptr[index], self.ptr[index + 1]
        return self.ids[start:stop], self.counts[start:stop]


class TokenFilter:
    """A (stop words, minimum length) admission mask over a context vocabulary.

    The mask is evaluated once per token *id* and cached in a bool ndarray,
    so filtering a column is one boolean take and touches no strings.  The
    vocabulary may keep growing after the filter is created (e.g. the
    prefix--infix--suffix builder interns URI tokens on the fly, an
    incremental context with every arrival); the filter holds the context's
    token list itself (appended to in place, never replaced), so the mask
    extends itself lazily, into a fresh buffer of twice the capacity when
    the old one is full -- a mask handed out earlier keeps its buffer and
    its flags -- and the context, which caches its filters, is not
    referenced back: a finished run leaves no reference cycle for the
    garbage collector.
    """

    __slots__ = ("_tokens", "stop_words", "min_length", "_flags", "_size")

    def __init__(self, tokens: List[str], stop_words: FrozenSet[str], min_length: int) -> None:
        self._tokens = tokens
        self.stop_words = stop_words
        self.min_length = min_length
        self._flags = _np.zeros(0, dtype=_np.bool_)
        self._size = 0  # the flagged prefix of the buffer

    @property
    def trivial(self) -> bool:
        """Whether the filter admits every token (no mask lookups needed)."""
        return self.min_length <= 1 and not self.stop_words

    def _extend(self, size: int) -> None:
        """Flag the token ids below ``size``."""
        done = self._size
        if size <= done:
            return
        if size > len(self._flags):
            grown = _np.zeros(max(size, 2 * len(self._flags)), dtype=_np.bool_)
            grown[:done] = self._flags[:done]
            self._flags = grown
        stops, min_length = self.stop_words, self.min_length
        # one comprehension: measured faster than a chain of C-level maps
        # (len / comparison / membership), which pay a call per token each
        self._flags[done:size] = [
            len(t) >= min_length and t not in stops for t in self._tokens[done:size]
        ]
        self._size = size

    def allows(self, token_id: int) -> bool:
        self._extend(token_id + 1)
        return bool(self._flags[token_id])

    def select(self, token_ids) -> _np.ndarray:
        """The admitted subset of ``token_ids`` (a fresh int64 ndarray, order
        preserved): one boolean take through the mask."""
        ids = _np.asarray(token_ids, dtype=_np.int64)
        if self.trivial:
            return ids.copy()
        self._extend(len(self._tokens))
        return ids[self._flags[ids]]

    def mask(self, size: int) -> _np.ndarray:
        """The admission flags of token ids ``0..size-1``: a read-only bool ndarray.

        The whole-column consumers (the token-blocking postings, the profile
        columns, the long-tail builders' token view) apply the filter to the
        merged id column as one boolean take through it.
        """
        self._extend(size)
        flags = self._flags[:size]
        flags.setflags(write=False)
        return flags


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
        # per description: every token id in value order (duplicates kept)
        self._stream_ptr, self._stream_ids = _published([], pointer=True), _published([])
        # per description: its (attribute) slots; per slot: its end in the
        # stream, and -- derived on first use -- the attribute name and the
        # sorted distinct ids + counts of its values
        self._slot_ptr = self._slot_bounds = _published([], pointer=True)
        self._slot_names: Optional[List[str]] = None
        self._slots: Optional[_Csr] = None
        # per description: sorted distinct ids + counts over all attributes
        self._merged = _Csr()
        self._filters: Dict[Tuple[FrozenSet[str], int], TokenFilter] = {}
        self._fitted: Dict[int, TfIdfVectorizer] = {}

    # ------------------------------------------------------------------
    # ownership / structure
    # ------------------------------------------------------------------
    def owns(self, data: object) -> bool:
        """Whether this context was built for exactly ``data`` (identity)."""
        return data is self.data

    def _intern_all(self) -> None:
        """The interning pass: one chunk of descriptions at a time.

        Everything is built into locals and published at the end, with the
        ``_interned`` flag last: a pass that raises (or is interrupted)
        leaves the context un-interned and the next access starts over.
        """
        if self._interned:
            return
        data = self.data
        if isinstance(data, CleanCleanTask):
            descriptions = list(data.left) + list(data.right)
            left_count = len(data.left)
        else:
            descriptions = list(data)
            left_count = -1
        token_ids = defaultdict(itertools.count().__next__, {SLOT_MARK: -1})  # new: next id
        # per chunk, each relative to the chunk: its pointer columns less
        # their leading 0, its stream ids and its merged CSR
        stream_ptr, stream_ids, slot_ptr, slot_bounds, merged = [], [], [], [], []
        for chunk_start in range(0, len(descriptions), _CHUNK_DESCRIPTIONS):
            # one slot per (description, attribute): its values joined by a space
            attributes = list(
                map(_ATTRIBUTES, descriptions[chunk_start : chunk_start + _CHUNK_DESCRIPTIONS])
            )
            slot_counts = _np.fromiter(map(len, attributes), _np.int64, len(attributes))
            description_ends = _np.concatenate(([0], _np.cumsum(slot_counts)))
            values = itertools.chain.from_iterable(map(operator.methodcaller("values"), attributes))
            chunk_tokens = tokenize_slots(list(map(" ".join, values)))
            del attributes, values
            # the ids less the marks; a slot ends at its mark less the marks before
            marked = _np.fromiter(
                map(token_ids.__getitem__, chunk_tokens), _np.int64, len(chunk_tokens)
            )
            del chunk_tokens
            marks = _np.flatnonzero(marked < 0)
            ids = _np.delete(marked, marks)
            slot_ends = _np.concatenate(([0], marks - _np.arange(len(marks))))
            token_ends = slot_ends[description_ends]
            slot_ptr.append(description_ends[1:])
            slot_bounds.append(slot_ends[1:])
            stream_ptr.append(token_ends[1:])
            stream_ids.append(ids)
            merged.append(_sorted_distinct(ids, token_ends, len(token_ids)))
        del token_ids[SLOT_MARK]
        self._ids = list(map(operator.attrgetter("identifier"), descriptions))
        self._ordinal = dict(zip(self._ids, range(len(self._ids))))
        self._descriptions = descriptions
        self.left_count = left_count
        # filled in place: whoever already holds the vocabulary sees it
        self._token_ids.update(token_ids)
        self._tokens[:] = token_ids  # the keys, in id order
        self._stream_ptr = _published(stream_ptr, pointer=True)
        self._stream_ids = _published(stream_ids)
        self._slot_ptr = _published(slot_ptr, pointer=True)
        self._slot_bounds = _published(slot_bounds, pointer=True)
        self._merged = _Csr(merged)
        self._interned = True

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
        self._intern_all()
        return self._tokens[token_id]

    @property
    def tokens(self) -> List[str]:
        """Every token, indexed by id (read, never mutate)."""
        self._intern_all()
        return self._tokens

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
            cached = self._filters[key] = TokenFilter(self._tokens, stops, min_length)
        return cached

    # ------------------------------------------------------------------
    # per-description columns
    # ------------------------------------------------------------------
    def attribute_entries(self, ordinal: int) -> Iterator[Tuple[str, _np.ndarray, _np.ndarray]]:
        """``(attribute, sorted distinct ids, aligned counts)`` per attribute.

        Attributes whose values hold no token still appear (with empty
        columns), exactly as the attribute-clustering oracle records an
        empty profile for them.
        """
        self._intern_all()
        if self._slots is None:
            self._derive_slots()
        names = self._slot_names
        segment = self._slots.segment
        for slot in range(self._slot_ptr[ordinal], self._slot_ptr[ordinal + 1]):
            yield (names[slot], *segment(slot))

    def _derive_slots(self) -> None:
        """The slot names and the slot CSR, derived from the stream.

        Slot ``s`` is ``stream_ids[slot_bounds[s]:slot_bounds[s + 1]]``; one
        :func:`_sorted_distinct` call per chunk of descriptions keeps the
        transient arrays bounded.  Both are published only at the end, so an
        interrupted derivation leaves nothing behind and the next call starts
        over.
        """
        stream_ids, bounds, slot_ptr = self._stream_ids, self._slot_bounds, self._slot_ptr
        count = len(self._ids)
        id_space = len(self._tokens)
        chunks = []
        for chunk_start in range(0, count, _CHUNK_DESCRIPTIONS):
            chunk_stop = min(chunk_start + _CHUNK_DESCRIPTIONS, count)
            ptr = bounds[slot_ptr[chunk_start] : slot_ptr[chunk_stop] + 1]
            chunks.append(_sorted_distinct(stream_ids[ptr[0] : ptr[-1]], ptr - ptr[0], id_space))
        names = list(itertools.chain.from_iterable(map(_ATTRIBUTES, self._descriptions)))
        self._slot_names, self._slots = names, _Csr(chunks)

    def token_stream(self, ordinal: int) -> _np.ndarray:
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
        return self._stream_ids[self._stream_ptr[ordinal] : self._stream_ptr[ordinal + 1]]

    def token_counts(self, ordinal: int) -> Tuple[_np.ndarray, _np.ndarray]:
        """All-attribute ``(sorted distinct ids, aligned occurrence counts)``.

        A slice of the merged columns; the counts are exactly the ones
        ``TfIdfVectorizer.transform`` derives from the raw values.
        """
        self._intern_all()
        return self._merged.segment(ordinal)

    # ------------------------------------------------------------------
    # whole columns
    # ------------------------------------------------------------------
    def token_columns(self) -> Tuple[_np.ndarray, _np.ndarray, _np.ndarray]:
        """The merged columns whole: ``(ptr, ids, counts)``, int64 ndarrays.

        ``token_counts(o)`` is ``ids[ptr[o]:ptr[o + 1]]`` with the aligned
        ``counts``.  For consumers that process every description at once;
        the arrays are the context's own and read-only (writing into one
        raises :class:`ValueError`).
        """
        self._intern_all()
        merged = self._merged
        return merged.ptr, merged.ids, merged.counts

    # ------------------------------------------------------------------
    # TF-IDF fitting from the interned postings
    # ------------------------------------------------------------------
    def fit_vectorizer(self, min_token_length: int = 1) -> TfIdfVectorizer:
        """A fitted :class:`TfIdfVectorizer`, derived from the interned columns.

        A token's document frequency is its number of occurrences in the
        merged ids column (each description lists it once), counted in one
        pass instead of a second tokenisation.  The result is
        indistinguishable from ``TfIdfVectorizer(min_token_length).fit(iter(data))``:
        the frequency of every token and the document count are the same
        exact integers, so every derived ``idf`` is the same float.
        """
        cached = self._fitted.get(min_token_length)
        if cached is not None:
            return cached
        _ptr, ids, _counts = self.token_columns()
        tokens = self._tokens
        frequencies = _np.bincount(ids, minlength=len(tokens)).tolist()
        document_frequency = {
            token: frequency
            for token, frequency in zip(tokens, frequencies)
            if frequency and len(token) >= min_token_length
        }
        vectorizer = TfIdfVectorizer.from_document_frequencies(
            document_frequency, len(self._ids), min_token_length=min_token_length
        )
        self._fitted[min_token_length] = vectorizer
        return vectorizer
