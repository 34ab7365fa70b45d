"""Growable columnar storage: the streaming counterpart of :class:`PipelineContext`.

:class:`~repro.core.context.PipelineContext` interns one *fixed* collection
and is rebuilt per workflow run.  Incremental ER cannot afford that: arrivals
keep coming, and each must be tokenised and interned exactly once into state
that lives for the process (and, via :mod:`repro.core.snapshot`, across
processes).  This module provides the two pieces:

* :class:`GrowableColumn` -- an append-only int64 column over fixed-size
  ``array('q')`` chunks, optionally rooted on a read-only *base* view (a
  memory-mapped snapshot column).  Appending never copies the base, so an
  index restored from disk continues growing without re-interning a single
  token.
* :class:`GrowableContext` -- what the incremental index reads of an
  arrival: append-only ordinal table, dense token vocabulary that accepts
  new terms, and the merged distinct ids of every record in CSR layout over
  growable chunks.  It reuses :class:`~repro.core.context.TokenFilter`
  unchanged (the filter holds the ``_tokens`` list, which only ever grows in
  place), so stop-word masks keep extending lazily as the vocabulary grows.

Interning is one arrival at a time: one
:func:`~repro.text.tokenize.tokenize_slots` call on a chunk of one record,
first-touch vocabulary ids in word order, one append of the sorted distinct
ids -- the vocabulary and merged distinct ids the batch pass builds over the
same descriptions.

Identifiers may be *re-bound*: removing a record from an index and adding a
revised description appends a fresh ordinal and points the identifier at it;
old ordinals stay in the columns as tombstones (column storage is append-only
by design -- that is what makes snapshots cheap and views stable).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.context import TokenFilter
from repro.core.snapshot import SnapshotReader, SnapshotWriter
from repro.datamodel.description import EntityDescription
from repro.text.tokenize import SLOT_MARK, tokenize_slots

__all__ = ["GrowableColumn", "GrowableContext", "record_words"]

#: Elements per growable chunk.  Large enough that chunk bookkeeping is
#: negligible, small enough that a mostly-empty column stays cheap.
DEFAULT_CHUNK_SIZE = 1 << 14


def record_words(description: EntityDescription) -> Dict[str, None]:
    """The distinct words of a description's values in first-touch order, as
    dict keys: the chunk kernel on one record, less the slot marks."""
    words = dict.fromkeys(tokenize_slots(list(map(" ".join, description.attributes.values()))))
    words.pop(SLOT_MARK, None)
    return words


class GrowableColumn:
    """Append-only int64 column: an optional read-only base plus owned chunks.

    The *base* is any indexable int64 sequence -- typically a memory-mapped
    snapshot view -- and is never mutated or copied; appends go into
    fixed-capacity ``array('q')`` chunks owned by the column.
    """

    __slots__ = ("chunk_size", "_base", "_base_length", "_chunks", "_length")

    def __init__(
        self,
        base: Optional[Sequence[int]] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self._base = base
        self._base_length = len(base) if base is not None else 0
        self._chunks: List[array] = []
        self._length = self._base_length

    def __len__(self) -> int:
        return self._length

    def append(self, value: int) -> None:
        chunks = self._chunks
        if not chunks or len(chunks[-1]) >= self.chunk_size:
            chunks.append(array("q"))
        chunks[-1].append(value)
        self._length += 1

    def extend(self, values: Sequence[int]) -> None:
        """Append a list of values, one ``array.extend`` slice per chunk touched."""
        chunks = self._chunks
        position = 0
        while position < len(values):
            if not chunks or len(chunks[-1]) >= self.chunk_size:
                chunks.append(array("q"))
            room = self.chunk_size - len(chunks[-1])
            chunks[-1].extend(values[position : position + room])
            position += room
        self._length += len(values)

    def __getitem__(self, index: int) -> int:
        if index < 0 or index >= self._length:
            raise IndexError(index)
        offset = index - self._base_length
        if offset < 0:
            return self._base[index]  # type: ignore[index]
        return self._chunks[offset // self.chunk_size][offset % self.chunk_size]

    def __iter__(self) -> Iterator[int]:
        if self._base is not None:
            yield from self._base
        for chunk in self._chunks:
            yield from chunk

    def view(self, start: int, stop: int) -> Sequence[int]:
        """The values ``[start, stop)``; zero-copy within a single region."""
        if start >= stop:
            return array("q")
        if stop <= self._base_length:
            return self._base[start:stop]  # type: ignore[index]
        first = start - self._base_length
        last = stop - 1 - self._base_length
        if first >= 0 and first // self.chunk_size == last // self.chunk_size:
            chunk = self._chunks[first // self.chunk_size]
            offset = first % self.chunk_size
            return memoryview(chunk)[offset : offset + (stop - start)]
        # region-crossing ranges are rare (a record's column almost always
        # lands in one chunk); copy them out
        return array("q", (self[index] for index in range(start, stop)))

    def chunks(self) -> Iterator[Any]:
        """The column's buffers in order (consumed by the snapshot writer)."""
        if self._base is not None and self._base_length:
            yield self._base
        for chunk in self._chunks:
            yield chunk


class GrowableContext:
    """Append-only interning context for streams of entity descriptions."""

    def __init__(self) -> None:
        # ordinal table
        self._ids: List[str] = []
        self._ordinal: Dict[str, int] = {}
        # vocabulary; the string->id map is rebuilt lazily after a restore
        self._tokens: List[str] = []
        self._token_ids: Optional[Dict[str, int]] = {}
        # per record: CSR over the sorted distinct ids of all its values
        self._token_ptr = GrowableColumn()
        self._token_ptr.append(0)
        self._token_ids_column = GrowableColumn()
        self._filters: Dict[Tuple[FrozenSet[str], int], TokenFilter] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> List[str]:
        """Identifier of every record (including tombstones), by ordinal."""
        return self._ids

    def ordinal(self, identifier: str) -> Optional[int]:
        """The ordinal the identifier is currently bound to, if any."""
        return self._ordinal.get(identifier)

    # ------------------------------------------------------------------
    # vocabulary
    # ------------------------------------------------------------------
    @property
    def vocabulary_size(self) -> int:
        return len(self._tokens)

    def token(self, token_id: int) -> str:
        return self._tokens[token_id]

    def _vocab_map(self) -> Dict[str, int]:
        mapping = self._token_ids
        if mapping is None:
            # first mutation after a restore pays one pass over the loaded
            # vocabulary; what the snapshot avoids is re-tokenising and
            # re-interning every archived description
            mapping = {token: index for index, token in enumerate(self._tokens)}
            self._token_ids = mapping
        return mapping

    def token_id(self, token: str) -> Optional[int]:
        """Vocabulary id of ``token``, or ``None`` if never interned."""
        return self._vocab_map().get(token)

    def token_filter(
        self, stop_words: Optional[Iterable[str]], min_length: int
    ) -> TokenFilter:
        """The cached :class:`TokenFilter` for a tokenisation configuration."""
        stops = frozenset(stop_words) if stop_words else frozenset()
        key = (stops, min_length)
        cached = self._filters.get(key)
        if cached is None:
            cached = self._filters[key] = TokenFilter(self._tokens, stops, min_length)
        return cached

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def add_record(self, description: EntityDescription) -> int:
        """Intern one description, appending a fresh ordinal.

        A previously seen identifier is re-bound to the new ordinal (the old
        ordinal becomes a tombstone); rejecting duplicates is the caller's
        policy, not the context's.
        """
        ordinal = len(self._ids)
        self._ordinal[description.identifier] = ordinal
        self._ids.append(description.identifier)
        token_ids = self._vocab_map()
        tokens = self._tokens
        words = record_words(description)
        for token in words:
            if token not in token_ids:
                token_ids[token] = len(tokens)
                tokens.append(token)
        self._token_ids_column.extend(sorted(map(token_ids.__getitem__, words)))
        self._token_ptr.append(len(self._token_ids_column))
        return ordinal

    # ------------------------------------------------------------------
    # per-record columns
    # ------------------------------------------------------------------
    def token_ids_of(self, ordinal: int) -> Sequence[int]:
        """Sorted distinct token ids over all of the record's values."""
        return self._token_ids_column.view(
            self._token_ptr[ordinal], self._token_ptr[ordinal + 1]
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def write_snapshot(self, writer: SnapshotWriter) -> None:
        """Persist the ordinal table, the vocabulary and the merged-id CSR."""
        writer.strings("context.ids", self._ids)
        writer.strings("context.tokens", self._tokens)
        writer.column("context.token_ptr", self._token_ptr)
        writer.column("context.token_ids", self._token_ids_column)

    @classmethod
    def from_snapshot(cls, reader: SnapshotReader) -> "GrowableContext":
        """Rebuild a context over the reader's memory-mapped columns.

        Numeric columns become the read-only bases of fresh growable
        columns (no copies); the string->id map is rebuilt lazily on the
        first mutation.  Entries are opened by name, so the further
        ``context.*`` columns of a format-1.1 snapshot are never read.  The
        merged-id CSR must hold one row per identifier and only ids inside
        the vocabulary, or :class:`~repro.core.snapshot.SnapshotError` names
        the column (a pre-1.1 snapshot has no checksums to catch it first).
        """
        reader.require(
            columns=("context.token_ptr", "context.token_ids"),
            strings=("context.ids", "context.tokens"),
        )
        context = cls()
        context._ids = reader.strings("context.ids")
        context._ordinal = dict(zip(context._ids, range(len(context._ids))))
        context._tokens = reader.strings("context.tokens")
        context._token_ids = None
        token_ptr, token_ids = reader.csr(
            "context.token_ptr", "context.token_ids", len(context._ids), 0, len(context._tokens)
        )
        context._token_ptr = GrowableColumn(token_ptr)
        context._token_ids_column = GrowableColumn(token_ids)
        return context
