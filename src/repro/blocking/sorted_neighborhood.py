"""Sorted-neighbourhood blocking.

Descriptions are sorted by a blocking key and a window of fixed size ``w``
slides over the sorted list; every pair of descriptions that co-occur in a
window becomes a candidate comparison.  The sorted order is also the basis of
the progressive sorted-list heuristics of Section IV, which re-use
:func:`sorted_order` from this module.

Tie rules (pinned by the seeded fixtures): the sort orders by ``(key,
identifier)``, so equal keys fall back to identifier order; window blocks
keep the members in sorted-entry order, and bilateral blocks split a window
into its left and right members preserving that order.  The default key is
rebuilt from the interned token stream of a
:class:`~repro.core.context.PipelineContext`; a custom key reads the
descriptions.  The multi-pass variant (:class:`MultiPassSortedNeighborhoodBlocking`)
runs one independent pass per sorting key, prefixing the window keys with
the pass index.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.blocking.base import Block, BlockBuilder, BlockCollection, ERInput, check_count, interned
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.text.tokenize import normalize


def default_sorting_key(description: EntityDescription) -> str:
    """Default sorting key: the normalised concatenation of all values (schema-agnostic)."""
    return normalize(description.text())


def sorting_key_from_attributes(attributes: Sequence[str]) -> Callable[[EntityDescription], str]:
    """Sorting key built from selected attributes (classical SN usage)."""

    def key_of(description: EntityDescription) -> str:
        return normalize(" ".join(description.value(a) for a in attributes))

    return key_of


def sorted_order(
    data: ERInput,
    sorting_key: Optional[Callable[[EntityDescription], str]] = None,
) -> List[Tuple[str, str]]:
    """Return ``(key, identifier)`` pairs of all descriptions sorted by key.

    Ties are broken by identifier so the order is deterministic.  For
    clean--clean tasks the two collections are pooled explicitly -- left then
    right -- into one list before sorting, as in the classical multi-source
    sorted neighbourhood: the sort then interleaves the sources by key so a
    window can span descriptions of both.  (An earlier revision pretended to
    special-case :class:`CleanCleanTask` in a branch whose arms were
    identical; the pooling is now explicit and tested.)
    """
    key_of = sorting_key or default_sorting_key
    entries: List[Tuple[str, str]] = []
    if isinstance(data, CleanCleanTask):
        iterator: Iterator[EntityDescription] = itertools.chain(data.left, data.right)
    else:
        iterator = iter(data)
    for description in iterator:
        entries.append((key_of(description), description.identifier))
    entries.sort()
    return entries


def _left_count(data: ERInput) -> int:
    """Left-side descriptions of a clean--clean task (they take the lower
    ordinals), ``-1`` for dirty input."""
    return len(data.left) if isinstance(data, CleanCleanTask) else -1


class SortedNeighborhoodBlocking(BlockBuilder):
    """Sorted neighbourhood with a fixed sliding window.

    Parameters
    ----------
    window_size:
        Size ``w >= 2`` of the sliding window; each window of ``w``
        consecutive descriptions becomes one block.
    sorting_key:
        Function mapping a description to its sorting key; the default is the
        schema-agnostic concatenation of all values.
    """

    name = "sorted_neighborhood"

    def __init__(
        self,
        window_size: int = 4,
        sorting_key: Optional[Callable[[EntityDescription], str]] = None,
    ) -> None:
        self.window_size = check_count("window_size", window_size, 2)
        self.sorting_key = sorting_key

    def build(self, data: ERInput, context=None) -> BlockCollection:
        """One block ``window:<start>`` per window position over the sorted rows."""
        collection = BlockCollection(name=self.name)
        rows = _entry_rows(data, interned(data, context), self.sorting_key)
        _emit_position_windows(collection, "window:", rows, self.window_size, _left_count(data))
        return collection


class ExtendedSortedNeighborhoodBlocking(BlockBuilder):
    """Key-equality variant: windows slide over distinct key values, not positions.

    This variant (often called *adaptive* or *extended* SN) is robust to many
    descriptions sharing the same key: all descriptions of the ``w``
    consecutive distinct key values form one block.
    """

    name = "extended_sorted_neighborhood"

    def __init__(
        self,
        window_size: int = 2,
        sorting_key: Optional[Callable[[EntityDescription], str]] = None,
    ) -> None:
        self.window_size = check_count("window_size", window_size, 1)
        self.sorting_key = sorting_key

    def build(self, data: ERInput, context=None) -> BlockCollection:
        """One block ``keywindow:<start>`` per window over the distinct keys."""
        collection = BlockCollection(name=self.name)
        rows = _entry_rows(data, interned(data, context), self.sorting_key)
        _emit_key_windows(collection, rows, self.window_size, _left_count(data))
        return collection


class MultiPassSortedNeighborhoodBlocking(BlockBuilder):
    """Multi-pass sorted neighbourhood: one sliding-window pass per sorting key.

    The classical remedy for a single noisy key: each pass sorts the pooled
    descriptions by one key and emits its windows independently, with block
    keys ``pass<p>:window:<start>``.  A ``None`` entry in ``sorting_keys``
    stands for the default schema-agnostic key.
    """

    name = "multipass_sorted_neighborhood"

    def __init__(
        self,
        window_size: int = 4,
        sorting_keys: Sequence[Optional[Callable[[EntityDescription], str]]] = (None,),
    ) -> None:
        self.window_size = check_count("window_size", window_size, 2)
        keys = tuple(sorting_keys)
        if not keys:
            raise ValueError("at least one sorting key is required")
        self.sorting_keys = keys

    def build(self, data: ERInput, context=None) -> BlockCollection:
        collection = BlockCollection(name=self.name)
        context = interned(data, context)
        for pass_index, key_of in enumerate(self.sorting_keys):
            _emit_position_windows(
                collection,
                f"pass{pass_index}:window:",
                _entry_rows(data, context, key_of),
                self.window_size,
                _left_count(data),
            )
        return collection


def _entry_rows(
    data: ERInput,
    context,
    sorting_key: Optional[Callable[[EntityDescription], str]],
) -> List[Tuple[str, str, int]]:
    """``(key, identifier, ordinal)`` rows sorted exactly like :func:`sorted_order`.

    With the default key, the key string is rebuilt from the context's
    ordered token-id streams (space-joined token strings equal
    ``normalize(description.text())`` by construction), so no raw value is
    re-normalised; a custom key reads the descriptions.  Ties sort by
    identifier; the ordinal is never compared because identifiers are unique.
    """
    rows: List[Tuple[str, str, int]] = []
    if sorting_key is None:
        # bind the vocabulary list once: the per-token lookup then runs at
        # C speed inside map() instead of calling context.token() per token
        tokens = context._tokens
        lookup = tokens.__getitem__
        ids = context.ids
        token_stream = context.token_stream
        for ordinal in range(context.num_descriptions):
            rows.append(
                (" ".join(map(lookup, token_stream(ordinal).tolist())), ids[ordinal], ordinal)
            )
    else:
        for ordinal, (_side, description) in enumerate(BlockBuilder._iter_with_side(data)):
            rows.append((sorting_key(description), description.identifier, ordinal))
    rows.sort()
    return rows


def _emit_position_windows(
    collection: BlockCollection,
    prefix: str,
    rows: List[Tuple[str, str, int]],
    window_size: int,
    left_count: int,
) -> None:
    """Slide the fixed window over sorted rows, emitting trusted blocks."""
    n = len(rows)
    if n < 2:
        return
    out: List[Block] = []
    append = out.append
    new_block = Block.__new__
    empty = ()
    # one identifier (and, bilaterally, ordinal) list up front: windows are
    # then C-speed slices instead of per-window tuple comprehensions
    identifiers = [identifier for _key, identifier, _ordinal in rows]
    if left_count >= 0:
        ordinals = [ordinal for _key, _identifier, ordinal in rows]
        for start in range(0, max(1, n - window_size + 1)):
            stop = start + window_size
            window_ids = identifiers[start:stop]
            if len(window_ids) < 2:
                continue
            window_ordinals = ordinals[start:stop]
            left = tuple(
                identifier
                for identifier, ordinal in zip(window_ids, window_ordinals)
                if ordinal < left_count
            )
            if not left or len(left) == len(window_ids):
                continue
            right = tuple(
                identifier
                for identifier, ordinal in zip(window_ids, window_ordinals)
                if ordinal >= left_count
            )
            block = new_block(Block)
            block.key = f"{prefix}{start}"
            block._members = empty
            block._left = left
            block._right = right
            append(block)
    else:
        for start in range(0, max(1, n - window_size + 1)):
            members = tuple(identifiers[start : start + window_size])
            if len(members) < 2:
                continue
            block = new_block(Block)
            block.key = f"{prefix}{start}"
            block._members = members
            block._left = empty
            block._right = empty
            append(block)
    collection._extend_trusted(out)


def _emit_key_windows(
    collection: BlockCollection,
    rows: List[Tuple[str, str, int]],
    window_size: int,
    left_count: int,
) -> None:
    """Slide the window over distinct key values (the extended variant)."""
    grouped: List[List[Tuple[str, str, int]]] = []
    previous_key: Optional[str] = None
    for row in rows:
        if row[0] != previous_key:
            grouped.append([])
            previous_key = row[0]
        grouped[-1].append(row)
    out: List[Block] = []
    new_block = Block.__new__
    empty = ()
    for start in range(0, max(1, len(grouped) - window_size + 1)):
        members = [row for group in grouped[start : start + window_size] for row in group]
        if len(members) < 2:
            continue
        block = new_block(Block)
        block.key = f"keywindow:{start}"
        if left_count >= 0:
            left = tuple(i for _k, i, o in members if o < left_count)
            right = tuple(i for _k, i, o in members if o >= left_count)
            if not left or not right:
                continue
            block._members = empty
            block._left = left
            block._right = right
        else:
            block._members = tuple(i for _k, i, _o in members)
            block._left = empty
            block._right = empty
        out.append(block)
    collection._extend_trusted(out)
