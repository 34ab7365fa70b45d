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
the pass index.  Every variant states its windows as ranges of the sorted
ordinal column and builds them in one call of
:meth:`BlockColumns.from_windows <repro.blocking.columns.BlockColumns.from_windows>`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.blocking.base import (
    BlockBuilder,
    BlockCollection,
    ERInput,
    check_count,
    identifier_table,
    interned,
)
from repro.blocking.columns import BlockColumns
from repro.datamodel.description import EntityDescription
from repro.text.tokenize import normalize

import numpy as _np


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
    clean--clean tasks the two collections are pooled -- left then right --
    into one list before sorting, as in the classical multi-source sorted
    neighbourhood: the sort then interleaves the sources by key so a window
    can span descriptions of both.
    """
    key_of = sorting_key or default_sorting_key
    return sorted((key_of(d), d.identifier) for _side, d in BlockBuilder._iter_with_side(data))


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
        return _position_windows(
            self.name, data, context, [("window:", self.sorting_key)], self.window_size
        )


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
        """One block ``keywindow:<start>`` per window over the distinct keys:
        all rows of the ``window_size`` distinct keys from the ``start``-th on."""
        np = _np
        ids, left_count = identifier_table(data, context)
        keys, order = _entry_rows(data, interned(data, context), self.sorting_key)
        # where each run of equal keys begins, and the end of the rows
        bounds = [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]
        bounds = np.array(bounds + [len(keys)], dtype=np.int64)
        groups = len(bounds) - 1
        first = np.arange(max(1, groups - self.window_size + 1))
        starts = bounds[first]
        lengths = bounds[np.minimum(first + self.window_size, groups)] - starts
        columns = BlockColumns.from_windows(
            [f"keywindow:{start}" for start in first.tolist()],
            starts,
            lengths,
            order,
            ids,
            left_count,
        )
        return BlockCollection.from_columns(columns, name=self.name)


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
        passes = [(f"pass{p}:window:", key_of) for p, key_of in enumerate(self.sorting_keys)]
        return _position_windows(self.name, data, context, passes, self.window_size)


def _entry_rows(
    data: ERInput,
    context,
    sorting_key: Optional[Callable[[EntityDescription], str]],
):
    """The keys and the ordinal column (int64 ndarray) of the descriptions
    sorted by ``(key, identifier)``, exactly like :func:`sorted_order`.

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
    return [row[0] for row in rows], _np.fromiter(map(itemgetter(2), rows), _np.int64, len(rows))


def _position_windows(
    name: str,
    data: ERInput,
    context,
    passes: List[Tuple[str, Optional[Callable[[EntityDescription], str]]]],
    window_size: int,
) -> BlockCollection:
    """The fixed windows of every pass ``(key prefix, sorting key)``, passes in order.

    A pass over ``n`` sorted rows has the windows ``[start, start +
    window_size)`` for ``start < max(1, n - window_size + 1)``, clipped at
    ``n``, keyed ``<prefix><start>``; one window column spans all passes.
    """
    np = _np
    ids, left_count = identifier_table(data, context)
    context = interned(data, context)
    keys: List[str] = []
    starts, lengths, orders = [], [], []
    offset = 0
    for prefix, sorting_key in passes:
        _keys, order = _entry_rows(data, context, sorting_key)
        first = np.arange(max(1, len(order) - window_size + 1))
        keys += [f"{prefix}{start}" for start in first.tolist()]
        starts.append(first + offset)
        lengths.append(np.minimum(window_size, len(order) - first))
        orders.append(order)
        offset += len(order)
    starts, lengths, order = map(np.concatenate, (starts, lengths, orders))
    columns = BlockColumns.from_windows(keys, starts, lengths, order, ids, left_count)
    return BlockCollection.from_columns(columns, name=name)
