"""Blocks as columns, and the shared token-id columns of the array builds.

**Blocks.**  :class:`BlockColumns` is the one form blocks take, from every
builder's ``build`` through purging and filtering to
:meth:`EntityIndexEngine.from_columns
<repro.metablocking.entity_index.EntityIndexEngine.from_columns>` and the
schedulers: the block keys, a CSR of member *ordinals* into one identifier
table and the left-member count of every block.  A
:class:`~repro.blocking.base.BlockCollection` holds its columns only: user
:class:`~repro.blocking.base.Block` objects are interned by
:meth:`BlockColumns.from_blocks`, and :meth:`BlockColumns.blocks`, the one
library path that builds a ``Block``, makes the views its iteration yields.
Builders construct through :meth:`~BlockColumns.from_postings` (key
postings), :meth:`~BlockColumns.from_windows` (windows over one ordinal
column: the sorted-neighbourhood windows and canopies) and
:meth:`~BlockColumns.from_pairs` (one two-member block per pair).

**Pairs.**  :meth:`BlockColumns.distinct_pairs` is the one walk over a
collection's distinct comparisons (propagation, candidate columns, the
progressive block scheduler, ``BlockCollection.distinct_pairs``).

**Token columns.**  The long-tail scheme families (minhash/LSH, canopy, the
similarity self-join) all start from the same view of the input: one sorted
distinct token-id column per description, admitted through the builder's stop
words and minimum token length.  :class:`TokenColumnView` materialises that
view from a :class:`~repro.core.context.PipelineContext`: the
per-description columns are its merged token-id column filtered by one
boolean take through the cached :class:`~repro.core.context.TokenFilter`
mask, so no raw string is touched (the single-interning guarantee).
:func:`append_posting` and :func:`concatenated` build the ascending ordinal
postings that :meth:`BlockColumns.from_postings` turns into blocks.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from repro.datamodel.pairs import canonical_pair, first_occurrences

if TYPE_CHECKING:  # base.py imports this module
    from repro.blocking.base import Block, BlockCollection

import numpy as _np


def flat_slices(starts, lengths):
    """Flat indices of the concatenated ranges ``[starts[i], starts[i] + lengths[i])``."""
    offsets = _np.cumsum(lengths) - lengths
    return _np.repeat(starts - offsets, lengths) + _np.arange(int(lengths.sum()))


class BlockColumns:
    """A block collection as flat columns over one identifier table.

    Attributes
    ----------
    keys:
        The blocking key of every block, in block order (sorted-key order
        for the token builds).
    blk_ptr, members:
        CSR of member ordinals (int64 ndarrays): block ``b`` holds
        ``members[blk_ptr[b]:blk_ptr[b + 1]]``, left members first for a
        bilateral block.
    split:
        Per block (int64 ndarray), the number of left members, or ``-1`` for
        a unilateral (dirty ER) block.
    ids:
        The identifier table the ordinals index (``ids[o]`` names ordinal
        ``o``); shared, never mutated.

    Every block induces at least one comparison: the constructors and
    :meth:`select` drop degenerate blocks.  The columns are built whole by
    the constructors and only read afterwards: every kernel downstream
    (cleaning, the entity index, the schedulers) takes them as they are.
    """

    __slots__ = ("keys", "blk_ptr", "members", "split", "ids")

    def __init__(self, keys: List[str], blk_ptr, members, split, ids: Sequence[str]) -> None:
        self.keys = keys
        self.blk_ptr = blk_ptr
        self.members = members
        self.split = split
        self.ids = ids

    def __len__(self) -> int:
        return len(self.keys)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_collection(
        cls, blocks: "BlockCollection", ids: Optional[Sequence[str]] = None
    ) -> "BlockColumns":
        """The columns of ``blocks``: its backing, or the backing over ``ids``.

        The backing is handed over as it is when no table is asked for or
        the table asked for *is* the backing's (the shared context's
        ``ids``).  Otherwise its ordinals are remapped: ordinal ``o`` is
        ``ids[o]``, and a member the table does not contain is appended
        after it in first-seen block-member order (so ``len(columns.ids) >
        len(ids)`` tells the caller that the table does not cover the
        blocks).
        """
        np = _np
        backing = blocks._columns
        if ids is None or ids is backing.ids:
            return backing
        ordinal: Dict[str, int] = {identifier: o for o, identifier in enumerate(ids)}
        if len(ordinal) != len(ids):
            raise ValueError("the identifier table holds duplicate identifiers")
        members, names = backing.members, backing.ids
        _placed, first_seen = np.unique(members, return_index=True)
        placed = members[np.sort(first_seen)].tolist()
        intern = ordinal.setdefault
        remap = np.zeros(len(names), dtype=np.int64)
        remap[placed] = [intern(names[o], len(ordinal)) for o in placed]
        table = ids if len(ordinal) == len(ids) else list(ordinal)
        return cls(backing.keys, backing.blk_ptr, remap[members], backing.split, table)

    @classmethod
    def from_blocks(
        cls, blocks: Iterable["Block"], after: Optional["BlockColumns"] = None
    ) -> "BlockColumns":
        """Intern :class:`~repro.blocking.base.Block` objects.

        The result holds the blocks of ``after`` (if given) followed by
        ``blocks``, less those inducing no comparison, over ``after``'s
        table extended by the members it does not hold, in first-seen
        block-member order (``after``'s table itself when it holds them
        all).  ``after`` is never written to.
        """
        np = _np
        table = after.ids if after is not None else []
        ordinal: Dict[str, int] = {identifier: o for o, identifier in enumerate(table)}
        intern = ordinal.setdefault
        keys: List[str] = []
        sizes, members, split = [], [], []
        for block in blocks:
            if block.num_comparisons() == 0:
                continue
            keys.append(block.key)
            sizes.append(len(block))
            split.append(len(block.left_members) if block.is_bilateral else -1)
            members.extend([intern(member, len(ordinal)) for member in block.members])
        sizes, members, split = (np.array(c, dtype=np.int64) for c in (sizes, members, split))
        if after is not None:
            keys = after.keys + keys
            sizes = np.concatenate((np.diff(after.blk_ptr), sizes))
            members = np.concatenate((after.members, members))
            split = np.concatenate((after.split, split))
        ids = table if len(ordinal) == len(table) else list(ordinal)
        return cls(keys, np.concatenate(([0], np.cumsum(sizes))), members, split, ids)

    @classmethod
    def from_postings(
        cls,
        keys: Sequence[str],
        ptr,
        members,
        ids: Sequence[str],
        left_count: int,
        limit: Optional[int],
    ) -> "BlockColumns":
        """Blocks from key postings, in sorted-key order.

        Posting ``p`` is ``members[ptr[p]:ptr[p + 1]]`` (int64 ndarrays),
        ascending ordinals, under the distinct key ``keys[p]``.
        ``left_count`` is the number of left-side descriptions for
        clean--clean input (ordinals below it belong to the left collection,
        so left members come first), or ``-1`` for dirty input.  Postings
        longer than ``limit`` and degenerate ones (fewer than two members,
        an empty side) are dropped.
        """
        np = _np
        sizes = np.diff(ptr)
        if left_count >= 0:
            posting_of = np.repeat(np.arange(len(sizes)), sizes)
            left = np.bincount(posting_of[members < left_count], minlength=len(sizes))
            keep = (left > 0) & (left < sizes)
        else:
            left = np.full(len(sizes), -1, dtype=np.int64)
            keep = sizes >= 2
        if limit is not None:
            keep &= sizes <= limit
        kept = np.flatnonzero(keep).tolist()
        kept.sort(key=keys.__getitem__)
        return cls(keys, ptr, members, left, ids).taken(kept)

    @classmethod
    def from_windows(
        cls, keys: List[str], starts, lengths, order, ids: Sequence[str], left_count: int
    ) -> "BlockColumns":
        """One block per window ``order[starts[w]:starts[w] + lengths[w]]``, in window order.

        ``order`` is an ordinal column (int64 ndarray) and window ``w`` is
        keyed ``keys[w]``.  ``left_count`` is the number of left-side
        descriptions for clean--clean input (ordinals below it are left
        members), or ``-1`` for dirty input.  A bilateral window lists its
        left members first, each side in window order.  Degenerate windows
        (fewer than two members, an empty side) are dropped, exactly as by
        :meth:`select`.
        """
        np = _np
        lengths = np.asarray(lengths, dtype=np.int64)
        members = order[flat_slices(np.asarray(starts, dtype=np.int64), lengths)]
        split = np.full(len(lengths), -1, dtype=np.int64)
        if left_count >= 0:
            window_of = np.repeat(np.arange(len(lengths)), lengths)
            on_right = members >= left_count
            split = np.bincount(window_of[~on_right], minlength=len(lengths))
            members = members[np.argsort(2 * window_of + on_right, kind="stable")]
        columns = cls(keys, np.concatenate(([0], np.cumsum(lengths))), members, split, ids)
        return columns.select(np.ones(len(members), dtype=bool))

    @classmethod
    def from_pairs(
        cls, prefix: str, ids: Sequence[str], first, second, left=None
    ) -> "BlockColumns":
        """One two-member block ``<prefix>:<ids[first]>|<ids[second]>`` per row.

        ``first`` and ``second`` are ordinal columns in canonical orientation
        (``ids[first] < ids[second]``), one row per distinct pair, in block
        order.  ``left`` is ``None`` when every row is a dirty-ER pair, else
        per row the ordinal of the left member of a clean--clean pair, or
        ``-1`` for a dirty-ER row.  A dirty pair lists its members in row
        order, a bilateral one its left member first.
        """
        np = _np
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        names = ids.__getitem__
        keys = [
            f"{prefix}:{a}|{b}"
            for a, b in zip(map(names, first.tolist()), map(names, second.tolist()))
        ]
        if left is None:
            lead, split = first, np.full(len(first), -1, dtype=np.int64)
        else:
            lead = np.where(left < 0, first, left)
            split = np.where(left < 0, -1, 1)
        members = np.column_stack((lead, first + second - lead)).ravel()
        return cls(keys, np.arange(0, 2 * len(first) + 1, 2), members, split, ids)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def cardinalities(self):
        """Comparisons per block, as an int64 ndarray."""
        sizes = _np.diff(self.blk_ptr)
        split = self.split
        return _np.where(split >= 0, split * (sizes - split), sizes * (sizes - 1) // 2)

    def total_comparisons(self) -> int:
        """Aggregate cardinality ``||B||`` (redundant comparisons counted)."""
        return int(self.cardinalities().sum())

    def distinct_pairs(self):
        """Every distinct comparison once, first block wins: ``(first, second, block)``.

        int64 ndarrays in first-occurrence order (blocks in order, within a
        block each member with every later one, or each left member with
        every right one); ``first`` is the earlier (left) member, ``block``
        the generating block.  Every assignment is repeated once per
        partner and :func:`~repro.datamodel.pairs.first_occurrences` keeps
        the first row of each pair: peak memory is O(aggregate cardinality),
        so purge extremely redundant collections first.
        """
        np = _np
        ptr, members = self.blk_ptr, self.members
        block_of = np.repeat(np.arange(len(self)), np.diff(ptr))
        position = np.arange(len(members))
        split = self.split[block_of]
        bilateral = split >= 0
        left_end = ptr[block_of] + split
        start = np.where(bilateral, left_end, position + 1)
        count = np.where(bilateral & (position >= left_end), 0, ptr[block_of + 1] - start)
        first = np.repeat(members, count)
        second = members[flat_slices(start, count)]
        clash = np.flatnonzero(first == second)
        if len(clash):  # raises the Block pair walk's error
            member = self.ids[int(first[clash[0]])]
            canonical_pair(member, member)
        keep = first_occurrences(first, second, len(self.ids))
        return first[keep], second[keep], np.repeat(block_of, count)[keep]

    # ------------------------------------------------------------------
    # reordering and restriction
    # ------------------------------------------------------------------
    def taken(self, order) -> "BlockColumns":
        """The blocks at ``order`` (block indices), in that order."""
        np = _np
        order = np.asarray(order, dtype=np.int64)
        sizes = np.diff(self.blk_ptr)[order]
        return BlockColumns(
            [self.keys[b] for b in order.tolist()],
            np.concatenate(([0], np.cumsum(sizes))),
            self.members[flat_slices(self.blk_ptr[order], sizes)],
            self.split[order],
            self.ids,
        )

    def select(self, flags) -> "BlockColumns":
        """The columns restricted to the flagged assignments.

        ``flags`` is a bool ndarray with one keep flag per entry of
        :attr:`members`.  Block order and member order are preserved; blocks
        left without a comparison (fewer than two members, an empty side)
        are dropped.
        """
        np = _np
        ptr, split = self.blk_ptr, self.split
        sizes = np.diff(ptr)
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        new_sizes = np.bincount(block_of[flags], minlength=len(sizes))
        bilateral = split >= 0
        if bilateral.any():
            on_left = np.arange(len(block_of)) - ptr[block_of] < split[block_of]
            left = np.bincount(block_of[flags & on_left], minlength=len(sizes))
            keep = np.where(bilateral, (left > 0) & (left < new_sizes), new_sizes >= 2)
            left[~bilateral] = -1
        else:
            left = split
            keep = new_sizes >= 2
        kept = np.flatnonzero(keep)
        return BlockColumns(
            [self.keys[b] for b in kept.tolist()],
            np.concatenate(([0], np.cumsum(new_sizes[kept]))),
            self.members[flags & keep[block_of]],
            left[kept],
            self.ids,
        )

    # ------------------------------------------------------------------
    # the way back to objects
    # ------------------------------------------------------------------
    def blocks(self) -> List["Block"]:
        """Every block as a :class:`~repro.blocking.base.Block` view, in block order.

        The views are built anew on every call and own nothing the columns
        hold.  The members of a block are distinct by construction, so the
        objects are built on the trusted path (no per-member deduplication).
        """
        from repro.blocking.base import Block  # base.py imports this module

        names = list(map(self.ids.__getitem__, self.members.tolist()))
        blk_ptr = self.blk_ptr.tolist()
        new_block = Block.__new__
        out: List[Block] = []
        for key, start, stop, left in zip(self.keys, blk_ptr, blk_ptr[1:], self.split.tolist()):
            block = new_block(Block)
            block.key = key
            if left < 0:
                block._members = tuple(names[start:stop])
                block._left = block._right = ()
            else:
                block._members = ()
                block._left = tuple(names[start : start + left])
                block._right = tuple(names[start + left : stop])
            out.append(block)
        return out


def append_posting(postings: Dict, key, ordinal: int) -> None:
    """Append ``ordinal`` to the posting of ``key``, creating it if new."""
    posting = postings.get(key)
    if posting is None:
        postings[key] = posting = array("q")
    posting.append(ordinal)


def concatenated(postings: Dict):
    """The ``(pointer, members)`` CSR of ``postings``' values, in dict order,
    as int64 ndarrays."""
    np = _np
    ptr = np.zeros(len(postings) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, postings.values()), np.int64, len(postings)), out=ptr[1:])
    return ptr, np.frombuffer(b"".join(postings.values()), dtype=np.int64)


class TokenColumnView:
    """Sorted distinct admitted token-id columns, one per description.

    Attributes
    ----------
    ids:
        Identifier of every description, indexed by ordinal (the
        ``BlockBuilder._iter_with_side`` order: left before right for
        clean--clean input).
    left_count:
        Number of left-side descriptions for clean--clean input (ordinals
        below it are left-side), ``-1`` for dirty input.
    columns:
        Per description: the ascending distinct token ids admitted by the
        builder's stop words and minimum token length, as a list (the
        builders walk them in Python).
    num_tokens:
        Size of the id space: every column id is below it (the context's
        vocabulary size).
    """

    __slots__ = ("ids", "left_count", "columns", "num_tokens", "_token_of")

    def __init__(
        self,
        ids: Sequence[str],
        left_count: int,
        columns: List[List[int]],
        num_tokens: int,
        token_of: Callable[[int], str],
    ) -> None:
        self.ids = ids
        self.left_count = left_count
        self.columns = columns
        self.num_tokens = num_tokens
        self._token_of = token_of

    def token_of(self, token_id: int) -> str:
        """The token string behind ``token_id``."""
        return self._token_of(token_id)

    # ------------------------------------------------------------------
    @classmethod
    def from_context(
        cls, context, stop_words: Optional[frozenset], min_token_length: int
    ) -> "TokenColumnView":
        """The view over a shared context's interned columns -- no tokenisation."""
        token_filter = context.token_filter(stop_words, min_token_length)
        ptr, ids, _counts = context.token_columns()
        keep = token_filter.mask(context.vocabulary_size)[ids]
        admitted = ids[keep].tolist()
        bounds = _np.concatenate(([0], _np.cumsum(keep)))[ptr].tolist()
        columns = [admitted[start:stop] for start, stop in zip(bounds, bounds[1:])]
        return cls(
            context.ids,
            context.left_count,
            columns,
            context.vocabulary_size,
            context.token,
        )
