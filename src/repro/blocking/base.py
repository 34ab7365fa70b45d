"""Blocks, block collections and the block-builder interface.

Blocking groups entity descriptions into (possibly overlapping) *blocks* so
that only descriptions sharing a block are compared.  The central data
structures are:

* :class:`Block` -- a named group of description identifiers.  For
  clean--clean tasks a block keeps its members separated per collection so
  that only cross-collection comparisons are counted.
* :class:`BlockCollection` -- the set of blocks produced by a blocking
  scheme, with the statistics every downstream step needs (comparisons per
  block, distinct comparisons, redundancy).
* :class:`BlockBuilder` -- the abstract interface implemented by every
  blocking scheme in :mod:`repro.blocking`.
"""

from __future__ import annotations

import abc
import itertools
import numbers
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.blocking.columns import BlockColumns
from repro.core.context import PipelineContext
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.pairs import Comparison, canonical_orientation, canonical_pair

import numpy as _np

ERInput = Union[EntityCollection, CleanCleanTask]


class Block:
    """A group of description identifiers that should be compared with each other.

    Parameters
    ----------
    key:
        The blocking key that produced the block (e.g. a token).
    members:
        For dirty ER, all identifiers in the block.
    left_members, right_members:
        For clean--clean ER, the identifiers of each side.  When these are
        given, ``members`` must be omitted and comparisons are only formed
        across the two sides.
    """

    __slots__ = ("key", "_members", "_left", "_right")

    def __init__(
        self,
        key: str,
        members: Optional[Iterable[str]] = None,
        left_members: Optional[Iterable[str]] = None,
        right_members: Optional[Iterable[str]] = None,
    ) -> None:
        self.key = key
        if members is not None and (left_members is not None or right_members is not None):
            raise ValueError("pass either members (dirty ER) or left/right members (clean-clean ER)")
        self._members: Tuple[str, ...] = tuple(dict.fromkeys(members)) if members is not None else ()
        self._left: Tuple[str, ...] = (
            tuple(dict.fromkeys(left_members)) if left_members is not None else ()
        )
        self._right: Tuple[str, ...] = (
            tuple(dict.fromkeys(right_members)) if right_members is not None else ()
        )

    # ------------------------------------------------------------------
    @property
    def is_bilateral(self) -> bool:
        """Whether the block separates members per collection (clean--clean ER)."""
        return bool(self._left or self._right)

    @property
    def members(self) -> Tuple[str, ...]:
        """All identifiers in the block (both sides for bilateral blocks)."""
        if self.is_bilateral:
            return self._left + self._right
        return self._members

    @property
    def left_members(self) -> Tuple[str, ...]:
        return self._left

    @property
    def right_members(self) -> Tuple[str, ...]:
        return self._right

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self.members

    def num_comparisons(self) -> int:
        """Number of comparisons the block induces (its *cardinality*)."""
        if self.is_bilateral:
            return len(self._left) * len(self._right)
        size = len(self._members)
        return size * (size - 1) // 2

    def _member_pairs(self) -> Iterator[Tuple[str, str]]:
        """Every left member with every right one, or each member with every later one."""
        if self.is_bilateral:
            return itertools.product(self._left, self._right)
        return itertools.combinations(self._members, 2)

    def comparisons(self) -> Iterator[Comparison]:
        """Yield every comparison induced by the block."""
        return (Comparison(a, b, block_id=self.key) for a, b in self._member_pairs())

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """Yield every canonical identifier pair induced by the block."""
        return (canonical_pair(a, b) for a, b in self._member_pairs())

    def restricted_to(self, keep: Set[str]) -> Optional["Block"]:
        """Return a copy containing only identifiers in ``keep`` (or ``None`` if degenerate)."""
        if self.is_bilateral:
            left = [m for m in self._left if m in keep]
            right = [m for m in self._right if m in keep]
            if not left or not right:
                return None
            return Block(self.key, left_members=left, right_members=right)
        members = [m for m in self._members if m in keep]
        if len(members) < 2:
            return None
        return Block(self.key, members=members)

    def __repr__(self) -> str:
        if self.is_bilateral:
            return f"Block(key={self.key!r}, left={len(self._left)}, right={len(self._right)})"
        return f"Block(key={self.key!r}, size={len(self._members)})"


class BlockCollection:
    """The output of a blocking scheme: an ordered collection of blocks.

    A collection holds its blocks as :class:`~repro.blocking.columns.BlockColumns`
    and nothing else: every builder, cleaner and consumer reads and writes
    those columns.  ``BlockCollection([...])`` and :meth:`add` intern
    user-built :class:`Block` objects into new columns; iteration, indexing
    and :attr:`blocks` yield :class:`Block` views built from the columns on
    every call, which leave the columns in place.  Every statistic is read
    off the columns.
    """

    def __init__(self, blocks: Optional[Iterable[Block]] = None, name: str = "blocks") -> None:
        self.name = name
        #: the ``BlockColumns`` holding the blocks
        self._columns = BlockColumns.from_blocks(blocks or ())

    @classmethod
    def from_columns(cls, columns: BlockColumns, name: str = "blocks") -> "BlockCollection":
        """The collection holding ``columns`` (taken as they are, not copied)."""
        collection = cls(name=name)
        collection._columns = columns
        return collection

    def add(self, block: Block) -> None:
        """Add a block; blocks inducing no comparison are silently dropped.

        The collection moves to new columns: the ones it held, which another
        collection may share, are never written to.
        """
        self._columns = BlockColumns.from_blocks([block], after=self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._columns.blocks())

    def __getitem__(self, index: int) -> Block:
        return self._columns.taken([range(len(self))[index]]).blocks()[0]

    @property
    def blocks(self) -> Tuple[Block, ...]:
        return tuple(self._columns.blocks())

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def total_comparisons(self) -> int:
        """Sum of per-block comparisons, counting redundant pairs multiple times.

        This is the *aggregate cardinality* ``||B||`` used by block purging and
        by the meta-blocking weighting schemes.
        """
        return self._columns.total_comparisons()

    def distinct_pairs(self) -> Set[Tuple[str, str]]:
        """The set of distinct comparisons induced by all blocks, as canonical pairs."""
        columns = self._columns
        first, second, _block = columns.distinct_pairs()
        names = columns.ids.__getitem__
        first, second = canonical_orientation(columns.ids, first, second)
        return set(zip(map(names, first.tolist()), map(names, second.tolist())))

    def num_distinct_comparisons(self) -> int:
        return len(self._columns.distinct_pairs()[0])

    def redundancy(self) -> float:
        """Average number of blocks in which each distinct comparison appears."""
        distinct = self.num_distinct_comparisons()
        if distinct == 0:
            return 0.0
        return self.total_comparisons() / distinct

    def entity_index(self) -> Dict[str, List[int]]:
        """Mapping identifier -> indices of the blocks that contain it.

        This is the *entity index* on which meta-blocking's blocking graph and
        the comparison-propagation technique are built.
        """
        columns = self._columns
        names, index = columns.ids, {}
        block_of = _np.repeat(_np.arange(len(columns)), _np.diff(columns.blk_ptr))
        for ordinal, block in zip(columns.members.tolist(), block_of.tolist()):
            index.setdefault(names[ordinal], []).append(block)
        return index

    def block_sizes(self) -> List[int]:
        return _np.diff(self._columns.blk_ptr).tolist()

    def placed_identifiers(self) -> Set[str]:
        """All identifiers that appear in at least one block."""
        names = self._columns.ids
        return {names[o] for o in _np.unique(self._columns.members).tolist()}

    def comparisons(self) -> Iterator[Comparison]:
        """Yield the comparisons of every block (including redundant repetitions)."""
        for block in self:
            yield from block.comparisons()

    def distinct_comparisons(self) -> Iterator[Comparison]:
        """Yield each distinct comparison exactly once (first block wins), in
        the order of :meth:`comparisons`, each naming its generating block."""
        columns = self._columns
        first, second, block = columns.distinct_pairs()
        ids, keys = columns.ids, columns.keys
        for f, s, b in zip(first.tolist(), second.tolist(), block.tolist()):
            yield Comparison(ids[f], ids[s], block_id=keys[b])

    def sorted_by_cardinality(self, ascending: bool = True) -> "BlockCollection":
        """Return a copy with blocks ordered by their number of comparisons
        (ties keep their order)."""
        cardinalities = self._columns.cardinalities()
        order = _np.argsort(cardinalities if ascending else -cardinalities, kind="stable")
        return BlockCollection.from_columns(self._columns.taken(order), name=self.name)

    def __repr__(self) -> str:
        return (
            f"BlockCollection(name={self.name!r}, blocks={len(self)}, "
            f"comparisons={self.total_comparisons()})"
        )


def check_unit_interval(name: str, value, open_low: bool = False) -> float:
    """``value`` if it is a number in [0, 1] ((0, 1] with ``open_low``), else
    ``ValueError`` naming the parameter (NaN, infinities and ``bool`` fail)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        (value > 0.0 if open_low else value >= 0.0) and value <= 1.0
    ):
        interval = "(0, 1]" if open_low else "[0, 1]"
        raise ValueError(f"{name} must be a number in {interval}, got {value!r}")
    return value


def check_count(name: str, value, minimum: int) -> int:
    """``value`` if it is an ``int >= minimum`` (not a ``bool``), else
    ``ValueError`` naming the parameter."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    return value


def interned(data: ERInput, context=None):
    """``context`` if it owns ``data``, else a private context over ``data``.

    The one way a builder reaches the interned columns of its input: a shared
    :class:`~repro.core.context.PipelineContext` lends its ordinals only to
    the data it was built for.  The private context interns lazily, on the
    first column a builder reads.
    """
    if context is None or not context.owns(data):
        context = PipelineContext(data)
    return context


def identifier_table(data: ERInput, context=None) -> Tuple[Sequence[str], int]:
    """``(ids, left_count)``: the identifier of every ordinal (left before
    right) and the left-side count (``-1`` for dirty input) -- ``context``'s
    when it owns ``data``, else read off the descriptions without tokenising."""
    if context is not None and context.owns(data):
        return context.ids, context.left_count
    left_count = len(data.left) if isinstance(data, CleanCleanTask) else -1
    return [d.identifier for _side, d in BlockBuilder._iter_with_side(data)], left_count


class BlockBuilder(abc.ABC):
    """Interface of a blocking scheme.

    A block builder receives either an :class:`EntityCollection` (dirty ER) or
    a :class:`CleanCleanTask` (clean--clean ER) and returns a
    :class:`BlockCollection`.  Concrete builders document which settings they
    support; most schema-agnostic schemes support both.
    """

    #: Human-readable scheme name, used in benchmark reports.
    name: str = "blocking"

    @abc.abstractmethod
    def build(self, data: ERInput, context=None) -> BlockCollection:
        """Build blocks for the given ER input.

        ``context`` is an optional shared
        :class:`~repro.core.context.PipelineContext`; the builders that read
        interned token columns use it when it owns ``data`` (see
        :func:`interned`), the key-based ones borrow only its identifier
        table (see :func:`identifier_table`).
        """

    # ------------------------------------------------------------------
    @staticmethod
    def _iter_with_side(data: ERInput) -> Iterator[Tuple[str, "object"]]:
        """Yield ``(side, description)`` pairs; side is ``"all"`` for dirty ER."""
        if isinstance(data, CleanCleanTask):
            for description in data.left:
                yield "left", description
            for description in data.right:
                yield "right", description
        else:
            for description in data:
                yield "all", description
