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

from repro.core.context import PipelineContext
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.pairs import Comparison, canonical_pair

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
    @classmethod
    def pair(cls, key: str, first: str, second: str) -> "Block":
        """A two-member dirty-ER block, built without validation.

        Trusted fast path for callers that materialise very many pair
        blocks (comparison propagation, meta-blocking restructuring); the
        two members must be distinct.  Equivalent to
        ``Block(key, members=[first, second])``.
        """
        block = cls.__new__(cls)
        block.key = key
        block._members = (first, second)
        block._left = ()
        block._right = ()
        return block

    @classmethod
    def bilateral_pair(cls, key: str, left: str, right: str) -> "Block":
        """A one-by-one clean--clean block, built without validation.

        Trusted fast path, equivalent to
        ``Block(key, left_members=[left], right_members=[right])`` for two
        distinct identifiers.
        """
        block = cls.__new__(cls)
        block.key = key
        block._members = ()
        block._left = (left,)
        block._right = (right,)
        return block

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

    def comparisons(self) -> Iterator[Comparison]:
        """Yield every comparison induced by the block."""
        if self.is_bilateral:
            for left in self._left:
                for right in self._right:
                    yield Comparison(left, right, block_id=self.key)
        else:
            for first, second in itertools.combinations(self._members, 2):
                yield Comparison(first, second, block_id=self.key)

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """Yield every canonical identifier pair induced by the block."""
        if self.is_bilateral:
            for left in self._left:
                for right in self._right:
                    yield canonical_pair(left, right)
        else:
            for first, second in itertools.combinations(self._members, 2):
                yield canonical_pair(first, second)

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

    A collection is either a list of :class:`Block` objects or a **lazy view**
    over :class:`~repro.blocking.columns.BlockColumns` (what the index
    blocking engine builds, purges and filters).  A column-backed collection
    answers ``len()`` and :meth:`total_comparisons` from its columns and
    materialises its blocks once, on the first iteration, indexing or
    :meth:`add`; from then on the objects are the truth and the backing is
    dropped, so nothing done to a materialised collection writes through to
    the columns it came from.
    """

    def __init__(self, blocks: Optional[Iterable[Block]] = None, name: str = "blocks") -> None:
        self.name = name
        self._blocks: List[Block] = []
        #: the ``BlockColumns`` backing, until the block objects are first needed
        self._columns = None
        if blocks:
            for block in blocks:
                self.add(block)

    @classmethod
    def from_columns(cls, columns, name: str = "blocks") -> "BlockCollection":
        """A lazy view over ``columns`` (a :class:`~repro.blocking.columns.BlockColumns`)."""
        collection = cls(name=name)
        collection._columns = columns
        return collection

    def _objects(self) -> List[Block]:
        """The block objects, materialised from the backing on first use."""
        if self._columns is not None:
            self._blocks = self._columns.blocks()
            self._columns = None
        return self._blocks

    def add(self, block: Block) -> None:
        """Add a block; blocks inducing no comparison are silently dropped."""
        if block.num_comparisons() > 0:
            self._objects().append(block)

    def _extend_trusted(self, blocks: Iterable[Block]) -> None:
        """Extend with blocks known to induce at least one comparison each.

        Internal fast path for the array-backed engines, which append very
        many pair blocks; skips the per-block cardinality check of
        :meth:`add`.
        """
        self._objects().extend(blocks)

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._objects())

    def __getitem__(self, index: int) -> Block:
        return self._objects()[index]

    @property
    def blocks(self) -> Tuple[Block, ...]:
        return tuple(self._objects())

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def total_comparisons(self) -> int:
        """Sum of per-block comparisons, counting redundant pairs multiple times.

        This is the *aggregate cardinality* ``||B||`` used by block purging and
        by the meta-blocking weighting schemes.
        """
        if self._columns is not None:
            return self._columns.total_comparisons()
        return sum(block.num_comparisons() for block in self._blocks)

    def distinct_pairs(self) -> Set[Tuple[str, str]]:
        """The set of distinct comparisons induced by all blocks."""
        pairs: Set[Tuple[str, str]] = set()
        for block in self:
            pairs.update(block.pairs())
        return pairs

    def num_distinct_comparisons(self) -> int:
        return len(self.distinct_pairs())

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
        index: Dict[str, List[int]] = {}
        for block_index, block in enumerate(self):
            for identifier in block.members:
                index.setdefault(identifier, []).append(block_index)
        return index

    def block_sizes(self) -> List[int]:
        return [len(block) for block in self]

    def placed_identifiers(self) -> Set[str]:
        """All identifiers that appear in at least one block."""
        identifiers: Set[str] = set()
        for block in self:
            identifiers.update(block.members)
        return identifiers

    def comparisons(self) -> Iterator[Comparison]:
        """Yield the comparisons of every block (including redundant repetitions)."""
        for block in self:
            yield from block.comparisons()

    def distinct_comparisons(self) -> Iterator[Comparison]:
        """Yield each distinct comparison exactly once (first block wins)."""
        seen: Set[Tuple[str, str]] = set()
        for block in self:
            for comparison in block.comparisons():
                if comparison.pair not in seen:
                    seen.add(comparison.pair)
                    yield comparison

    def sorted_by_cardinality(self, ascending: bool = True) -> "BlockCollection":
        """Return a copy with blocks ordered by their number of comparisons."""
        ordered = sorted(self, key=lambda b: b.num_comparisons(), reverse=not ascending)
        return BlockCollection(ordered, name=self.name)

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
        :func:`interned`), the key-based ones ignore it.
        """

    # ------------------------------------------------------------------
    # helpers shared by key-based builders
    # ------------------------------------------------------------------
    @staticmethod
    def _blocks_from_key_index(
        key_index: Dict[str, Dict[str, List[str]]],
        data: ERInput,
        name: str,
        min_block_size: int = 2,
    ) -> BlockCollection:
        """Turn ``key -> side -> identifiers`` into a block collection.

        For dirty ER the ``side`` level holds the single key ``"all"``.
        Blocks with fewer than ``min_block_size`` members (or with an empty
        side, for clean--clean) induce no comparison and are dropped.
        """
        collection = BlockCollection(name=name)
        bilateral = isinstance(data, CleanCleanTask)
        for key in sorted(key_index):
            sides = key_index[key]
            if bilateral:
                left = sides.get("left", [])
                right = sides.get("right", [])
                if left and right:
                    collection.add(Block(key, left_members=left, right_members=right))
            else:
                members = sides.get("all", [])
                if len(members) >= min_block_size:
                    collection.add(Block(key, members=members))
        return collection

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
