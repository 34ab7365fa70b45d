"""Candidate comparisons (description pairs).

Blocking proposes *comparisons*: unordered pairs of description identifiers
that should be examined by the matching phase.  A comparison is canonicalised
so that the lexicographically smaller identifier always comes first, which
makes pair-level deduplication (redundant-comparison elimination) a set
operation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as _np


def canonical_pair(first: str, second: str) -> Tuple[str, str]:
    """Return the pair ordered lexicographically (the canonical form)."""
    if first == second:
        raise ValueError(f"a comparison requires two distinct descriptions, got {first!r} twice")
    return (first, second) if first < second else (second, first)


@dataclass(frozen=True)
class Comparison:
    """An unordered candidate pair of descriptions.

    Attributes
    ----------
    first, second:
        Identifiers of the two descriptions, stored in canonical
        (lexicographic) order regardless of construction order.
    weight:
        Optional weight attached by meta-blocking or a scheduler; higher
        means more likely to match.  ``None`` means unweighted.
    block_id:
        Optional identifier of the block that proposed this comparison.
    """

    first: str
    second: str
    weight: Optional[float] = field(default=None, compare=False)
    block_id: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        ordered = canonical_pair(self.first, self.second)
        if ordered != (self.first, self.second):
            object.__setattr__(self, "first", ordered[0])
            object.__setattr__(self, "second", ordered[1])

    @property
    def pair(self) -> Tuple[str, str]:
        return (self.first, self.second)

    def involves(self, identifier: str) -> bool:
        return identifier == self.first or identifier == self.second

    def other(self, identifier: str) -> str:
        """Return the member of the pair that is not ``identifier``."""
        if identifier == self.first:
            return self.second
        if identifier == self.second:
            return self.first
        raise KeyError(f"{identifier!r} is not part of comparison {self.pair}")

    def with_weight(self, weight: float) -> "Comparison":
        return Comparison(self.first, self.second, weight=weight, block_id=self.block_id)

    def __repr__(self) -> str:
        if self.weight is None:
            return f"Comparison({self.first!r}, {self.second!r})"
        return f"Comparison({self.first!r}, {self.second!r}, weight={self.weight:.4f})"


def pair_code(a: int, b: int) -> int:
    """Pack an unordered ordinal pair into one integer (``min << 32 | max``).

    It is the single definition of the dedup-code scheme used by the
    columnar paths, which hold the codes in ``int64`` columns: the sign bit
    bounds the shifted half, so ordinals must stay below ``2**31`` (two
    billion descriptions), which every collection that fits in memory
    satisfies.
    """
    return (a << 32) | b if a < b else (b << 32) | a


#: the table :func:`identifier_ranks` ranked last, its length then and its ranks
_last_ranked = (None, 0, None)


def _rank_table(ids: Sequence[str]) -> _np.ndarray:
    """The ranks of ``ids``: one argsort of the identifier strings."""
    rank = _np.empty(len(ids), dtype=_np.int64)
    rank[_np.argsort(_np.array(ids))] = _np.arange(len(ids), dtype=_np.int64)
    rank.flags.writeable = False
    return rank


def identifier_ranks(ids: Sequence[str]) -> _np.ndarray:
    """Rank of every ordinal in the lexicographic order of its identifier.

    Comparing ranks is equivalent to comparing the identifier strings, which
    lets columnar passes (the canonical orientation of pair rows,
    :meth:`ComparisonColumns.weight_sorted`, the meta-blocking tie-breaks,
    the clustering engine's heaviest-first edge sort) order pairs exactly
    like a sort over the identifier pair itself.

    Identifier tables only ever grow, so the ranks are computed once per
    table: the read-only int64 ndarray of the last table ranked is handed
    out again while that same object has not grown since.
    """
    global _last_ranked
    table, size, rank = _last_ranked
    if table is not ids or size != len(ids):
        rank = _rank_table(ids)
        _last_ranked = (ids, len(ids), rank)
    return rank


def canonical_orientation(ids: Sequence[str], first, second):
    """Ordinal pair rows in canonical orientation, as int64 ndarrays.

    A row is swapped where ``ids[first] > ids[second]`` (by
    :func:`identifier_ranks`), so the smaller identifier comes first, as in
    :func:`canonical_pair`.
    """
    rank = identifier_ranks(ids)
    first = _np.asarray(first, dtype=_np.int64)
    second = _np.asarray(second, dtype=_np.int64)
    swap = rank[first] > rank[second]
    return _np.where(swap, second, first), _np.where(swap, first, second)


def stable_argsort(keys, bound: int):
    """Stable argsort of an ndarray of non-negative integers below ``bound``.

    One least-significant-digit pass per 16-bit digit of ``bound``: NumPy
    sorts 16-bit keys by radix (linear) and wider ones by merging, so the
    digit passes are several times faster than one ``argsort`` of the int64
    keys and give the same permutation.
    """
    order = _np.argsort(keys.astype(_np.uint16), kind="stable")  # the low digit
    shift = 16
    while bound >> shift:
        digit = (keys >> shift).astype(_np.uint16)
        order = order[_np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


def first_occurrences(first, second, size: int):
    """Ascending row indices of the first occurrence of every unordered pair.

    NumPy ordinal columns below ``size`` in, an index array out: one
    ``np.unique(min * size + max, return_index=True)`` finds the first row
    of every distinct pair, and sorting those rows restores input order.
    """
    low = _np.minimum(first, second)
    high = _np.maximum(first, second)
    _codes, index = _np.unique(low * size + high, return_index=True)
    index.sort()
    return index


def heaviest_first(rank, first, second, weights=None):
    """The stable permutation ordering rows by ``(-weight, rank[first], rank[second])``.

    NumPy columns in, an index array out: the permutation
    ``np.lexsort((rank[second], rank[first], -weights))`` gives (by the
    pair alone when ``weights`` is ``None``), from two stable argsorts
    instead of three key passes -- the pair as one composite key
    ``rank[first] * n + rank[second]`` (``n = len(rank)``, so it orders
    like the pair; radix passes of :func:`stable_argsort`), then the negated
    weights over that order.  Rows that tie on the whole key keep their
    input order.
    """
    size = len(rank)
    order = stable_argsort(rank[first] * size + rank[second], size * size)
    if weights is not None:
        order = order[_np.argsort(-weights[order], kind="stable")]
    return order


def heaviest_rows(rank, first, second, weights, count: int):
    """The ``count`` rows (``0 < count < len(first)``, distinct) that lead
    the :func:`heaviest_first` order, in no order: every row heavier than
    the ``count``-th heaviest weight (one partition) and, of the rows tied
    at it, those with the lowest pair codes (one ``argpartition``)."""
    tied, heavier = _np.arange(len(first)), _np.arange(0)
    if weights is not None:
        w = -_np.partition(-weights, count - 1)[count - 1]
        heavier, tied = _np.flatnonzero(weights > w), _np.flatnonzero(weights == w)
    codes = rank[first[tied]] * len(rank) + rank[second[tied]]
    need = count - len(heavier)
    return _np.concatenate((heavier, tied[_np.argpartition(codes, need - 1)[:need]]))


class OrdinalInterner:
    """Assigns dense ordinals to identifiers in first-seen order.

    Calling the interner with an identifier returns its ordinal, assigning
    the next free one on first sight; :attr:`ids` is the inverse table
    (ordinal -> identifier), growing as identifiers are interned -- safe to
    hand to a :class:`ComparisonColumns` or
    :class:`~repro.progressive.schedulers.ScheduledRows` before interning is
    complete, because consumers only index it after the producing row was
    yielded.
    """

    __slots__ = ("ids", "_ordinal")

    def __init__(self) -> None:
        self.ids: List[str] = []
        self._ordinal: Dict[str, int] = {}

    def __call__(self, identifier: str) -> int:
        ordinal = self._ordinal.get(identifier)
        if ordinal is None:
            ordinal = self._ordinal[identifier] = len(self.ids)
            self.ids.append(identifier)
        return ordinal

    def __len__(self) -> int:
        return len(self.ids)


class ComparisonColumns(Sequence):
    """Candidate comparisons as parallel ``(left, right, weight)`` arrays.

    The columnar counterpart of a ``List[Comparison]``: an identifier table
    plus three flat columns.  Meta-blocking emits its retained edges in this
    form (:meth:`~repro.metablocking.pipeline.MetaBlocking.weighted_columns`)
    and the array scheduling engine orders and drains them without ever
    materialising per-pair objects; every consumer written against a plain
    comparison sequence keeps working, because iteration and indexing
    materialise bit-identical :class:`Comparison` objects lazily.

    Attributes
    ----------
    ids:
        Identifier table; ``first``/``second`` hold indices into it.  Rows
        are stored in canonical order (``ids[first[i]] < ids[second[i]]``).
    first, second:
        int64 ndarray ordinal columns, one entry per comparison.
    weights:
        Aligned float64 ndarray of comparison weights, or ``None`` when the
        comparisons are unweighted.  NaN marks a comparison without a
        weight: it materialises with ``weight=None`` and sorts last.

    The constructor takes any int / float sequences and holds them as those
    ndarrays (no copy of an ndarray of the right dtype); the objects it
    materialises carry plain ``str`` / ``float`` fields.
    distinct:
        Whether the rows are known to hold no duplicate pair (meta-blocking
        output is distinct by construction); consumers that must
        deduplicate can skip the pass when set.
    weight_ordered:
        Whether the rows are in ``(-weight, first, second)`` order, making
        :meth:`weight_sorted` a pass-through.  That order may be pending:
        reading a column orders every row once; ``len``, :meth:`pairs` and
        :meth:`unordered` order none, :meth:`ordered_rows` a head.
    """

    __slots__ = (
        "ids",
        "_first",
        "_second",
        "_weights",
        "distinct",
        "weight_ordered",
        "_order",
    )

    def __init__(
        self,
        ids: Sequence[str],
        first,
        second,
        weights=None,
        distinct: bool = False,
        weight_ordered: bool = False,
    ) -> None:
        first = _np.asarray(first, dtype=_np.int64)
        second = _np.asarray(second, dtype=_np.int64)
        if weights is not None:
            weights = _np.asarray(weights, dtype=_np.float64)
        if len(first) != len(second):
            raise ValueError("first and second columns must have equal length")
        if weights is not None and len(weights) != len(first):
            raise ValueError("weights column must align with the ordinal columns")
        self.ids = ids
        self._first = first
        self._second = second
        self._weights = weights
        self.distinct = distinct
        self.weight_ordered = weight_ordered
        #: a pending weight order: the stored rows known to lead it, in
        #: order (the rest follow unordered); None once the rows are in order
        self._order = None

    # reading a column completes a pending weight order
    first = property(lambda self: self._columns()[0])
    second = property(lambda self: self._columns()[1])
    weights = property(lambda self: self._columns()[2])

    def _columns(self):
        if self._order is not None:
            order = self._ordered(len(self), len(self))
            self._first, self._second = self._first[order], self._second[order]
            if self._weights is not None:
                self._weights = self._weights[order]
            self._order = None
        return self._first, self._second, self._weights

    def _ordered(self, stop: int, reach: int) -> _np.ndarray:
        """The pending order's leading rows, extended to at least ``stop``:
        first the head of ``max(stop, reach)`` rows, then all the rest."""
        order = self._order
        if len(order) < stop:
            rank, key = identifier_ranks(self.ids), self._weights
            if key is not None and _np.isnan(key).any():
                key = _np.where(_np.isnan(key), -_np.inf, key)
            if not len(order) and max(stop, reach) >= len(self):
                return heaviest_first(rank, self._first, self._second, key)
            if len(order):
                rows = _np.setdiff1d(_np.arange(len(self)), order, assume_unique=True)
            else:
                rows = heaviest_rows(rank, self._first, self._second, key, max(stop, reach))
            key = None if key is None else key[rows]
            rows = rows[heaviest_first(rank, self._first[rows], self._second[rows], key)]
            self._order = order = _np.concatenate((order, rows))
        return order

    def ordered_rows(self, start: int, stop: int, reach: int):
        """Rows ``start:stop`` as ``(first, second)``, when no row past the
        first ``reach`` is ever asked for: a pending order orders that head."""
        if self._order is not None and (len(self._order) or reach < len(self)):
            index = self._ordered(stop, reach)[start:stop]
            return self._first[index], self._second[index]
        first, second, _weights = self._columns()
        return first[start:stop], second[start:stop]

    def unordered(self):
        """The ``(first, second)`` columns in storage order, for reads that
        do not depend on the order (a pending one is not paid for)."""
        return self._first, self._second

    def __len__(self) -> int:
        return len(self._first)

    def __getitem__(self, index: int) -> "Comparison":
        if isinstance(index, slice):
            raise TypeError("ComparisonColumns does not support slicing")
        weight = self.weights.item(index) if self.weights is not None else None
        if weight != weight:
            weight = None
        first, second = self.pair(index)
        return Comparison(first, second, weight=weight)

    def __iter__(self) -> Iterator["Comparison"]:
        ids = self.ids
        first, second = self.first.tolist(), self.second.tolist()
        if self.weights is None:
            for f, s in zip(first, second):
                yield Comparison(ids[f], ids[s])
        else:
            for f, s, w in zip(first, second, self.weights.tolist()):
                yield Comparison(ids[f], ids[s], weight=w if w == w else None)

    def pair(self, index: int) -> Tuple[str, str]:
        """The canonical identifier pair of row ``index`` (no object built)."""
        return (self.ids[self.first.item(index)], self.ids[self.second.item(index)])

    def pairs(self) -> Set[Tuple[str, str]]:
        """The distinct canonical pairs of all rows, as a set."""
        ids = self.ids
        first, second = self.unordered()
        return {(ids[f], ids[s]) for f, s in zip(first.tolist(), second.tolist())}

    # ------------------------------------------------------------------
    def weight_sorted(self) -> "ComparisonColumns":
        """The rows ordered by ``(-weight, first, second)`` -- heaviest first.

        The exact order of ``MetaBlocking.weighted_comparisons`` and of
        :class:`~repro.progressive.schedulers.WeightOrderScheduler`:
        descending weight, ties broken by the canonical identifier pair
        (missing weights sort last, tied with ``-inf``): :func:`heaviest_first`
        over the rank and weight columns, deferred (see ``weight_ordered``).
        """
        if len(self) <= 1 or self.weight_ordered:
            return self
        columns = ComparisonColumns(self.ids, *self._columns(), self.distinct, True)
        columns._order = _np.zeros(0, dtype=_np.int64)
        return columns

    def taken(self, index, distinct: bool = False, weight_ordered: bool = False):
        """A copy holding the rows at ``index`` (ints), in that order."""
        index = _np.asarray(index, dtype=_np.int64)
        first, second, weights = self._columns()
        weights = None if weights is None else weights[index]
        return ComparisonColumns(
            self.ids, first[index], second[index], weights, distinct, weight_ordered
        )

    def deduplicated(self) -> "ComparisonColumns":
        """A copy keeping the first occurrence of every pair (input order).

        The columnar analogue of
        :func:`repro.progressive.schedulers.candidate_comparisons` over a
        comparison sequence: :func:`first_occurrences` over the ordinal
        columns.  A pass-through (returns ``self``) when the rows are
        already known to be distinct or too few to repeat.
        """
        if self.distinct or len(self) <= 1:
            return self
        keep = first_occurrences(self.first, self.second, len(self.ids))
        if len(keep) < len(self):
            return self.taken(keep, distinct=True, weight_ordered=self.weight_ordered)
        return ComparisonColumns(self.ids, *self._columns(), True, self.weight_ordered)

    def __repr__(self) -> str:
        weighted = "weighted" if self.weights is not None else "unweighted"
        return f"ComparisonColumns({len(self)} comparisons, {len(self.ids)} ids, {weighted})"


class DecisionColumns(Sequence):
    """Match decisions as parallel ``(first, second, similarity, is_match)`` arrays.

    The columnar counterpart of a ``List[MatchDecision]``: an identifier
    table plus four flat columns.  The batched matching engine and the
    progressive runner's array drain emit executed decisions in this form,
    and the array clustering engine consumes it without ever materialising a
    per-pair object -- while every consumer written against a sequence of
    :class:`~repro.matching.matchers.MatchDecision` keeps working, because
    iteration and indexing materialise bit-identical decision objects lazily
    (the oracle bridge).

    Attributes
    ----------
    ids:
        Identifier table; ``first``/``second`` hold indices into it.  The
        table may be shared with the producing schedule and may therefore
        contain identifiers no decision references.
    first, second:
        ``array('q')`` ordinal columns, one entry per decision, stored in
        the execution orientation (use :meth:`pair` for the canonical pair).
    similarity:
        Aligned ``array('d')`` of similarity scores.
    is_match:
        Aligned ``bytearray`` of 0/1 match flags.
    cost:
        Budget cost per decision (uniform across the columns, like the
        fixed-cost matchers that emit them).
    """

    __slots__ = ("ids", "first", "second", "similarity", "is_match", "cost")

    def __init__(
        self,
        ids: Sequence[str],
        first: Optional[array] = None,
        second: Optional[array] = None,
        similarity: Optional[array] = None,
        is_match: Optional[bytearray] = None,
        cost: float = 1.0,
    ) -> None:
        self.ids = ids
        self.first = first if first is not None else array("q")
        self.second = second if second is not None else array("q")
        self.similarity = similarity if similarity is not None else array("d")
        self.is_match = is_match if is_match is not None else bytearray()
        self.cost = cost
        lengths = {len(self.first), len(self.second), len(self.similarity), len(self.is_match)}
        if len(lengths) != 1:
            raise ValueError("decision columns must have equal length")

    # ------------------------------------------------------------------
    @classmethod
    def from_decisions(
        cls, decisions: Iterable["MatchDecision"], cost: float = 1.0
    ) -> "DecisionColumns":
        """Intern existing decision objects into columns (the bridge *in*)."""
        intern = OrdinalInterner()
        columns = cls(intern.ids, cost=cost)
        for decision in decisions:
            first, second = decision.pair
            columns.append(
                intern(first), intern(second), decision.similarity, decision.is_match
            )
        return columns

    @classmethod
    def from_match_pairs(
        cls,
        pairs: Iterable[Tuple[str, str]],
        similarity: float = 1.0,
        cost: float = 1.0,
    ) -> "DecisionColumns":
        """Columns declaring every identifier pair a match at ``similarity``.

        The columnar analogue of the workflow tail's historical
        ``[MatchDecision(Comparison(a, b), 1.0, True) for a, b in matches]``
        list: pairs are canonicalised exactly like :class:`Comparison` would,
        so the resulting columns feed clustering bit-identically.
        """
        intern = OrdinalInterner()
        columns = cls(intern.ids, cost=cost)
        for first, second in pairs:
            if first > second:
                first, second = second, first
            elif first == second:
                raise ValueError(
                    f"a match decision requires two distinct descriptions, got {first!r} twice"
                )
            columns.append(intern(first), intern(second), similarity, True)
        return columns

    # ------------------------------------------------------------------
    def append(self, first: int, second: int, similarity: float, is_match: bool) -> None:
        """Record one executed decision as a row."""
        self.first.append(first)
        self.second.append(second)
        self.similarity.append(similarity)
        self.is_match.append(1 if is_match else 0)

    def extend(self, first, second, similarity, is_match) -> None:
        """Record executed decisions as rows (iterables of ordinals,
        similarities and 0/1 flags)."""
        self.first.extend(first)
        self.second.extend(second)
        self.similarity.extend(similarity)
        self.is_match.extend(is_match)

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, index: int) -> "MatchDecision":
        if isinstance(index, slice):
            raise TypeError("DecisionColumns does not support slicing")
        # lazy import: matchers sits above the datamodel layer; the bridge
        # only pays for it when somebody actually materialises a decision
        from repro.matching.matchers import MatchDecision

        return MatchDecision(
            comparison=Comparison(self.ids[self.first[index]], self.ids[self.second[index]]),
            similarity=self.similarity[index],
            is_match=bool(self.is_match[index]),
            cost=self.cost,
        )

    def __iter__(self) -> Iterator["MatchDecision"]:
        for index in range(len(self.first)):
            yield self[index]

    # ------------------------------------------------------------------
    def pair(self, index: int) -> Tuple[str, str]:
        """The canonical identifier pair of row ``index`` (no object built)."""
        first = self.ids[self.first[index]]
        second = self.ids[self.second[index]]
        return (first, second) if first < second else (second, first)

    def pairs(self) -> Set[Tuple[str, str]]:
        """The distinct canonical pairs of all rows, as a set."""
        return {self.pair(index) for index in range(len(self.first))}

    def matched_pairs(self) -> List[Tuple[str, str]]:
        """Canonical pairs of the positive decisions, in row order."""
        ids = self.ids
        return [
            (first, second) if first < second else (second, first)
            for first, second, flag in zip(
                map(ids.__getitem__, self.first), map(ids.__getitem__, self.second), self.is_match
            )
            if flag
        ]

    @property
    def num_matches(self) -> int:
        """Number of positive decisions."""
        return sum(self.is_match)

    def __repr__(self) -> str:
        return (
            f"DecisionColumns({len(self)} decisions, {self.num_matches} matches, "
            f"{len(self.ids)} ids)"
        )


class ComparisonCounter:
    """Counts comparisons executed per stage; shared by pipelines and budgets.

    The counter is the single source of truth that progressive ER uses to
    enforce a comparison budget, and that benchmarks use to report the number
    of executed comparisons per workflow stage.
    """

    def __init__(self) -> None:
        self._per_stage: Dict[str, int] = {}

    def record(self, stage: str = "matching", count: int = 1) -> None:
        self._per_stage[stage] = self._per_stage.get(stage, 0) + count

    def count(self, stage: Optional[str] = None) -> int:
        if stage is not None:
            return self._per_stage.get(stage, 0)
        return sum(self._per_stage.values())

    @property
    def total(self) -> int:
        return self.count()

    def per_stage(self) -> Dict[str, int]:
        return dict(self._per_stage)

    def reset(self) -> None:
        self._per_stage.clear()

    def __repr__(self) -> str:
        return f"ComparisonCounter(total={self.total}, stages={self._per_stage})"
