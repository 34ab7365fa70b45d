"""Array-backed entity-index meta-blocking engine.

The blocking graph has one node per description and one edge per pair of
descriptions that share a block; for Web-scale collections its edges dwarf
the descriptions.  :class:`EntityIndexEngine` never materialises it: it runs
on the *entity index* of the input block collection, stored as flat integer
arrays in CSR form:

* ``_blk_ptr`` / ``_blk_ents`` -- for every block, the ordinals of its member
  descriptions (``_blk_ents[_blk_ptr[b]:_blk_ptr[b + 1]]``);
* ``_ent_ptr`` / ``_ent_blocks`` -- for every description ordinal, the indices
  of the blocks containing it (the CSR transpose of the above);
* ``_ent_side`` -- parallel to ``_ent_blocks``: which side of a bilateral
  block the description sits on, so clean--clean collections only generate
  cross-source comparisons;
* :meth:`~EntityIndexEngine._sorted_members` -- the int32 copy of
  ``_blk_ents`` sorted within each (block, side) segment, with its ascending
  int64 keys ``(2 * block + side) * N + member``, gathered from.

The block-side columns are the blocking engine's own
:class:`~repro.blocking.columns.BlockColumns`
(:meth:`EntityIndexEngine.from_columns`; block *objects* are interned once by
:meth:`BlockColumns.from_collection
<repro.blocking.columns.BlockColumns.from_collection>`) and everything
downstream stays in ordinal space: edge weights (CBS, ECBS, JS,
EJS, ARCS) and all six pruning schemes (WEP, CEP, WNP, CNP and the reciprocal
node variants) produce flat ``(first, second, weight)`` ordinal columns
(:meth:`EntityIndexEngine.retained_columns`); identifier strings and
:class:`WeightedEdge` objects exist only in the lazy
:meth:`~EntityIndexEngine.iter_retained` view over those columns.  WEP, CEP
and CNP run as *ranged* passes over node-ordinal ranges: a pass over the
whole node range is the sequential engine, a pass per contiguous range in a
worker process is the parallel one -- the same code either way.  WNP and
ReciprocalWNP run one sequential pass (:meth:`EntityIndexEngine._wnp`) in
the calling process.

The neighbourhoods of a whole *batch* of nodes are expanded at once
(:meth:`EntityIndexEngine._neighbourhoods`: one CSR gather, one in-place
sort of int32 ``(node - first node) * N + neighbour`` keys, one
``np.bincount`` for ARCS), the batches being cut so that each gathers about
:data:`_BATCH_PAIRS` co-occurrence pairs; a lower-half pass (WEP, CEP, the
EJS degrees) gathers only the members above each node, a full pass (WNP,
CNP) every neighbour of each node.  Pruned edges are never all
resident.  Peak transient memory is one node batch, plus what
cutting the batches needs -- two span columns (and, briefly, half a dozen
more) as long as the block assignments of the node range, the order of the
index itself -- plus the sorted copy (12 bytes per block assignment), plus
the retained columns, which exist once as ndarrays and once as the typed
arrays handed out (plus the O(budget) candidate buffer of CEP, the
O(k * nodes) endorsements of CNP and the threshold column of WNP, one float
per node).

The weights do not depend on how the work is cut: per-edge arithmetic has a
fixed operand order (canonical identifier order for the ECBS/EJS discount
factors, ascending block order for the ARCS accumulation), and every
threshold (WEP global mean, WNP node-local means) is decided as the exactly
rounded :func:`math.fsum` of its weights, which is independent of
accumulation order and of how the node range was cut -- WNP sums each node's
run of its one full pass with ``add.reduceat`` and takes the run's ``fsum``
instead wherever an incident weight lies inside the rounding margin of that
sum (the bound is argued in :meth:`EntityIndexEngine._wnp`).  Ties are
broken by the identifier pair.  ``tests/fixtures/metablocking/seeded.json``
(``tests/test_metablocking_equivalence.py``) freezes what every scheme pair
retains, weights bit for bit, as the object reference implementation
computed it, and ``tests/fixtures/metablocking/`` holds the builtin
datasets' rows.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from math import fsum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.blocking.base import BlockCollection
from repro.blocking.columns import BlockColumns, int_view
from repro.blocking.columns import flat_slices as _slices
from repro.blocking.columns import typed_array as _typed_array
from repro.datamodel.pairs import Comparison, identifier_ranks, stable_argsort

import numpy as _np

#: Weighting schemes natively supported by the index engine.
INDEX_WEIGHTING_SCHEMES = ("CBS", "ECBS", "JS", "EJS", "ARCS")
#: Pruning schemes natively supported by the index engine.
INDEX_PRUNING_SCHEMES = ("WEP", "CEP", "WNP", "CNP", "ReciprocalWNP", "ReciprocalCNP")

_PRUNING_ALIASES = {
    "WEP": "WEP",
    "CEP": "CEP",
    "WNP": "WNP",
    "CNP": "CNP",
    "RECIPROCALWNP": "ReciprocalWNP",
    "RECIPROCALCNP": "ReciprocalCNP",
}

#: Pruning schemes whose one sequential pass runs in the calling process; the
#: others run as ranged passes a parallel engine may fan out.
DRIVER_PRUNING_SCHEMES = ("WNP", "ReciprocalWNP")

#: Compact ``heapq.nsmallest`` buffers once they grow past ``2 * budget`` plus
#: this slack, so the CEP candidate buffer stays O(budget).
_CEP_COMPACT_SLACK = 1024

#: Co-occurrence pairs one vectorised neighbourhood batch expands (it always
#: holds at least one node): large enough to amortise the NumPy calls -- run
#: time is flat from 16k to 128k -- and small enough that the dozen transient
#: pair-length columns of a batch stay around two megabytes.
_BATCH_PAIRS = 1 << 15

#: Largest batch-relative neighbourhood key an int32 holds; bounds a batch's span.
_INT32_MAX = (1 << 31) - 1


def _concat(parts: Sequence[tuple]) -> tuple:
    """Concatenate aligned ``(src, dst, weight)`` column tuples in order.

    The parts hold ndarray or typed-array columns; no part at all gives three
    empty edge columns.
    """
    if not parts:
        parts = [(_np.zeros(0, _np.int64), _np.zeros(0, _np.int64), _np.zeros(0))]
    return tuple(_np.concatenate(columns) for columns in zip(*parts))


def _edge_columns(rows) -> Tuple[array, array, array]:
    """``(src, dst, weight)`` rows as three typed-array columns."""
    src, dst, weights = array("q"), array("q"), array("d")
    for a, b, weight in rows:
        src.append(a)
        dst.append(b)
        weights.append(weight)
    return src, dst, weights


def pruning_key(pruning: str) -> str:
    """The index engine's name of ``pruning`` (any letter case, ``_`` ignored).

    Raises :class:`KeyError` for a scheme the index engine does not run.
    """
    key = _PRUNING_ALIASES.get(pruning.upper().replace("_", ""))
    if key is None:
        raise KeyError(
            f"unknown pruning scheme {pruning!r}; available: {sorted(INDEX_PRUNING_SCHEMES)}"
        )
    return key


@dataclass(frozen=True)
class WeightedEdge:
    """A retained edge of the blocking graph with its final weight."""

    first: str
    second: str
    weight: float

    @property
    def pair(self) -> Tuple[str, str]:
        return (self.first, self.second)

    def as_comparison(self) -> Comparison:
        return Comparison(self.first, self.second, weight=self.weight)


def edges_view(ids: Sequence[str], first, second, weights) -> Iterator[WeightedEdge]:
    """Retained ordinal columns viewed as lazily built :class:`WeightedEdge` objects."""
    return (WeightedEdge(ids[f], ids[s], w) for f, s, w in zip(first, second, weights))


def _exact_partials(values) -> List[float]:
    """Shewchuk non-overlapping expansion of ``sum(values)``.

    The returned partials represent the sum *exactly* (it is the state
    ``math.fsum`` carries internally), so ``fsum`` over the concatenated
    partials of a range-sharded pass equals ``fsum`` over the original full
    stream -- the exactly rounded global sum is recovered without the
    weights ever leaving the process that computed them.
    """
    partials: List[float] = []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return partials


class EntityIndexEngine:
    """CSR entity index over a block collection with ranged, columnar meta-blocking.

    Parameters
    ----------
    blocks:
        The (cleaned) block collection to restructure.  Bilateral blocks are
        handled per block: only cross-side co-occurrences produce edges.
    ids:
        Optional identifier table fixing the ordinal assignment (ordinal
        ``o`` is ``ids[o]``), e.g. the shared pipeline context's, so the
        index speaks the same ordinals as the caller's other columns.
        Descriptions placed in no block then simply have no blocks and are
        no graph nodes (:attr:`num_nodes`; the CNP default ``k`` averages
        over nodes, not table entries).  A block
        member the table does not contain is appended after it as a new
        ordinal, so ``num_entities > len(ids)`` tells the caller that the
        table does not cover the blocks (and ``identifier(len(ids))`` names
        the first uncovered member).  By default ordinals are assigned in
        first-seen block-member order; a column-backed collection keeps the
        ordinals of its backing (see :meth:`BlockColumns.from_collection
        <repro.blocking.columns.BlockColumns.from_collection>`).
    """

    def __init__(self, blocks: BlockCollection, ids: Optional[Sequence[str]] = None) -> None:
        self._transpose(BlockColumns.from_collection(blocks, ids))

    @classmethod
    def from_columns(cls, columns: BlockColumns) -> "EntityIndexEngine":
        """The index over ``columns`` as they are: no identifier is read.

        The engine speaks the ordinals of ``columns.ids`` (the shared
        context's table for blocks the blocking engine built) and shares the
        block-side columns; only the block -> entity transpose is computed.
        """
        self = cls.__new__(cls)
        self._transpose(columns)
        return self

    def _transpose(self, columns: BlockColumns) -> None:
        """Adopt the block-side columns and derive the entity-side ones.

        The entity rows list their blocks in ascending block order (one
        stable argsort of the member column).  The typed-array mirrors of
        the entity-side columns serve the scalar accessors and the parallel
        engine's segment export.  A description on both sides of a bilateral
        block would compare with itself; it shows as one entity row naming a
        block twice and is refused with a :class:`ValueError`.
        """
        self._ids = columns.ids
        self._ordinal_cache: Optional[Dict[str, int]] = None
        blk_ents = self._blk_ents = columns.members
        blk_ptr = self._blk_ptr = columns.blk_ptr
        blk_split = self._blk_split = columns.split
        self.num_entities = len(columns.ids)
        self.num_blocks = len(columns)
        #: total number of block assignments (sum of block sizes)
        self.num_assignments = len(blk_ents)
        np = _np
        self._np_blk_ents = ents = int_view(blk_ents)
        self._np_blk_ptr = ptr = int_view(blk_ptr)
        self._np_blk_split = split = int_view(blk_split)
        cards = columns.cardinalities()
        self._np_recip = np.divide(1.0, cards, out=np.zeros(len(cards)), where=cards > 0)
        sizes = np.diff(ptr)
        block_of = np.repeat(np.arange(self.num_blocks), sizes)
        order = stable_argsort(ents, self.num_entities)
        self._np_ent_blocks = block_of[order]
        degrees = np.bincount(ents, minlength=self.num_entities)
        self._np_ent_ptr = np.concatenate(([0], np.cumsum(degrees)))
        split_of = split[block_of]
        on_right = np.arange(self.num_assignments) - ptr[block_of] >= split_of
        self._np_ent_side = ((split_of >= 0) & on_right)[order].astype(np.int8)
        ent_sorted = ents[order]
        twice = (ent_sorted[1:] == ent_sorted[:-1]) & (
            self._np_ent_blocks[1:] == self._np_ent_blocks[:-1]
        )
        if twice.any():
            # the first position (block-major) of a member its block lists
            # twice: the entity a left x right iteration meets first
            repeated = int(order[:-1][twice].min())
            raise ValueError(
                "a comparison requires two distinct descriptions, "
                f"got {self._ids[blk_ents[repeated]]!r} twice"
            )
        self._recip = _typed_array("d", self._np_recip)
        self._ent_ptr = _typed_array("q", self._np_ent_ptr)
        self._ent_blocks = _typed_array("q", self._np_ent_blocks)
        self._ent_side = _typed_array("b", self._np_ent_side)

        self._degree_cache: Optional[Tuple[array, int]] = None
        self._sorted_cache = None
        self._factor_cache: Dict[str, Sequence[float]] = {}
        self._rank_cache: Optional[Sequence[int]] = None

        #: statistics of the last run
        self.last_num_edges: Optional[int] = None
        self.last_retained: Optional[int] = None
        #: nodes whose float-scheme WNP threshold the last run refined with ``fsum``
        self.last_refined: Optional[int] = None

    @classmethod
    def from_arrays(
        cls,
        columns: Dict[str, Sequence],
        factors: Optional[Dict[str, Sequence[float]]] = None,
    ) -> "EntityIndexEngine":
        """Reconstruct a replica from exported flat columns.

        Used by the parallel workers: the driver ships the CSR arrays (plus
        the identifier-rank column and any precomputed ECBS/EJS factor
        column) through shared memory, and the worker rebuilds an engine that
        runs the ranged pruning passes (``_wep_stats`` ... ``_cep``) over
        zero-copy views -- no identifier strings, no block objects, so the
        identifier-facing methods must not be called on a replica.
        """
        self = cls.__new__(cls)
        self._ids = None
        self._ordinal_cache = None
        self._blk_ents = columns["blk_ents"]
        self._blk_ptr = columns["blk_ptr"]
        self._blk_split = columns["blk_split"]
        self._recip = columns["recip"]
        self._ent_ptr = columns["ent_ptr"]
        self._ent_blocks = columns["ent_blocks"]
        self._ent_side = columns["ent_side"]
        self.num_entities = len(columns["ent_ptr"]) - 1
        self.num_blocks = len(columns["blk_ptr"]) - 1
        self.num_assignments = len(columns["blk_ents"])
        as_np = lambda col, dtype: (
            _np.asarray(col, dtype=dtype) if len(col) else _np.zeros(0, dtype)
        )
        self._np_blk_ents = as_np(self._blk_ents, _np.int64)
        self._np_blk_ptr = as_np(self._blk_ptr, _np.int64)
        self._np_blk_split = as_np(self._blk_split, _np.int64)
        self._np_recip = as_np(self._recip, _np.float64)
        self._np_ent_ptr = as_np(self._ent_ptr, _np.int64)
        self._np_ent_blocks = as_np(self._ent_blocks, _np.int64)
        self._np_ent_side = as_np(self._ent_side, _np.int8)
        self._degree_cache = None
        self._sorted_cache = None
        self._factor_cache = dict(factors) if factors else {}
        self._rank_cache = columns["ranks"]
        self.last_num_edges = None
        self.last_retained = None
        self.last_refined = None
        return self

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def ids(self) -> List[str]:
        """Identifier of every ordinal -- the table the retained columns index."""
        return self._ids

    def identifier(self, ordinal: int) -> str:
        return self._ids[ordinal]

    def ordinal(self, identifier: str) -> Optional[int]:
        if self._ordinal_cache is None:
            self._ordinal_cache = {name: o for o, name in enumerate(self._ids)}
        return self._ordinal_cache.get(identifier)

    def node_blocks_count(self, identifier: str) -> int:
        o = self.ordinal(identifier)
        if o is None:
            return 0
        return self._ent_ptr[o + 1] - self._ent_ptr[o]

    @property
    def num_nodes(self) -> int:
        """Descriptions placed in at least one block -- the blocking graph's nodes.

        Fewer than :attr:`num_entities` when the identifier table holds
        descriptions no block contains.
        """
        return int(_np.count_nonzero(_np.diff(self._np_ent_ptr)))

    def compared(self, i: int, j: int) -> bool:
        """Whether some block compares ordinals ``i`` and ``j`` (a graph edge).

        They share a unilateral block, or sit on opposite sides of a
        bilateral one.
        """
        ent_blocks, ent_side = self._ent_blocks, self._ent_side
        side_of = {
            ent_blocks[pos]: ent_side[pos]
            for pos in range(self._ent_ptr[j], self._ent_ptr[j + 1])
        }
        for pos in range(self._ent_ptr[i], self._ent_ptr[i + 1]):
            block = ent_blocks[pos]
            side = side_of.get(block)
            if side is not None and (self._blk_split[block] < 0 or side != ent_side[pos]):
                return True
        return False

    def count_edges(self) -> int:
        """Number of distinct co-occurring pairs (blocking-graph edges)."""
        return self._degrees()[1]

    # ------------------------------------------------------------------
    # neighbourhood expansion
    # ------------------------------------------------------------------
    def _neighbourhoods(
        self, start: int, stop: int, lower: bool, want_arcs: bool, top_first: bool = False
    ):
        """Vectorised neighbourhoods of the nodes in ``[start, stop)``, batch by batch.

        Yields ``(src, dst, counts, arcs)`` columns sorted by ``(src, dst)``
        within a batch, the batches in ascending node order (descending with
        ``top_first``):
        one row per distinct neighbour ``dst`` of node ``src`` (``dst > src``
        only with ``lower``, so that every undirected edge is seen exactly
        once across all nodes), the number of blocks the two share, and --
        when requested, else ``None`` -- their ARCS sum; ``src`` and ``dst``
        are int32.  Each block assignment faces a segment of
        :meth:`_sorted_members`; with ``lower``, one ``searchsorted`` of
        ``(2 * block + facing side) * N + node`` cuts it to the suffix above
        the node, so nothing is gathered to be masked away (without, the node
        itself is masked out).  The range is cut at node boundaries into
        batches gathering at most :data:`_BATCH_PAIRS` pairs (the slice
        lengths tell how many) and spanning at most ``(2**31 - 1) // N``
        nodes, so that the key ``(src - first node) * N + dst`` fits an int32
        (ordinals do, as :func:`~repro.datamodel.pairs.pair_code` assumes).
        One batch gathers its slices, sorts the int32 keys in place and
        decodes the distinct rows, in int32, and their counts off the run
        heads.  ARCS argsorts stably instead, so ``np.bincount`` adds each
        pair's per-block reciprocals in gather (= ascending block) order: a
        pair meets at most once per block.

        Held across the batches: the start and length of every gathered slice
        (as long as the range's block assignments) and two node-length columns.
        """
        np = _np
        ent_ptr = self._np_ent_ptr
        base = int(ent_ptr[start])
        blocks = self._np_ent_blocks[base : int(ent_ptr[stop])]
        if blocks.size == 0:
            return
        num_entities = self.num_entities
        segment_keys, members = self._sorted_members()
        facing, lo, lengths = self._facing_spans(blocks, self._np_ent_side[base : base + blocks.size])
        bounds = ent_ptr[start : stop + 1] - base  # the nodes' assignment offsets
        if lower:
            nodes = np.repeat(np.arange(start, stop), np.diff(bounds))
            above = np.searchsorted(segment_keys, facing * num_entities + nodes, side="right")
            lengths -= above - lo
            lo = above
        before = np.concatenate(([0], np.cumsum(lengths)))[bounds]  # pairs gathered before each node
        span = _INT32_MAX // num_entities
        cuts = [0]
        while cuts[-1] < stop - start:
            node = cuts[-1]
            cut = int(np.searchsorted(before, before[node] + _BATCH_PAIRS, side="right")) - 1
            cuts.append(max(node + 1, min(cut, node + span)))
        batches = list(zip(cuts, cuts[1:]))
        for node, cut in reversed(batches) if top_first else batches:
            q0, q1 = int(bounds[node]), int(bounds[cut])
            first = start + node
            src = np.repeat(np.arange(cut - node, dtype=np.int32), np.diff(before[node : cut + 1]))
            spans = lengths[q0:q1]
            dst = members[_slices(lo[q0:q1], spans)]
            keys = src * num_entities + dst
            weights = np.repeat(self._np_recip[blocks[q0:q1]], spans) if want_arcs else None
            if not lower:
                mask = dst != src + first
                keys = keys[mask]
                weights = weights[mask] if want_arcs else None
            if keys.size == 0:
                continue
            arcs = None
            if want_arcs:
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
            else:
                keys.sort()
            edge = np.empty(keys.size + 1, dtype=bool)  # a run starts / the last one ends
            edge[0] = edge[-1] = True
            np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
            heads = np.flatnonzero(edge)
            counts = heads[1:] - heads[:-1]
            if want_arcs:
                arcs = np.bincount(np.cumsum(edge[:-1]) - 1, weights=weights[order])
            keys = keys[heads[:-1]]
            src = keys // num_entities
            dst = keys - src * num_entities
            src += first
            yield src, dst, counts, arcs

    def _sorted_members(self):
        """The member column sorted within each (block, side) segment: ``(keys, members)``.

        int32 ``members`` and their ascending int64 keys ``(2 * block + side) *
        N + member``, each segment where it was; a private copy built on first
        use and dropped when a pruning run returns (:attr:`BlockColumns.members`
        itself is never reordered).
        """
        if self._sorted_cache is None:
            np = _np
            ptr, split = self._np_blk_ptr, self._np_blk_split
            block_of = np.repeat(np.arange(self.num_blocks), np.diff(ptr))
            split_of = split[block_of]
            right = (split_of >= 0) & (np.arange(self.num_assignments) - ptr[block_of] >= split_of)
            keys = (2 * block_of + right) * self.num_entities + self._np_blk_ents
            keys.sort()
            self._sorted_cache = keys, (keys % self.num_entities).astype(np.int32)
        return self._sorted_cache

    def _facing_spans(self, blocks, side):
        """Per block assignment ``(block, side)``: the segment it faces and its span.

        ``(segment, start, length)``: the whole block (segment ``2 * block``)
        for a unilateral one, the opposite side of a bilateral one.
        """
        np = _np
        split = self._np_blk_split[blocks]
        first = self._np_blk_ptr[blocks]
        bilateral = split >= 0
        faces_right = bilateral & (side == 0)
        lo = np.where(faces_right, first + split, first)
        hi = np.where(bilateral & (side == 1), first + split, self._np_blk_ptr[blocks + 1])
        return 2 * blocks + faces_right, lo, hi - lo

    def co_blocked(self, ordinals: Sequence[int]) -> List[int]:
        """Every other description sharing a block with any of ``ordinals``.

        The neighbourhood the update/iterate phase re-matches a merge of
        ``ordinals`` against: the distinct members of all their blocks --
        *whole* blocks, so both sides of a bilateral block -- minus
        ``ordinals`` themselves, in **identifier order** (ascending rank),
        the order ``sorted()`` gives the identifier strings.
        """
        if len(ordinals) == 0:
            return []
        np = _np
        blocks = np.concatenate(
            [self._np_ent_blocks[self._ent_ptr[o] : self._ent_ptr[o + 1]] for o in ordinals]
        )
        start = self._np_blk_ptr[blocks]
        flat = _slices(start, self._np_blk_ptr[blocks + 1] - start)
        # raw token blocks are large and overlap heavily: marking members
        # in an entity-sized mask is cheaper than sorting the duplicates out
        mask = np.zeros(self.num_entities, dtype=bool)
        mask[self._np_blk_ents[flat]] = True
        mask[list(ordinals)] = False
        members = np.flatnonzero(mask)
        return members[np.argsort(self._ranks()[members])].tolist()

    def _ranks(self) -> Sequence[int]:
        """Identifier ranks: comparing ranks == comparing identifier strings.

        The ECBS/EJS weigh kernels need the *canonical* (lexicographic
        identifier) operand order per edge; ranks reduce that to integer
        comparisons over a column computed once -- which also lets worker
        replicas (:meth:`from_arrays`), which carry no identifier strings at
        all, reproduce the exact same operand order from the shipped column.
        """
        if self._rank_cache is None:
            self._rank_cache = identifier_ranks(self._ids)
        return self._rank_cache

    def _degrees(self) -> Tuple[array, int]:
        """Per-node distinct-neighbour counts and the total edge count.

        One lower-half pass: every edge counts once at each endpoint.  The
        endpoint columns are counted with one ``bincount`` per node count of
        endpoints gathered, so the pass stays linear in the edges and holds
        O(nodes + one batch).
        """
        if self._degree_cache is None:
            np = _np
            n = self.num_entities
            degrees = np.zeros(n, dtype=np.int64)
            held: List = []
            for src, dst, _counts, _arcs in self._neighbourhoods(0, n, True, False):
                held += (src, dst)
                if sum(map(len, held)) >= n:
                    degrees += np.bincount(np.concatenate(held), minlength=n)
                    held = []
            if held:
                degrees += np.bincount(np.concatenate(held), minlength=n)
            self._degree_cache = _typed_array("q", degrees), int(degrees.sum()) // 2
        return self._degree_cache

    # ------------------------------------------------------------------
    # weighting
    # ------------------------------------------------------------------
    def _factors(self, scheme: str) -> List[float]:
        """Per-node discount factors of ECBS/EJS, with :func:`math.log10`.

        ``log10(total / own + 1)`` with ``total`` the number of blocks (ECBS) or
        of graph edges (EJS) and ``own`` the node's blocks or degree (at least
        1), computed with the scalar ``math`` function (not ``np.log10``) so
        that the values are the same on every platform.
        """
        cached = self._factor_cache.get(scheme)
        if cached is not None:
            return cached
        ent_ptr = self._ent_ptr
        log10 = math.log10
        if scheme == "ECBS":
            total_blocks = max(1, self.num_blocks)
            factors = [
                log10(total_blocks / max(1, ent_ptr[o + 1] - ent_ptr[o]) + 1.0)
                for o in range(self.num_entities)
            ]
        else:  # EJS
            degrees, num_edges = self._degrees()
            total_edges = max(1, num_edges)
            factors = [
                log10(total_edges / max(1, degrees[o]) + 1.0)
                for o in range(self.num_entities)
            ]
        self._factor_cache[scheme] = factors
        return factors

    def _weigh_vector_factory(self, scheme: str):
        """Return ``weigh(src, dst, counts, arcs) -> float64 array``.

        CBS is the shared block count, ARCS the sum of the shared blocks'
        reciprocal cardinalities, JS ``shared / (blocks(a) + blocks(b) -
        shared)``; ECBS (the count) and EJS (the Jaccard) multiply by the two
        endpoints' discount factors (:meth:`_factors`) in canonical identifier
        order, realised through the precomputed rank column, so an edge weighs
        the same from either endpoint.
        """
        np = _np

        if scheme == "CBS":
            return lambda src, dst, counts, arcs: counts.astype(np.float64)

        if scheme == "ARCS":
            return lambda src, dst, counts, arcs: arcs

        num_blocks = np.diff(self._np_ent_ptr)

        def jaccard(src, dst, counts):
            return counts / (num_blocks[src] + num_blocks[dst] - counts)

        if scheme == "JS":
            return lambda src, dst, counts, arcs: jaccard(src, dst, counts)

        factors = np.asarray(self._factors(scheme))
        ranks = np.asarray(self._ranks())

        def weigh(src, dst, counts, arcs):
            shared = counts if scheme == "ECBS" else jaccard(src, dst, counts)
            swap = ranks[dst] < ranks[src]  # dst is the canonical "first"
            of_src, of_dst = factors[src], factors[dst]
            return shared * np.where(swap, of_dst, of_src) * np.where(swap, of_src, of_dst)

        return weigh

    def _weighted_batches(
        self, scheme: str, lower: bool, start: int, stop: int, top_first: bool = False
    ):
        """:meth:`_neighbourhoods` with the edge weights: ``(src, dst, weights)``."""
        weigh = self._weigh_vector_factory(scheme)
        for src, dst, counts, arcs in self._neighbourhoods(
            start, stop, lower, scheme == "ARCS", top_first
        ):
            yield src, dst, weigh(src, dst, counts, arcs)

    def _node_weights(
        self, scheme: str, lower: bool, start: int, stop: int
    ) -> Iterator[Tuple[int, Sequence[int], Sequence[float]]]:
        """Per node of ``[start, stop)``, its (restricted) neighbourhood and weights.

        Yields ``(i, neighbours, weights)`` with neighbours sorted ascending;
        nodes whose restricted neighbourhood is empty are skipped.  The
        batched kernel's columns are split per node (array slices).  The
        neighbourhoods themselves still span all nodes.
        """
        for src, dst, weights in self._weighted_batches(scheme, lower, start, stop):
            cuts = (_np.flatnonzero(src[1:] != src[:-1]) + 1).tolist()
            for i, lo, hi in zip(src[[0, *cuts]].tolist(), [0, *cuts], [*cuts, len(src)]):
                yield i, dst[lo:hi], weights[lo:hi]

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def retained_columns(
        self,
        weighting: str,
        pruning: str,
        *,
        budget: Optional[int] = None,
        k: Optional[int] = None,
    ) -> Tuple[array, array, array]:
        """The edges ``pruning`` retains under ``weighting``, as flat columns.

        ``(first, second, weight)``: two ``array('q')`` ordinal columns in
        canonical orientation (``identifier(first) < identifier(second)``)
        and the aligned ``array('d')`` of weights.  Rows come in ascending
        ``(lower ordinal, higher ordinal)`` order, CEP's in its selection
        order ``(-weight, first, second)`` by identifier.  ``budget`` (CEP)
        and ``k`` (CNP) override the standard defaults.  Sets the run
        statistics (:attr:`last_num_edges`, :attr:`last_retained`,
        :attr:`last_refined`).
        """
        return self._retained(weighting, pruning, budget, k, self._whole_range)

    def iter_retained(
        self,
        weighting: str,
        pruning: str,
        *,
        budget: Optional[int] = None,
        k: Optional[int] = None,
    ) -> Iterator[WeightedEdge]:
        """:meth:`retained_columns` viewed as lazily built :class:`WeightedEdge` s."""
        return edges_view(
            self._ids, *self.retained_columns(weighting, pruning, budget=budget, k=k)
        )

    def _whole_range(self, step: str, scheme: str, *params) -> list:
        """Run one ranged pruning pass over all nodes -- the sequential ``fan_out``."""
        return [getattr(self, "_" + step)(scheme, 0, self.num_entities, *params)]

    def _retained(self, weighting: str, pruning: str, budget, k, fan_out):
        """The pruning protocols behind :meth:`retained_columns`.

        ``fan_out(step, scheme, *params)`` runs the ranged pass ``_<step>``
        over a contiguous ordered cover of the node range and returns the
        per-range results in range order: :meth:`_whole_range` here, one
        worker task per range in
        :meth:`ParallelEngine.retained_edges
        <repro.mapreduce.parallel.ParallelEngine.retained_edges>`.  What is
        merged below is insensitive to the cover, so every cover gives the
        same columns, row for row.  The :data:`DRIVER_PRUNING_SCHEMES` run
        their one pass (:meth:`_wnp`) here and never call ``fan_out``.
        """
        scheme = weighting.upper()
        if scheme not in INDEX_WEIGHTING_SCHEMES:
            raise KeyError(
                f"unknown weighting scheme {weighting!r}; "
                f"available: {sorted(INDEX_WEIGHTING_SCHEMES)}"
            )
        key = pruning_key(pruning)
        reciprocal = key.startswith("Reciprocal")
        columns = None
        refined = 0
        if key == "WEP":
            stats = fan_out("wep_stats", scheme)
            num_edges = sum(count for count, _partials in stats)
            if num_edges:
                # the ranges' exact-sum expansions concatenate into one stream
                # whose fsum is the exactly rounded sum of all edge weights
                threshold = fsum(x for _count, partials in stats for x in partials) / num_edges
                columns = _concat(fan_out("wep_emit", scheme, threshold))
        elif key == "CEP":
            if budget is None:
                budget = max(1, self.num_assignments // 2)
            elif budget < 0:
                raise ValueError(f"CEP budget must be non-negative, got {budget}")
            shards = fan_out("cep", scheme, budget)
            num_edges = sum(shard[0] for shard in shards)
            # the ranges' own best candidates are a superset of the global
            # selection by (-weight, first, second)
            ranks = self._rank_list()
            rows = heapq.nsmallest(
                budget,
                (
                    (-weight, min(ranks[a], ranks[b]), max(ranks[a], ranks[b]), a, b)
                    for a, b, weight in zip(*_concat([shard[1:] for shard in shards]))
                ),
            )
            columns = _edge_columns((a, b, -negated) for negated, _first, _second, a, b in rows)
        elif key in DRIVER_PRUNING_SCHEMES:
            num_edges, columns, refined = self._wnp(scheme, reciprocal)
        else:
            if k is None:
                # per graph *node*: descriptions of the identifier table that
                # sit in no block must not dilute the average
                k = max(1, int(round(self.num_assignments / max(1, self.num_nodes))) - 1)
            shards = fan_out("cnp", scheme, k)
            num_edges = sum(shard[0] for shard in shards) // 2  # seen from both ends
            # one row per endorsement: an edge needs one endorsing endpoint
            # (two for the reciprocal variant) to survive
            endorsed: Dict[Tuple[int, int], List] = {}
            for a, b, weight in zip(*_concat([shard[1:] for shard in shards])):
                endorsed.setdefault((a, b), [weight, 0])[1] += 1
            needed = 2 if reciprocal else 1
            columns = _edge_columns(
                (a, b, weight)
                for (a, b), (weight, endorsements) in sorted(endorsed.items())
                if endorsements >= needed and weight > 0
            )
        src, dst, weights = columns or _concat([])
        src, dst = _np.asarray(src, dtype=_np.int64), _np.asarray(dst, dtype=_np.int64)
        # canonical orientation by identifier rank, as plain typed arrays
        ranks = _np.asarray(self._ranks())
        swap = ranks[src] > ranks[dst]
        src, dst = (
            _typed_array("q", _np.where(swap, dst, src)),
            _typed_array("q", _np.where(swap, src, dst)),
        )
        weights = _typed_array("d", weights)
        self.last_num_edges = num_edges
        self.last_retained = len(weights)
        self.last_refined = refined
        self._sorted_cache = None  # the engine outlives the run; its sorted copy need not
        return src, dst, weights

    def _rank_list(self) -> Sequence[int]:
        """:meth:`_ranks` as plain Python integers, for scalar tie-break tuples."""
        ranks = self._ranks()
        return ranks.tolist() if hasattr(ranks, "tolist") else ranks

    def _wep_stats(self, scheme: str, start: int, stop: int) -> Tuple[int, List[float]]:
        """WEP threshold pass: edge count and exact weight sum of one range.

        Every edge counts once, from its lower endpoint.  The sum comes as
        partials whose ``fsum`` is exact: ``fsum`` streams over the whole
        node range in O(1) memory and its one rounded result is all the
        caller needs; a proper sub-range has to hand over the unrounded
        expansion.
        """
        batches = (w.tolist() for _s, _d, w in self._weighted_batches(scheme, True, start, stop))
        count = 0

        def stream() -> Iterator[float]:
            nonlocal count
            for weights in batches:
                count += len(weights)
                yield from weights

        whole = start == 0 and stop == self.num_entities
        partials = [fsum(stream())] if whole else _exact_partials(stream())
        return count, partials

    def _wep_emit(self, scheme: str, start: int, stop: int, threshold: float):
        """WEP emission pass: the retained ``(src, dst, weight)`` rows of one range."""
        np = _np
        kept = []
        for src, dst, weights in self._weighted_batches(scheme, True, start, stop):
            # math.isclose(weight, threshold) with its default tolerances
            close = np.abs(weights - threshold) <= 1e-9 * np.maximum(
                np.abs(weights), abs(threshold)
            )
            keep = (weights > threshold) | (close & (weights > 0))
            kept.append((src[keep], dst[keep], weights[keep]))
        return _concat(kept)

    def _wnp(self, scheme: str, reciprocal: bool):
        """WNP in one full-neighbourhood pass: ``(edge count, columns, refined nodes)``.

        The batches are walked top batch first.  A batch holds the whole
        neighbourhood of each of its nodes, so a node's threshold, the mean
        of its incident weights, comes from its own run (``add.reduceat``
        over the run, divided by its length).  Each edge is decided at its
        lower endpoint, where the thresholds of both endpoints are known:
        its own from this batch, the higher one's from this batch or one
        walked before.  Each batch's retained rows come sorted by ``(src,
        dst)``, so reversing the batch parts gives ascending ``(lower,
        higher)`` order without a sort.

        For the float schemes a summed threshold ``t' = fl(s' / d)`` comes
        from a sum ``s'`` rounded in some order, and the exact one is
        ``t = fl(fl(s) / d)``.  The weights are non-negative and a sum of
        ``d`` of them, in any order and grouping, takes ``d - 1`` rounded
        additions, so ``|s' - s| <= (d - 1) u s / (1 - (d - 1) u)`` with
        ``u = 2**-53``; the two divisions and ``fl(s)`` add ``3 u`` more,
        hence ``|t' - t| <= (d + 2) u t'`` to first order (and ``t' = t`` for
        ``d = 1``).  A node with an incident weight within twice that,
        ``(d + 2) * 2**-52 * t'`` (headroom for the second-order terms and
        the margin's own rounding while ``d u`` is far below one), of its
        summed threshold takes ``fsum`` over its run instead, so every
        decision equals one against the exact threshold.  CBS sums integers
        exactly and is never refined.  The third entry counts the refined
        nodes.
        """
        np = _np
        thresholds = np.zeros(self.num_entities)
        parts = []
        rows = refined = 0
        for src, dst, weights in self._weighted_batches(
            scheme, False, 0, self.num_entities, top_first=True
        ):
            rows += len(src)
            heads = np.flatnonzero(np.concatenate(([True], src[1:] != src[:-1])))
            degrees = np.diff(np.append(heads, len(src)))
            summed = np.add.reduceat(weights, heads) / degrees
            of_src = np.repeat(summed, degrees)
            if scheme != "CBS":
                margin = np.repeat((degrees + 2) * 2.0**-52 * summed, degrees)
                near = np.logical_or.reduceat(np.abs(weights - of_src) <= margin, heads)
                near = np.flatnonzero(near & (degrees > 1)).tolist()
                for node in near:
                    lo = heads[node]
                    summed[node] = fsum(weights[lo : lo + degrees[node]].tolist()) / degrees[node]
                if near:
                    refined += len(near)
                    of_src = np.repeat(summed, degrees)
            thresholds[src[heads]] = summed
            keep_first = weights >= of_src
            keep_second = weights >= thresholds[dst]
            keep = (keep_first & keep_second) if reciprocal else (keep_first | keep_second)
            keep &= dst > src  # decided at the lower endpoint
            keep &= weights > 0
            kept = np.flatnonzero(keep)
            parts.append((src[kept], dst[kept], weights[kept]))
        parts.reverse()
        return rows // 2, _concat(parts), refined

    def _cnp(self, scheme: str, start: int, stop: int, k: int):
        """CNP endorsement pass: ``(degree total, src, dst, weight)`` of one range.

        One ``(lower ordinal, higher ordinal, weight)`` row per edge a node
        of the range ranks among its ``k`` best by ``(weight, first,
        second)`` -- identifier *ranks* standing in for the identifier
        strings, an order-equivalent key.
        """
        ranks = self._rank_list()
        endorsed: List[Tuple[int, int, float]] = []
        total = 0
        for i, neighbours, weights in self._node_weights(scheme, False, start, stop):
            degree = len(neighbours)
            total += degree
            if k <= 0:
                continue
            if degree > k:
                # pre-select on weight alone (keeping boundary ties), then let
                # nlargest apply the exact (weight, first, second) tie-break
                keep = weights >= _np.partition(weights, degree - k)[degree - k]
                neighbours, weights = neighbours[keep], weights[keep]
            neighbours, weights = neighbours.tolist(), weights.tolist()
            rank_i = ranks[i]
            incident = [
                (weight, min(rank_i, ranks[j]), max(rank_i, ranks[j]), j)
                for j, weight in zip(neighbours, weights)
            ]
            endorsed.extend(
                (min(i, j), max(i, j), weight)
                for weight, _first, _second, j in heapq.nlargest(k, incident)
            )
        return (total, *_edge_columns(endorsed))

    def _cep(self, scheme: str, start: int, stop: int, budget: int):
        """CEP candidate pass: ``(edge count, src, dst, weight)`` of one range.

        The range's ``budget`` best edges by ``(-weight, first, second)``
        (identifier ranks again).  A bounded buffer compacted with
        ``nsmallest`` keeps memory at O(budget); once full, its worst
        retained weight prunes whole neighbourhoods before any tuple is built.
        """
        ranks = self._rank_list()
        count = 0
        buffer: List[Tuple[float, int, int, int, int]] = []
        cutoff = -math.inf  # once the buffer fills, weights strictly below are pruned
        compact_at = 2 * budget + _CEP_COMPACT_SLACK
        for i, neighbours, weights in self._node_weights(scheme, True, start, stop):
            count += len(neighbours)
            if budget == 0:
                continue
            if cutoff != -math.inf:
                keep = weights >= cutoff
                neighbours, weights = neighbours[keep], weights[keep]
            neighbours, weights = neighbours.tolist(), weights.tolist()
            rank_i = ranks[i]
            for j, weight in zip(neighbours, weights):
                if weight >= cutoff:
                    rank_j = ranks[j]
                    buffer.append((-weight, min(rank_i, rank_j), max(rank_i, rank_j), i, j))
            if len(buffer) >= compact_at:
                buffer = heapq.nsmallest(budget, buffer)
                if len(buffer) == budget:
                    cutoff = -buffer[-1][0]
        buffer = heapq.nsmallest(budget, buffer)
        return (count, *_edge_columns((i, j, -negated) for negated, _f, _s, i, j in buffer))
