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
  int64 keys ``(2 * block + side) * N + member`` and the place in it of every
  entity-side assignment, gathered from.

The block-side columns are the blocking engine's own
:class:`~repro.blocking.columns.BlockColumns`
(:meth:`EntityIndexEngine.from_columns`; a collection over another table is
remapped by :meth:`BlockColumns.from_collection
<repro.blocking.columns.BlockColumns.from_collection>`) and everything
downstream stays in ordinal space: edge weights (CBS, ECBS, JS,
EJS, ARCS) and all six pruning schemes (WEP, CEP, WNP, CNP and the reciprocal
node variants) produce flat ``(first, second, weight)`` ordinal columns
(:meth:`EntityIndexEngine.retained_columns`); identifier strings and
:class:`WeightedEdge` objects exist only in the lazy
:meth:`~EntityIndexEngine.iter_retained` view over those columns.  Every
scheme runs in the calling process over the whole graph: WEP a threshold
pass and an emission pass, CEP and CNP one pass each, WNP and ReciprocalWNP
one pass, a lower-half one for CBS (:meth:`EntityIndexEngine._cbs_wnp`), a
full one otherwise.

The neighbourhoods of a whole *batch* of nodes are expanded at once
(:meth:`EntityIndexEngine._neighbourhoods`: one CSR gather, one in-place
sort of int32 ``(node - first node) * N + neighbour`` keys, one
``np.bincount`` for ARCS), the batches being cut so that each gathers about
:data:`_BATCH_PAIRS` co-occurrence pairs; a lower-half pass (WEP, CEP, CBS
WNP, the EJS degrees) gathers only the members above each node, a full pass
(float-scheme WNP, CNP) every neighbour of each node.  Pruned edges are
never all resident.  Peak transient memory is one node batch, plus what
cutting the batches needs -- two span columns (and, briefly, half a dozen
more) as long as the block assignments, the order of the index itself --
plus the sorted copy (20 bytes per block assignment), plus the retained
columns, the ndarrays handed out (plus the O(budget) candidate buffer of CEP,
the O(k * nodes) endorsements of CNP, the threshold column of WNP, one float
per node, and CBS WNP's rows sharing two blocks or more).

The weights do not depend on how the work is cut: per-edge arithmetic has a
fixed operand order (canonical identifier order for the ECBS/EJS discount
factors, ascending block order for the ARCS accumulation), and every
threshold (WEP global mean, WNP node-local means) is decided as the exactly
rounded :func:`math.fsum` of its weights, which is independent of
accumulation order and of how the node batches were cut -- float-scheme WNP
sums each node's run of its one full pass with ``add.reduceat`` and takes
the run's ``fsum`` instead wherever an incident weight lies inside the
rounding margin of that sum (the bound is argued in
:meth:`EntityIndexEngine._wnp`), CBS WNP divides exact integer sums.  Ties
are broken by the identifier pair.  ``tests/fixtures/metablocking/seeded.json``
(``tests/test_metablocking_equivalence.py``) freezes what every scheme pair
retains, weights bit for bit, as the object reference implementation
computed it, and ``tests/fixtures/metablocking/`` holds the builtin
datasets' rows.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from math import fsum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.blocking.base import BlockCollection
from repro.blocking.columns import BlockColumns
from repro.blocking.columns import flat_slices as _slices
from repro.datamodel.pairs import (
    Comparison,
    canonical_orientation,
    identifier_ranks,
    stable_argsort,
)
from repro.metablocking.pruning import PRUNING_SCHEMES
from repro.metablocking.weighting import WEIGHTING_SCHEMES

import numpy as _np

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

    The parts hold ndarray columns; no part at all gives three empty edge
    columns.
    """
    if not parts:
        parts = [(_np.zeros(0, _np.int64), _np.zeros(0, _np.int64), _np.zeros(0))]
    return tuple(_np.concatenate(columns) for columns in zip(*parts))


def _edge_columns(rows: List[Tuple[int, int, float]]) -> tuple:
    """``(src, dst, weight)`` rows as three ndarray columns."""
    src, dst, weights = zip(*rows) if rows else ((), (), ())
    return _np.array(src, _np.int64), _np.array(dst, _np.int64), _np.array(weights, _np.float64)


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
    rows = zip(first.tolist(), second.tolist(), weights.tolist())
    return (WeightedEdge(ids[f], ids[s], w) for f, s, w in rows)


class EntityIndexEngine:
    """CSR entity index over a block collection with columnar meta-blocking.

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
        the first uncovered member).  By default the index keeps the
        ordinals of the collection's columns (see
        :meth:`BlockColumns.from_collection
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

        The block-side columns are the ndarrays of ``columns`` themselves;
        the entity-side ones are ndarrays too (ent_ptr / ent_blocks int64,
        ent_side int8), one attribute per column.  The entity rows list
        their blocks in ascending block order (one stable argsort of the
        member column).  A description on both sides of a bilateral block
        would compare with itself; it shows as one entity row naming a block
        twice and is refused with a :class:`ValueError`.
        """
        self._ids = columns.ids
        self._ordinal_cache: Optional[Dict[str, int]] = None
        ents = self._blk_ents = columns.members
        ptr = self._blk_ptr = columns.blk_ptr
        split = self._blk_split = columns.split
        self.num_entities = len(columns.ids)
        self.num_blocks = len(columns)
        #: total number of block assignments (sum of block sizes)
        self.num_assignments = len(ents)
        np = _np
        cards = columns.cardinalities()
        self._recip = np.divide(1.0, cards, out=np.zeros(len(cards)), where=cards > 0)
        sizes = np.diff(ptr)
        block_of = np.repeat(np.arange(self.num_blocks), sizes)
        order = stable_argsort(ents, self.num_entities)
        self._ent_blocks = block_of[order]
        degrees = np.bincount(ents, minlength=self.num_entities)
        self._ent_ptr = np.concatenate(([0], np.cumsum(degrees)))
        split_of = split[block_of]
        on_right = np.arange(self.num_assignments) - ptr[block_of] >= split_of
        self._ent_side = ((split_of >= 0) & on_right)[order].astype(np.int8)
        ent_sorted = ents[order]
        twice = (ent_sorted[1:] == ent_sorted[:-1]) & (
            self._ent_blocks[1:] == self._ent_blocks[:-1]
        )
        if twice.any():
            # the first position (block-major) of a member its block lists
            # twice: the entity a left x right iteration meets first
            repeated = int(order[:-1][twice].min())
            raise ValueError(
                "a comparison requires two distinct descriptions, "
                f"got {self._ids[ents[repeated]]!r} twice"
            )

        self._degree_cache: Optional[Tuple[_np.ndarray, int]] = None
        self._sorted_cache = None
        self._factor_cache: Dict[str, Sequence[float]] = {}

        #: statistics of the last run
        self.last_num_edges: Optional[int] = None
        self.last_retained: Optional[int] = None
        #: nodes whose float-scheme WNP threshold the last run refined with ``fsum``
        self.last_refined: Optional[int] = None

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
        return int(self._ent_ptr[o + 1] - self._ent_ptr[o])

    @property
    def num_nodes(self) -> int:
        """Descriptions placed in at least one block -- the blocking graph's nodes.

        Fewer than :attr:`num_entities` when the identifier table holds
        descriptions no block contains.
        """
        return int(_np.count_nonzero(_np.diff(self._ent_ptr)))

    def compared(self, i: int, j: int) -> bool:
        """Whether some block compares ordinals ``i`` and ``j`` (a graph edge).

        They share a unilateral block, or sit on opposite sides of a
        bilateral one.
        """
        ptr, ent_blocks, ent_side = self._ent_ptr, self._ent_blocks, self._ent_side

        def row(o):
            rows = slice(ptr[o], ptr[o + 1])
            return zip(ent_blocks[rows].tolist(), ent_side[rows].tolist())

        side_of = dict(row(j))
        for block, side in row(i):
            other = side_of.get(block)
            if other is not None and (self._blk_split[block] < 0 or side != other):
                return True
        return False

    def count_edges(self) -> int:
        """Number of distinct co-occurring pairs (blocking-graph edges)."""
        return self._degrees()[1]

    # ------------------------------------------------------------------
    # neighbourhood expansion
    # ------------------------------------------------------------------
    def _neighbourhoods(self, lower: bool, want_arcs: bool, top_first: bool = False):
        """Vectorised neighbourhoods of every node, batch by batch.

        Yields ``(src, dst, counts, arcs)`` columns sorted by ``(src, dst)``
        within a batch, the batches in ascending node order (descending with
        ``top_first``):
        one row per distinct neighbour ``dst`` of node ``src`` (``dst > src``
        only with ``lower``, so that every undirected edge is seen exactly
        once across all nodes), the number of blocks the two share, and --
        when requested, else ``None`` -- their ARCS sum; ``src`` and ``dst``
        are int32.  Each block assignment faces a segment of
        :meth:`_sorted_members`; with ``lower``, only the suffix above the node
        is gathered, so nothing is masked away (without, the node itself is
        masked out).  In a unilateral block that suffix starts one past the
        node's own position in the sorted copy; a bilateral block's facing side
        is cut by one ``searchsorted`` of ``(2 * block + facing side) * N +
        node``.  The nodes are cut into
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
        (as long as the block assignments) and two node-length columns.
        """
        np = _np
        bounds = self._ent_ptr  # the nodes' assignment offsets
        blocks = self._ent_blocks
        if blocks.size == 0:
            return
        num_entities = self.num_entities
        segment_keys, members, at = self._sorted_members()
        facing, lo, lengths = self._facing_spans(blocks, self._ent_side)
        if lower:
            above = at + 1  # a unilateral block: past the node
            crossing = np.flatnonzero(self._blk_split[blocks] >= 0)  # bilateral blocks
            probes = facing[crossing] * num_entities + members[at[crossing]]
            above[crossing] = np.searchsorted(segment_keys, probes, side="right")
            lengths -= above - lo
            lo = above
        before = np.concatenate(([0], np.cumsum(lengths)))[bounds]  # pairs gathered before each node
        span = _INT32_MAX // num_entities
        cuts = [0]
        while cuts[-1] < num_entities:
            node = cuts[-1]
            cut = int(np.searchsorted(before, before[node] + _BATCH_PAIRS, side="right")) - 1
            cuts.append(max(node + 1, min(cut, node + span)))
        batches = list(zip(cuts, cuts[1:]))
        for node, cut in reversed(batches) if top_first else batches:
            q0, q1 = int(bounds[node]), int(bounds[cut])
            src = np.repeat(np.arange(cut - node, dtype=np.int32), np.diff(before[node : cut + 1]))
            spans = lengths[q0:q1]
            dst = members[_slices(lo[q0:q1], spans)]
            keys = src * num_entities + dst
            weights = np.repeat(self._recip[blocks[q0:q1]], spans) if want_arcs else None
            if not lower:
                mask = dst != src + node
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
            src += node
            yield src, dst, counts, arcs

    def _sorted_members(self):
        """The member column sorted within each (block, side) segment: ``(keys, members, at)``.

        int32 ``members`` and their ascending int64 keys ``(2 * block + side) *
        N + member``, each segment where it was, and ``at``, the place in it of
        every entity-side assignment (a stable argsort of the members keeps
        each member's blocks ascending, as the entity rows do); built on first
        use and dropped when a pruning run returns (:attr:`BlockColumns.members`
        itself is never reordered).
        """
        if self._sorted_cache is None:
            np = _np
            ptr, split = self._blk_ptr, self._blk_split
            block_of = np.repeat(np.arange(self.num_blocks), np.diff(ptr))
            split_of = split[block_of]
            right = (split_of >= 0) & (np.arange(self.num_assignments) - ptr[block_of] >= split_of)
            keys = (2 * block_of + right) * self.num_entities + self._blk_ents
            keys.sort()
            members = (keys % self.num_entities).astype(np.int32)
            self._sorted_cache = keys, members, stable_argsort(members, self.num_entities)
        return self._sorted_cache

    def _facing_spans(self, blocks, side):
        """Per block assignment ``(block, side)``: the segment it faces and its span.

        ``(segment, start, length)``: the whole block (segment ``2 * block``)
        for a unilateral one, the opposite side of a bilateral one.
        """
        np = _np
        split = self._blk_split[blocks]
        first = self._blk_ptr[blocks]
        bilateral = split >= 0
        faces_right = bilateral & (side == 0)
        lo = np.where(faces_right, first + split, first)
        hi = np.where(bilateral & (side == 1), first + split, self._blk_ptr[blocks + 1])
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
            [self._ent_blocks[self._ent_ptr[o] : self._ent_ptr[o + 1]] for o in ordinals]
        )
        start = self._blk_ptr[blocks]
        flat = _slices(start, self._blk_ptr[blocks + 1] - start)
        # raw token blocks are large and overlap heavily: marking members
        # in an entity-sized mask is cheaper than sorting the duplicates out
        mask = np.zeros(self.num_entities, dtype=bool)
        mask[self._blk_ents[flat]] = True
        mask[list(ordinals)] = False
        members = np.flatnonzero(mask)
        return members[np.argsort(identifier_ranks(self._ids)[members])].tolist()

    def _degrees(self) -> Tuple[_np.ndarray, int]:
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
            for src, dst, _counts, _arcs in self._neighbourhoods(True, False):
                held += (src, dst)
                if sum(map(len, held)) >= n:
                    degrees += np.bincount(np.concatenate(held), minlength=n)
                    held = []
            if held:
                degrees += np.bincount(np.concatenate(held), minlength=n)
            self._degree_cache = degrees, int(degrees.sum()) // 2
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
        log10 = math.log10
        if scheme == "ECBS":
            total = max(1, self.num_blocks)
            own = _np.diff(self._ent_ptr)
        else:  # EJS
            own, num_edges = self._degrees()
            total = max(1, num_edges)
        factors = [log10(total / max(1, count) + 1.0) for count in own.tolist()]
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

        num_blocks = np.diff(self._ent_ptr)

        def jaccard(src, dst, counts):
            return counts / (num_blocks[src] + num_blocks[dst] - counts)

        if scheme == "JS":
            return lambda src, dst, counts, arcs: jaccard(src, dst, counts)

        factors = np.asarray(self._factors(scheme))
        ranks = identifier_ranks(self._ids)

        def weigh(src, dst, counts, arcs):
            shared = counts if scheme == "ECBS" else jaccard(src, dst, counts)
            swap = ranks[dst] < ranks[src]  # dst is the canonical "first"
            of_src, of_dst = factors[src], factors[dst]
            return shared * np.where(swap, of_dst, of_src) * np.where(swap, of_src, of_dst)

        return weigh

    def _weighted_batches(self, scheme: str, lower: bool, top_first: bool = False):
        """:meth:`_neighbourhoods` with the edge weights: ``(src, dst, weights)``."""
        weigh = self._weigh_vector_factory(scheme)
        for src, dst, counts, arcs in self._neighbourhoods(lower, scheme == "ARCS", top_first):
            yield src, dst, weigh(src, dst, counts, arcs)

    def _node_weights(
        self, scheme: str, lower: bool
    ) -> Iterator[Tuple[int, Sequence[int], Sequence[float]]]:
        """Per node, its (restricted) neighbourhood and weights.

        Yields ``(i, neighbours, weights)`` with neighbours sorted ascending;
        nodes whose restricted neighbourhood is empty are skipped.  The
        batched kernel's columns are split per node (array slices).
        """
        for src, dst, weights in self._weighted_batches(scheme, lower):
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

        ``(first, second, weight)``: two int64 ndarray ordinal columns in
        canonical orientation (``identifier(first) < identifier(second)``)
        and the aligned float64 ndarray of weights.  Rows come in ascending
        ``(lower ordinal, higher ordinal)`` order, CEP's in its selection
        order ``(-weight, first, second)`` by identifier.  ``budget`` (CEP)
        and ``k`` (CNP) override the standard defaults.  Sets the run
        statistics (:attr:`last_num_edges`, :attr:`last_retained`,
        :attr:`last_refined`).

        ``weighting`` and ``pruning`` are library names
        (:data:`~repro.metablocking.weighting.WEIGHTING_SCHEMES`,
        :data:`~repro.metablocking.pruning.PRUNING_SCHEMES`); anything else
        is a :class:`KeyError`.  Every pass runs once over the whole graph.
        """
        if weighting not in WEIGHTING_SCHEMES:
            raise KeyError(
                f"unknown weighting scheme {weighting!r}; available: {sorted(WEIGHTING_SCHEMES)}"
            )
        if pruning not in PRUNING_SCHEMES:
            raise KeyError(
                f"unknown pruning scheme {pruning!r}; available: {sorted(PRUNING_SCHEMES)}"
            )
        reciprocal = pruning.startswith("Reciprocal")
        refined = 0
        if pruning == "WEP":
            num_edges, columns = self._wep(weighting)
        elif pruning == "CEP":
            if budget is None:
                budget = max(1, self.num_assignments // 2)
            elif budget < 0:
                raise ValueError(f"CEP budget must be non-negative, got {budget}")
            num_edges, columns = self._cep(weighting, budget)
        elif pruning.endswith("WNP") and weighting == "CBS":
            num_edges, columns = self._cbs_wnp(reciprocal)
        elif pruning.endswith("WNP"):
            num_edges, columns, refined = self._wnp(weighting, reciprocal)
        else:
            if k is None:
                # per graph *node*: descriptions of the identifier table that
                # sit in no block must not dilute the average
                k = max(1, int(round(self.num_assignments / max(1, self.num_nodes))) - 1)
            num_edges, columns = self._cnp(weighting, k, reciprocal)
        src, dst, weights = columns
        src, dst = canonical_orientation(self._ids, src, dst)
        self.last_num_edges = num_edges
        self.last_retained = len(weights)
        self.last_refined = refined
        self._sorted_cache = None  # the engine outlives the run; its sorted copy need not
        return src, dst, weights

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

    def _wep(self, scheme: str):
        """WEP: ``(edge count, columns)`` of the edges at or above the mean weight.

        A threshold pass, then an emission pass, both lower-half (every edge
        once).  The threshold is the exactly rounded ``fsum`` of all edge
        weights, streamed in O(1) memory, over their count.
        """
        np = _np
        count = 0

        def stream() -> Iterator[float]:
            nonlocal count
            for _src, _dst, weights in self._weighted_batches(scheme, True):
                count += len(weights)
                yield from weights.tolist()

        total = fsum(stream())
        if not count:
            return 0, _concat([])
        threshold = total / count
        kept = []
        for src, dst, weights in self._weighted_batches(scheme, True):
            # math.isclose(weight, threshold) with its default tolerances
            close = np.abs(weights - threshold) <= 1e-9 * np.maximum(
                np.abs(weights), abs(threshold)
            )
            keep = (weights > threshold) | (close & (weights > 0))
            kept.append((src[keep], dst[keep], weights[keep]))
        return count, _concat(kept)

    def _wnp(self, scheme: str, reciprocal: bool):
        """WNP in one full-neighbourhood pass: ``(edge count, columns, refined nodes)``.

        For the float schemes (CBS takes :meth:`_cbs_wnp`).  The batches are
        walked top batch first.  A batch holds the whole
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
        decision equals one against the exact threshold.  The third entry
        counts the refined nodes.
        """
        np = _np
        thresholds = np.zeros(self.num_entities)
        parts = []
        rows = refined = 0
        for src, dst, weights in self._weighted_batches(scheme, False, top_first=True):
            rows += len(src)
            heads = np.flatnonzero(np.concatenate(([True], src[1:] != src[:-1])))
            degrees = np.diff(np.append(heads, len(src)))
            summed = np.add.reduceat(weights, heads) / degrees
            of_src = np.repeat(summed, degrees)
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

    def _cbs_wnp(self, reciprocal: bool):
        """CBS WNP in one lower-half pass: ``(edge count, columns)``.

        A node's CBS sum is closed-form: its assignments' facing spans, minus
        itself in a unilateral block.  Its degree is that sum minus its
        excess, ``CBS - 1`` summed over its edges, so the pass keeps only the
        rows sharing two blocks or more; the threshold, sum over degree, is
        the float a sum over the node's run gives.  Weights are at least 1,
        so a one-block edge survives only at a *flat* node (no excess,
        threshold 1): the flat nodes' facing members, each met once, emitted
        at the edge's lower flat endpoint (both endpoints flat if
        reciprocal).  Held: the rows sharing two blocks until the thresholds
        are known.
        """
        np = _np
        n = self.num_entities
        blocks = self._ent_blocks
        _facing, lo, lengths = self._facing_spans(blocks, self._ent_side)
        owners = np.repeat(np.arange(n, dtype=np.int32), np.diff(self._ent_ptr))
        sums = np.bincount(owners, lengths - (self._blk_split[blocks] < 0), minlength=n)
        shared = []
        for src, dst, counts, _arcs in self._neighbourhoods(True, False):
            rows = np.flatnonzero(counts > 1)
            shared.append((src[rows], dst[rows], counts[rows].astype(np.float64)))
        src, dst, weights = _concat(shared)
        del shared
        excess = sum(np.bincount(ends, weights - 1, minlength=n) for ends in (src, dst))
        degrees = sums - excess
        thresholds = np.divide(sums, degrees, out=np.ones(n), where=degrees > 0)
        decided = np.stack((weights >= thresholds[src], weights >= thresholds[dst]))
        keep = decided.all(0) if reciprocal else decided.any(0)
        flat = (excess == 0) & (degrees > 0)
        assigned = np.flatnonzero(flat[owners])
        owner = np.repeat(owners[assigned], lengths[assigned])
        other = self._sorted_members()[1][_slices(lo[assigned], lengths[assigned])]
        # the edge's lower flat endpoint emits it
        emit = (other != owner) & ((other > owner) | ~flat[other])
        if reciprocal:
            emit &= flat[other]
        src = np.concatenate((src[keep], np.minimum(owner, other)[emit]))
        dst = np.concatenate((dst[keep], np.maximum(owner, other)[emit]))
        weights = np.concatenate((weights[keep], np.ones(int(emit.sum()))))
        order = np.argsort(src.astype(np.int64) * n + dst)  # distinct keys: ascending rows
        return int(degrees.sum()) // 2, (src[order], dst[order], weights[order])

    def _cnp(self, scheme: str, k: int, reciprocal: bool):
        """CNP in one full-neighbourhood pass: ``(edge count, columns)``.

        Every node endorses the edges it ranks among its ``k`` best by
        ``(weight, first, second)`` -- identifier *ranks* standing in for the
        identifier strings, an order-equivalent key.  An edge survives with
        one endorsing endpoint (two for the reciprocal variant); rows come
        in ascending ``(lower ordinal, higher ordinal)`` order.
        """
        ranks = identifier_ranks(self._ids).tolist()
        endorsed: Dict[Tuple[int, int], List] = {}
        total = 0
        for i, neighbours, weights in self._node_weights(scheme, False):
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
            for weight, _first, _second, j in heapq.nlargest(k, incident):
                endorsed.setdefault((min(i, j), max(i, j)), [weight, 0])[1] += 1
        needed = 2 if reciprocal else 1
        columns = _edge_columns(
            [
                (a, b, weight)
                for (a, b), (weight, endorsements) in sorted(endorsed.items())
                if endorsements >= needed and weight > 0
            ]
        )
        return total // 2, columns  # every edge is seen from both ends

    def _cep(self, scheme: str, budget: int):
        """CEP in one lower-half pass: ``(edge count, columns)``.

        The ``budget`` best edges by ``(-weight, first, second)`` (identifier
        ranks again), in that order.  A bounded buffer compacted with
        ``nsmallest`` keeps memory at O(budget); once full, its worst
        retained weight prunes whole neighbourhoods before any tuple is built.
        """
        ranks = identifier_ranks(self._ids).tolist()
        count = 0
        buffer: List[Tuple[float, int, int, int, int]] = []
        cutoff = -math.inf  # once the buffer fills, weights strictly below are pruned
        compact_at = 2 * budget + _CEP_COMPACT_SLACK
        for i, neighbours, weights in self._node_weights(scheme, True):
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
        return count, _edge_columns([(i, j, -negated) for negated, _f, _s, i, j in buffer])
