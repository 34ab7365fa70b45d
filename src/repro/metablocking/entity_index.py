"""Array-backed entity-index meta-blocking engine.

The legacy :class:`~repro.metablocking.graph.BlockingGraph` materialises one
dictionary entry (a canonical pair tuple plus a list of shared block indices)
per edge of the blocking graph, and the pruning schemes then materialise one
:class:`~repro.metablocking.graph.WeightedEdge` per edge *before* pruning.
Both costs are proportional to the number of graph edges, which for Web-scale
collections dwarfs the number of descriptions.

:class:`EntityIndexEngine` replaces the object graph with the *entity index*
of the input block collection, stored as flat integer arrays in CSR form:

* ``_blk_ptr`` / ``_blk_ents`` -- for every block, the ordinals of its member
  descriptions (``_blk_ents[_blk_ptr[b]:_blk_ptr[b + 1]]``);
* ``_ent_ptr`` / ``_ent_blocks`` -- for every description ordinal, the indices
  of the blocks containing it (the CSR transpose of the above);
* ``_ent_side`` -- parallel to ``_ent_blocks``: which side of a bilateral
  block the description sits on, so clean--clean collections only generate
  cross-source comparisons.

Description identifiers are interned once into an ordinal mapping, so the hot
loops touch nothing but machine integers.  Edge weights (CBS, ECBS, JS, EJS,
ARCS) and all six pruning schemes (WEP, CEP, WNP, CNP and the reciprocal node
variants) are computed in streaming passes over one node's neighbourhood at a
time: the per-node scratch buffers are reset after every node, pruned edges
are never materialised as objects, and retained edges are emitted lazily via a
generator.  Peak transient memory is therefore bounded by the largest node
neighbourhood (plus the retained output itself for the cardinality schemes),
not by the total edge count.

When NumPy is importable the neighbourhood expansion runs vectorised (a CSR
gather followed by ``np.unique``/``np.bincount``); otherwise a pure-Python
fallback iterates the same typed arrays.  Both paths produce bit-identical
weights: per-edge arithmetic uses the same operand order as the graph engine
(canonical identifier order for the ECBS/EJS discount factors, ascending
block order for the ARCS accumulation), and every threshold sum (WEP global
mean, WNP node-local means) goes through :func:`math.fsum`, whose exactly
rounded result is independent of accumulation order.  Pruning uses the same
budgets and tie-breaks as the graph engine, so both engines retain the same
comparison sets; ``tests/test_metablocking_equivalence.py`` locks this in.
"""

from __future__ import annotations

import heapq
import math
from array import array
from math import fsum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.blocking.base import BlockCollection
from repro.datamodel.pairs import identifier_ranks
from repro.metablocking.graph import WeightedEdge

try:  # pragma: no cover - exercised implicitly when numpy is installed
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

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

#: Compact ``heapq.nsmallest`` buffers once they grow past ``2 * budget`` plus
#: this slack, so the CEP candidate buffer stays O(budget).
_CEP_COMPACT_SLACK = 1024


def _int_array(size: int) -> array:
    """A zero-filled signed 64-bit array of ``size`` entries."""
    return array("q", bytes(8 * size))


class EntityIndexEngine:
    """CSR entity index over a block collection with streaming meta-blocking.

    Parameters
    ----------
    blocks:
        The (cleaned) block collection to restructure.  Bilateral blocks are
        handled per block: only cross-side co-occurrences produce edges,
        exactly as in :class:`~repro.metablocking.graph.BlockingGraph`.
    use_numpy:
        Force (``True``) or forbid (``False``) the vectorised neighbourhood
        path; ``None`` (default) uses NumPy whenever it is importable.  Both
        paths produce bit-identical output.
    ids:
        Optional identifier table fixing the ordinal assignment (ordinal
        ``o`` is ``ids[o]``), e.g. the shared pipeline context's, so the
        index speaks the same ordinals as the caller's other columns.
        Descriptions placed in no block then simply have no blocks.  By
        default ordinals are assigned in first-seen block-member order.
    """

    def __init__(
        self,
        blocks: BlockCollection,
        use_numpy: Optional[bool] = None,
        ids: Optional[Sequence[str]] = None,
    ) -> None:
        self.blocks = blocks
        ids = list(ids) if ids is not None else []
        ordinal: Dict[str, int] = {identifier: o for o, identifier in enumerate(ids)}
        blk_ents = array("q")
        blk_ptr = array("q", [0])
        blk_split = array("q")  # number of left members, or -1 for unilateral
        recip = array("d")  # 1 / block cardinality, for ARCS

        for block in blocks:
            blk_split.append(len(block.left_members) if block.is_bilateral else -1)
            if block.is_bilateral:
                # the graph engine raises (via canonical_pair) on the self-pair
                # such a malformed block generates; fail identically, and early
                right = set(block.right_members)
                for member in block.left_members:
                    if member in right:
                        # same entity the graph engine's left x right iteration
                        # trips over first, so both engines report identically
                        raise ValueError(
                            f"a comparison requires two distinct descriptions, got {member!r} twice"
                        )
            for member in block.members:
                o = ordinal.get(member)
                if o is None:
                    o = len(ids)
                    ordinal[member] = o
                    ids.append(member)
                blk_ents.append(o)
            blk_ptr.append(len(blk_ents))
            cardinality = block.num_comparisons()
            recip.append(1.0 / cardinality if cardinality > 0 else 0.0)

        self._ids = ids
        self._ordinal = ordinal
        self._blk_ents = blk_ents
        self._blk_ptr = blk_ptr
        self._blk_split = blk_split
        self._recip = recip
        self.num_entities = len(ids)
        self.num_blocks = len(blocks)
        #: total number of block assignments (sum of block sizes)
        self.num_assignments = len(blk_ents)

        # transpose: entity -> (block, side) in ascending block order
        counts = _int_array(self.num_entities)
        for o in blk_ents:
            counts[o] += 1
        ent_ptr = _int_array(self.num_entities + 1)
        for i in range(self.num_entities):
            ent_ptr[i + 1] = ent_ptr[i] + counts[i]
        fill = list(ent_ptr[: self.num_entities])
        ent_blocks = _int_array(self.num_assignments)
        ent_side = array("b", bytes(self.num_assignments))
        for b in range(self.num_blocks):
            start, end, split = blk_ptr[b], blk_ptr[b + 1], blk_split[b]
            for pos in range(start, end):
                o = blk_ents[pos]
                p = fill[o]
                ent_blocks[p] = b
                ent_side[p] = 1 if 0 <= split <= pos - start else 0
                fill[o] = p + 1
        self._ent_ptr = ent_ptr
        self._ent_blocks = ent_blocks
        self._ent_side = ent_side

        self._use_numpy = (_np is not None) if use_numpy is None else (use_numpy and _np is not None)
        if self._use_numpy:
            self._np_blk_ents = _np.frombuffer(blk_ents, dtype=_np.int64) if blk_ents else _np.zeros(0, _np.int64)
            self._np_blk_ptr = _np.frombuffer(blk_ptr, dtype=_np.int64)
            self._np_blk_split = (
                _np.frombuffer(blk_split, dtype=_np.int64) if blk_split else _np.zeros(0, _np.int64)
            )
            self._np_recip = _np.frombuffer(recip, dtype=_np.float64) if recip else _np.zeros(0)
            self._np_ent_ptr = _np.frombuffer(ent_ptr, dtype=_np.int64)
            self._np_ent_blocks = (
                _np.frombuffer(ent_blocks, dtype=_np.int64) if ent_blocks else _np.zeros(0, _np.int64)
            )
            self._np_ent_side = (
                _np.frombuffer(ent_side, dtype=_np.int8) if ent_side else _np.zeros(0, _np.int8)
            )

        self._degree_cache: Optional[Tuple[array, int]] = None
        self._factor_cache: Dict[str, Sequence[float]] = {}
        self._rank_cache: Optional[Sequence[int]] = None

        #: optional override of the node-weight stream: a callable
        #: ``(scheme, lower) -> iterator of (i, neighbours, weights)`` that
        #: replaces the local :meth:`_node_weights` pass over the full node
        #: range.  The multi-process engine installs one that fans the pass
        #: out to workers over shared-memory views of this index; the pruning
        #: passes are oblivious to where the per-node tuples come from.
        self.node_weights_source = None

        #: statistics of the last fully-consumed run
        self.last_num_edges: Optional[int] = None
        self.last_retained: Optional[int] = None

    @classmethod
    def from_arrays(
        cls,
        columns: Dict[str, Sequence],
        use_numpy: bool,
        factors: Optional[Dict[str, Sequence[float]]] = None,
    ) -> "EntityIndexEngine":
        """Reconstruct a weighting-only replica from exported flat columns.

        Used by the parallel workers: the driver ships the CSR arrays (plus
        the identifier-rank column and any precomputed ECBS/EJS factor
        column) through shared memory, and the worker rebuilds an engine that
        can run ranged :meth:`_node_weights` passes over zero-copy views --
        no identifier strings, no block objects.  Only the weighting paths
        are populated; pruning-side methods (which need the identifier
        table) must not be called on a replica.
        """
        self = cls.__new__(cls)
        self.blocks = None
        self._ids = None
        self._ordinal = None
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
        self._use_numpy = use_numpy and _np is not None
        if self._use_numpy:
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
        self._factor_cache = dict(factors) if factors else {}
        self._rank_cache = columns["ranks"]
        self.node_weights_source = None
        self.last_num_edges = None
        self.last_retained = None
        return self

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def identifier(self, ordinal: int) -> str:
        return self._ids[ordinal]

    def ordinal(self, identifier: str) -> Optional[int]:
        return self._ordinal.get(identifier)

    def node_blocks_count(self, identifier: str) -> int:
        o = self._ordinal.get(identifier)
        if o is None:
            return 0
        return self._ent_ptr[o + 1] - self._ent_ptr[o]

    def count_edges(self) -> int:
        """Number of distinct co-occurring pairs (blocking-graph edges)."""
        return self._degrees()[1]

    # ------------------------------------------------------------------
    # neighbourhood expansion
    # ------------------------------------------------------------------
    def _scan_node(
        self,
        i: int,
        cbs: List[int],
        arcs: Optional[List[float]],
        lower: bool,
    ) -> List[int]:
        """Accumulate node ``i``'s neighbourhood into the scratch buffers.

        Returns the sorted list of touched neighbour ordinals; ``cbs[j]`` then
        holds the number of shared blocks and ``arcs[j]`` (when requested) the
        ARCS partial sum, accumulated in ascending block order -- the same
        order the graph engine uses, so float results are bit-identical.
        With ``lower`` the scan is restricted to neighbours ``j > i`` so that
        every undirected edge is visited exactly once across all nodes.  The
        caller must reset the touched buffer slots before the next node.
        """
        blk_ents = self._blk_ents
        blk_ptr = self._blk_ptr
        blk_split = self._blk_split
        touched: List[int] = []
        append = touched.append
        for pos in range(self._ent_ptr[i], self._ent_ptr[i + 1]):
            b = self._ent_blocks[pos]
            start = blk_ptr[b]
            split = blk_split[b]
            if split < 0:
                lo, hi = start, blk_ptr[b + 1]
            elif self._ent_side[pos]:
                lo, hi = start, start + split  # i on the right: scan the left side
            else:
                lo, hi = start + split, blk_ptr[b + 1]  # i on the left: scan the right
            if arcs is None:
                for j in blk_ents[lo:hi]:
                    if j == i or (lower and j < i):
                        continue
                    if not cbs[j]:
                        append(j)
                    cbs[j] += 1
            else:
                r = self._recip[b]
                for j in blk_ents[lo:hi]:
                    if j == i or (lower and j < i):
                        continue
                    if not cbs[j]:
                        append(j)
                    cbs[j] += 1
                    arcs[j] += r
        touched.sort()
        return touched

    def _gather_node(self, i: int, lower: bool, want_arcs: bool):
        """Vectorised neighbourhood of node ``i``: ``(neighbours, counts, arcs)``.

        ``neighbours`` is sorted ascending; ``arcs`` is ``None`` unless
        requested.  ``np.bincount`` adds the per-block reciprocal weights in
        input (= ascending block) order, matching the scalar accumulation.
        """
        np = _np
        p0, p1 = self._ent_ptr[i], self._ent_ptr[i + 1]
        empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0) if want_arcs else None)
        if p0 == p1:
            return empty
        bs = self._np_ent_blocks[p0:p1]
        side = self._np_ent_side[p0:p1]
        split = self._np_blk_split[bs]
        start = self._np_blk_ptr[bs]
        end = self._np_blk_ptr[bs + 1]
        bilateral = split >= 0
        lo = np.where(bilateral & (side == 0), start + split, start)
        hi = np.where(bilateral & (side == 1), start + split, end)
        lengths = hi - lo
        total = int(lengths.sum())
        if total == 0:
            return empty
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        flat = np.repeat(lo - offsets, lengths) + np.arange(total)
        cat = self._np_blk_ents[flat]
        mask = cat > i if lower else cat != i
        cat = cat[mask]
        if cat.size == 0:
            return empty
        if want_arcs:
            weights = np.repeat(self._np_recip[bs], lengths)[mask]
            neighbours, inverse, counts = np.unique(cat, return_inverse=True, return_counts=True)
            arcs = np.bincount(inverse, weights=weights, minlength=len(neighbours))
            return neighbours, counts, arcs
        neighbours, counts = np.unique(cat, return_counts=True)
        return neighbours, counts, None

    def co_blocked(self, ordinals: Sequence[int]) -> List[int]:
        """Every other description sharing a block with any of ``ordinals``.

        The neighbourhood the update/iterate phase re-matches a merge of
        ``ordinals`` against: the distinct members of all their blocks --
        *whole* blocks, so both sides of a bilateral block -- minus
        ``ordinals`` themselves, in **identifier order** (ascending rank),
        the order ``sorted()`` gives the identifier strings.
        """
        ranks = self._ranks()
        if self._use_numpy:
            np = _np
            blocks = np.concatenate(
                [self._np_ent_blocks[self._ent_ptr[o] : self._ent_ptr[o + 1]] for o in ordinals]
            )
            start = self._np_blk_ptr[blocks]
            lengths = self._np_blk_ptr[blocks + 1] - start
            offsets = np.cumsum(lengths) - lengths
            flat = np.repeat(start - offsets, lengths) + np.arange(int(lengths.sum()))
            # raw token blocks are large and overlap heavily: marking members
            # in an entity-sized mask is cheaper than sorting the duplicates out
            mask = np.zeros(self.num_entities, dtype=bool)
            mask[self._np_blk_ents[flat]] = True
            mask[list(ordinals)] = False
            members = np.flatnonzero(mask)
            return members[np.argsort(ranks[members])].tolist()
        members = set()
        for o in ordinals:
            for pos in range(self._ent_ptr[o], self._ent_ptr[o + 1]):
                b = self._ent_blocks[pos]
                members.update(self._blk_ents[self._blk_ptr[b] : self._blk_ptr[b + 1]])
        members.difference_update(ordinals)
        return sorted(members, key=ranks.__getitem__)

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
        """Per-node distinct-neighbour counts and the total edge count."""
        if self._degree_cache is not None:
            return self._degree_cache
        degrees = _int_array(self.num_entities)
        num_edges = 0
        if self._use_numpy:
            np_degrees = _np.zeros(self.num_entities, dtype=_np.int64)
            for i in range(self.num_entities):
                neighbours, _counts, _arcs = self._gather_node(i, lower=True, want_arcs=False)
                np_degrees[i] += len(neighbours)
                _np.add.at(np_degrees, neighbours, 1)
                num_edges += len(neighbours)
            degrees = array("q", np_degrees.tobytes())
        else:
            cbs = [0] * self.num_entities
            for i in range(self.num_entities):
                touched = self._scan_node(i, cbs, None, lower=True)
                degrees[i] += len(touched)
                num_edges += len(touched)
                for j in touched:
                    degrees[j] += 1
                    cbs[j] = 0
        self._degree_cache = (degrees, num_edges)
        return self._degree_cache

    def _partial_degrees(self, start: int, stop: int) -> Tuple[array, int]:
        """Degree contributions of the nodes in ``[start, stop)``.

        One ranged slice of the :meth:`_degrees` pass: a full-length degree
        column holding both endpoints' counts for every edge whose lower
        endpoint lies in the range, plus the number of those edges.  Summing
        the partial columns (and edge counts) of a disjoint cover of the node
        range reproduces :meth:`_degrees` exactly -- integer additions
        commute -- which is how the parallel engine computes the EJS degree
        column without ever running the full pass in one process.
        """
        num_edges = 0
        if self._use_numpy:
            np_degrees = _np.zeros(self.num_entities, dtype=_np.int64)
            for i in range(start, stop):
                neighbours, _counts, _arcs = self._gather_node(i, lower=True, want_arcs=False)
                np_degrees[i] += len(neighbours)
                _np.add.at(np_degrees, neighbours, 1)
                num_edges += len(neighbours)
            return array("q", np_degrees.tobytes()), num_edges
        degrees = _int_array(self.num_entities)
        cbs = [0] * self.num_entities
        for i in range(start, stop):
            touched = self._scan_node(i, cbs, None, lower=True)
            degrees[i] += len(touched)
            num_edges += len(touched)
            for j in touched:
                degrees[j] += 1
                cbs[j] = 0
        return degrees, num_edges

    # ------------------------------------------------------------------
    # weighting
    # ------------------------------------------------------------------
    def _factors(self, scheme: str) -> List[float]:
        """Per-node discount factors of ECBS/EJS, with :func:`math.log10`.

        Computed with the scalar ``math`` function (not ``np.log10``) so that
        the values are bit-identical to the graph engine's on every platform.
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

    def _weigh_scalar_factory(self, scheme: str):
        """Return ``weigh(i, j, shared, arcs) -> float`` for ``scheme``.

        The arithmetic mirrors :mod:`repro.metablocking.weighting` exactly,
        including operand order (the graph engine multiplies the per-node
        discount factors in canonical identifier order, here realised through
        the precomputed rank column).
        """
        ent_ptr = self._ent_ptr

        if scheme == "CBS":
            return lambda i, j, shared, arcs: float(shared)

        if scheme == "ARCS":
            return lambda i, j, shared, arcs: arcs

        if scheme in ("ECBS", "EJS"):
            factor = self._factors(scheme)
            ranks = self._ranks()
            if scheme == "ECBS":

                def weigh(i: int, j: int, shared: int, arcs: float) -> float:
                    if ranks[i] > ranks[j]:
                        i, j = j, i
                    return shared * factor[i] * factor[j]

            else:

                def weigh(i: int, j: int, shared: int, arcs: float) -> float:
                    union = (
                        (ent_ptr[i + 1] - ent_ptr[i])
                        + (ent_ptr[j + 1] - ent_ptr[j])
                        - shared
                    )
                    jaccard = shared / union if union else 0.0
                    if ranks[i] > ranks[j]:
                        i, j = j, i
                    return jaccard * factor[i] * factor[j]

            return weigh

        if scheme == "JS":

            def weigh(i: int, j: int, shared: int, arcs: float) -> float:
                union = (
                    (ent_ptr[i + 1] - ent_ptr[i])
                    + (ent_ptr[j + 1] - ent_ptr[j])
                    - shared
                )
                return shared / union if union else 0.0

            return weigh

        raise KeyError(
            f"unknown weighting scheme {scheme!r}; available: {sorted(INDEX_WEIGHTING_SCHEMES)}"
        )

    def _weigh_vector_factory(self, scheme: str):
        """Return ``weigh(i, neighbours, counts, arcs) -> float64 array``.

        Elementwise operations replicate the scalar operand order, so the
        vectorised weights are bit-identical to the scalar path's.
        """
        np = _np

        if scheme == "CBS":
            return lambda i, neighbours, counts, arcs: counts.astype(np.float64)

        if scheme == "ARCS":
            return lambda i, neighbours, counts, arcs: arcs

        ent_ptr = self._np_ent_ptr
        if scheme == "JS":

            def weigh(i, neighbours, counts, arcs):
                nb_i = int(ent_ptr[i + 1] - ent_ptr[i])
                union = nb_i + (ent_ptr[neighbours + 1] - ent_ptr[neighbours]) - counts
                return counts / union

            return weigh

        factors = np.asarray(self._factors(scheme))
        ranks = np.asarray(self._ranks())

        if scheme == "ECBS":

            def weigh(i, neighbours, counts, arcs):
                swap = ranks[neighbours] < ranks[i]  # neighbour is the canonical "first"
                other = factors[neighbours]
                first = np.where(swap, other, factors[i])
                second = np.where(swap, factors[i], other)
                return counts * first * second

            return weigh

        # EJS
        def weigh(i, neighbours, counts, arcs):
            nb_i = int(ent_ptr[i + 1] - ent_ptr[i])
            union = nb_i + (ent_ptr[neighbours + 1] - ent_ptr[neighbours]) - counts
            jaccard = counts / union
            swap = ranks[neighbours] < ranks[i]
            other = factors[neighbours]
            first = np.where(swap, other, factors[i])
            second = np.where(swap, factors[i], other)
            return jaccard * first * second

        return weigh

    def _node_weights(
        self, scheme: str, lower: bool, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Tuple[int, Sequence[int], Sequence[float]]]:
        """Per node, its (restricted) neighbourhood and the edge weights.

        Yields ``(i, neighbours, weights)`` with neighbours sorted ascending;
        nodes whose restricted neighbourhood is empty are skipped.  NumPy
        path yields arrays, the fallback yields lists -- weights are
        bit-identical either way.

        ``start``/``stop`` restrict the pass to a node-ordinal range (the
        neighbourhoods themselves still span all nodes) -- the unit of work
        of one parallel worker.  A full-range pass is delegated to
        :attr:`node_weights_source` when one is installed, so the pruning
        passes transparently consume worker-computed streams.
        """
        if self.node_weights_source is not None and start == 0 and stop is None:
            yield from self.node_weights_source(scheme, lower)
            return
        if stop is None:
            stop = self.num_entities
        want_arcs = scheme == "ARCS"
        if self._use_numpy:
            weigh = self._weigh_vector_factory(scheme)
            for i in range(start, stop):
                neighbours, counts, arcs = self._gather_node(i, lower, want_arcs)
                if len(neighbours) == 0:
                    continue
                yield i, neighbours, weigh(i, neighbours, counts, arcs)
        else:
            weigh = self._weigh_scalar_factory(scheme)
            cbs = [0] * self.num_entities
            arcs = [0.0] * self.num_entities if want_arcs else None
            for i in range(start, stop):
                touched = self._scan_node(i, cbs, arcs, lower)
                if not touched:
                    continue
                if want_arcs:
                    weights = [weigh(i, j, cbs[j], arcs[j]) for j in touched]
                    for j in touched:
                        cbs[j] = 0
                        arcs[j] = 0.0
                else:
                    weights = [weigh(i, j, cbs[j], 0.0) for j in touched]
                    for j in touched:
                        cbs[j] = 0
                yield i, touched, weights

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def iter_retained(
        self,
        weighting: str,
        pruning: str,
        *,
        budget: Optional[int] = None,
        k: Optional[int] = None,
    ) -> Iterator[WeightedEdge]:
        """Lazily yield the edges retained by ``pruning`` under ``weighting``.

        ``budget`` (CEP) and ``k`` (CNP) override the standard defaults.  The
        run statistics (:attr:`last_num_edges`, :attr:`last_retained`) are
        available once the generator is exhausted.
        """
        scheme = weighting.upper()
        if scheme not in INDEX_WEIGHTING_SCHEMES:
            raise KeyError(
                f"unknown weighting scheme {weighting!r}; "
                f"available: {sorted(INDEX_WEIGHTING_SCHEMES)}"
            )
        key = _PRUNING_ALIASES.get(pruning.upper().replace("_", ""))
        if key is None:
            raise KeyError(
                f"unknown pruning scheme {pruning!r}; "
                f"available: {sorted(INDEX_PRUNING_SCHEMES)}"
            )
        if key == "WEP":
            return self._retain_wep(scheme)
        if key == "CEP":
            if budget is not None and budget < 0:
                raise ValueError(f"CEP budget must be non-negative, got {budget}")
            return self._retain_cep(scheme, budget)
        if key in ("WNP", "ReciprocalWNP"):
            return self._retain_wnp(scheme, reciprocal=key == "ReciprocalWNP")
        return self._retain_cnp(scheme, k, reciprocal=key == "ReciprocalCNP")

    def _edge(self, i: int, j: int, weight: float) -> WeightedEdge:
        first, second = self._ids[i], self._ids[j]
        if first > second:
            first, second = second, first
        return WeightedEdge(first, second, weight)

    def _finish(self, num_edges: int, retained: int) -> None:
        self.last_num_edges = num_edges
        self.last_retained = retained

    def _retain_wep(self, scheme: str) -> Iterator[WeightedEdge]:
        count = 0

        def edge_weights() -> Iterator[float]:
            nonlocal count
            for _i, neighbours, weights in self._node_weights(scheme, lower=True):
                count += len(neighbours)
                yield from weights.tolist() if self._use_numpy else weights

        # fsum streams over the generator: exactly rounded global mean with
        # O(1) extra memory, bit-identical to the graph engine's threshold
        total = fsum(edge_weights())
        if count == 0:
            self._finish(0, 0)
            return
        threshold = total / count
        retained = 0
        if self._use_numpy:
            np = _np
            for i, neighbours, weights in self._node_weights(scheme, lower=True):
                close = np.abs(weights - threshold) <= 1e-9 * np.maximum(
                    np.abs(weights), abs(threshold)
                )
                keep = (weights > threshold) | (close & (weights > 0))
                for j, weight in zip(neighbours[keep].tolist(), weights[keep].tolist()):
                    retained += 1
                    yield self._edge(i, j, weight)
        else:
            for i, neighbours, weights in self._node_weights(scheme, lower=True):
                for j, weight in zip(neighbours, weights):
                    if weight > threshold or (math.isclose(weight, threshold) and weight > 0):
                        retained += 1
                        yield self._edge(i, j, weight)
        self._finish(count, retained)

    def _retain_cep(self, scheme: str, budget: Optional[int]) -> Iterator[WeightedEdge]:
        if budget is None:
            budget = max(1, self.num_assignments // 2)
        ids = self._ids
        count = 0
        # Candidates are ranked by (-weight, first, second), the graph
        # engine's sort key.  A bounded buffer compacted with nsmallest keeps
        # memory at O(budget); once full, its worst retained weight prunes
        # whole chunks before any tuple is built.
        buffer: List[Tuple[float, str, str]] = []
        cutoff = -math.inf  # once the buffer fills, weights strictly below are pruned
        compact_at = 2 * budget + _CEP_COMPACT_SLACK

        def compact() -> None:
            nonlocal buffer, cutoff
            buffer = heapq.nsmallest(budget, buffer)
            if len(buffer) == budget and budget > 0:
                cutoff = -buffer[-1][0]

        for i, neighbours, weights in self._node_weights(scheme, lower=True):
            count += len(neighbours)
            if budget == 0:
                continue
            if self._use_numpy and cutoff != -math.inf:
                keep = weights >= cutoff
                neighbours = neighbours[keep]
                weights = weights[keep]
            id_i = ids[i]
            for j, weight in zip(
                neighbours.tolist() if self._use_numpy else neighbours,
                weights.tolist() if self._use_numpy else weights,
            ):
                if weight < cutoff:
                    continue
                id_j = ids[j]
                if id_i < id_j:
                    buffer.append((-weight, id_i, id_j))
                else:
                    buffer.append((-weight, id_j, id_i))
            if len(buffer) >= compact_at:
                compact()
        compact()
        for neg_weight, first, second in buffer:
            yield WeightedEdge(first, second, -neg_weight)
        self._finish(count, len(buffer))

    def _retain_wnp(self, scheme: str, reciprocal: bool) -> Iterator[WeightedEdge]:
        sums = [0.0] * self.num_entities
        counts = [0] * self.num_entities
        total = 0
        for i, neighbours, weights in self._node_weights(scheme, lower=False):
            counts[i] = len(neighbours)
            total += len(neighbours)
            sums[i] = fsum(weights)
        num_edges = total // 2  # every edge was seen from both endpoints
        if num_edges == 0:
            self._finish(0, 0)
            return
        thresholds = [
            sums[o] / counts[o] if counts[o] else 0.0 for o in range(self.num_entities)
        ]
        retained = 0
        if self._use_numpy:
            np = _np
            np_thresholds = np.asarray(thresholds)
            for i, neighbours, weights in self._node_weights(scheme, lower=True):
                keep_first = weights >= thresholds[i]
                keep_second = weights >= np_thresholds[neighbours]
                keep = (keep_first & keep_second) if reciprocal else (keep_first | keep_second)
                keep &= weights > 0
                for j, weight in zip(neighbours[keep].tolist(), weights[keep].tolist()):
                    retained += 1
                    yield self._edge(i, j, weight)
        else:
            for i, neighbours, weights in self._node_weights(scheme, lower=True):
                threshold_i = thresholds[i]
                for j, weight in zip(neighbours, weights):
                    keep_first = weight >= threshold_i
                    keep_second = weight >= thresholds[j]
                    keep = (
                        (keep_first and keep_second)
                        if reciprocal
                        else (keep_first or keep_second)
                    )
                    if keep and weight > 0:
                        retained += 1
                        yield self._edge(i, j, weight)
        self._finish(num_edges, retained)

    def _retain_cnp(
        self, scheme: str, k: Optional[int], reciprocal: bool
    ) -> Iterator[WeightedEdge]:
        if k is None:
            nodes = max(1, self.num_entities)
            k = max(1, int(round(self.num_assignments / nodes)) - 1)
        ids = self._ids
        # endorsement count per retained candidate pair; an edge needs one
        # endorsing endpoint (two for the reciprocal variant) to survive
        endorsed: Dict[Tuple[int, int], List] = {}
        total = 0
        for i, neighbours, weights in self._node_weights(scheme, lower=False):
            degree = len(neighbours)
            total += degree
            if k <= 0:
                continue
            if self._use_numpy and degree > k:
                # pre-select on weight alone (keeping boundary ties), then let
                # nlargest apply the exact (weight, first, second) tie-break
                kth = _np.partition(weights, degree - k)[degree - k]
                keep = weights >= kth
                candidate_pairs = zip(neighbours[keep].tolist(), weights[keep].tolist())
            elif self._use_numpy:
                candidate_pairs = zip(neighbours.tolist(), weights.tolist())
            else:
                candidate_pairs = zip(neighbours, weights)
            id_i = ids[i]
            incident = []
            for j, weight in candidate_pairs:
                id_j = ids[j]
                if id_i < id_j:
                    incident.append((weight, id_i, id_j, i, j))
                else:
                    incident.append((weight, id_j, id_i, j, i))
            for weight, _first, _second, a, b in heapq.nlargest(k, incident):
                pair = (a, b) if a < b else (b, a)
                entry = endorsed.get(pair)
                if entry is None:
                    endorsed[pair] = [weight, 1]
                else:
                    entry[1] += 1
        num_edges = total // 2  # every edge was seen from both endpoints
        needed = 2 if reciprocal else 1
        retained = 0
        for (a, b), (weight, endorsements) in endorsed.items():
            if endorsements >= needed and weight > 0:
                retained += 1
                yield self._edge(a, b, weight)
        self._finish(num_edges, retained)
