"""End-to-end meta-blocking: block collection in, restructured comparisons out.

:class:`MetaBlocking` wires together a weighting scheme, a pruning scheme and
one of two execution paths, chosen by the schemes' exact types:

* the index path (the ten standard schemes) -- the array-backed
  :class:`~repro.metablocking.entity_index.EntityIndexEngine`, which runs
  batched passes over CSR block-membership arrays, stays in ordinal space
  and hands back the retained edges as flat ``(first, second, weight)``
  columns; pruned edges are never all resident (peak transient memory is
  one node batch, plus span columns of the order of the index itself for
  cutting the batches, plus the retained columns).  With a
  :class:`~repro.mapreduce.parallel.ParallelEngine`, the ranged passes of
  WEP, CEP and CNP fan out to its workers; WNP and ReciprocalWNP walk their
  node batches in one pass on the driver;
* the graph path (any other scheme, subclasses included) -- the legacy
  object :class:`~repro.metablocking.graph.BlockingGraph` pruned by the
  scheme's own ``prune``, kept as the readable reference implementation;
  the equivalence suite calls ``pruning.prune(BlockingGraph(blocks),
  weighting)`` as its oracle.

Both paths retain the same comparisons for every (weighting x pruning)
combination; only the five standard weighting and six standard pruning
schemes have columnar implementations.

The output can be consumed in four forms:

* :meth:`MetaBlocking.weighted_columns` -- the retained edges as
  :class:`~repro.datamodel.pairs.ComparisonColumns`, heaviest first: the
  index engine's own columns, wrapped (what the workflow consumes);
* :meth:`MetaBlocking.iter_retained` -- a lazy view of the same columns as
  :class:`~repro.metablocking.graph.WeightedEdge` objects, for subclasses,
  :meth:`~MetaBlocking.process` and tests;
* :meth:`MetaBlocking.weighted_comparisons` -- the retained edges as weighted
  :class:`~repro.datamodel.pairs.Comparison` objects, heaviest first (the
  natural input of an object progressive scheduler);
* :meth:`MetaBlocking.process` -- a restructured
  :class:`~repro.blocking.base.BlockCollection` with one (two-member) block
  per retained edge (the natural input of a conventional matching phase).
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple, Union

from repro.blocking.base import Block, BlockCollection
from repro.blocking.columns import BlockColumns
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.pairs import Comparison, ComparisonColumns, OrdinalInterner
from repro.metablocking.entity_index import EntityIndexEngine, edges_view
from repro.metablocking.graph import BlockingGraph, WeightedEdge
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningScheme,
    ReciprocalCardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
    get_pruning_scheme,
)
from repro.metablocking.weighting import (
    ARCS,
    CBS,
    ECBS,
    EJS,
    JS,
    WeightingScheme,
    get_weighting_scheme,
)

_INDEX_WEIGHTINGS = {CBS: "CBS", ECBS: "ECBS", JS: "JS", EJS: "EJS", ARCS: "ARCS"}


def _uncovered(identifier: str) -> KeyError:
    return KeyError(
        f"the supplied pipeline context does not cover identifier {identifier!r}; "
        "it was built for a different collection than these blocks"
    )


class MetaBlocking:
    """Meta-blocking pipeline with pluggable weighting and pruning schemes.

    Parameters
    ----------
    weighting:
        A :class:`WeightingScheme` instance or its name (``"CBS"``, ``"ECBS"``,
        ``"JS"``, ``"EJS"``, ``"ARCS"``).
    pruning:
        A :class:`PruningScheme` instance or its name (``"WEP"``, ``"CEP"``,
        ``"WNP"``, ``"CNP"``, ``"ReciprocalWNP"``, ``"ReciprocalCNP"``).
    """

    def __init__(
        self,
        weighting: Union[WeightingScheme, str, None] = None,
        pruning: Union[PruningScheme, str, None] = None,
    ) -> None:
        if weighting is None:
            self.weighting: WeightingScheme = CBS()
        elif isinstance(weighting, str):
            self.weighting = get_weighting_scheme(weighting)
        else:
            self.weighting = weighting
        if pruning is None:
            self.pruning: PruningScheme = WeightedEdgePruning()
        elif isinstance(pruning, str):
            self.pruning = get_pruning_scheme(pruning)
        else:
            self.pruning = pruning
        #: statistics of the last run, reported by benchmarks; populated
        #: identically by both engines (by :meth:`iter_retained` when its
        #: first edge is requested, by :meth:`weighted_columns` on return)
        self.last_input_comparisons = 0
        self.last_graph_edges = 0
        self.last_retained_edges = 0
        #: engine that actually executed the last run ("index", "graph", or
        #: "parallel" when a ParallelEngine ran the index engine's ranged
        #: passes; WNP always runs "index")
        self.last_engine: Optional[str] = None

    @property
    def name(self) -> str:
        return f"metablocking[{self.weighting.name}+{self.pruning.name}]"

    # ------------------------------------------------------------------
    def build_graph(self, blocks: BlockCollection) -> BlockingGraph:
        """Construct the (legacy) blocking graph of ``blocks``."""
        return BlockingGraph(blocks)

    def _index_spec(self) -> Optional[Tuple[str, str, dict]]:
        """(weighting, pruning, kwargs) when the index engine applies, else ``None``.

        Exact type checks keep user-defined subclasses (whose overridden
        behaviour the columnar engine cannot replicate) on the graph engine.
        """
        weighting_name = _INDEX_WEIGHTINGS.get(type(self.weighting))
        if weighting_name is None:
            return None
        pruning = self.pruning
        pruning_type = type(pruning)
        if pruning_type is WeightedEdgePruning:
            return weighting_name, "WEP", {}
        if pruning_type is CardinalityEdgePruning:
            return weighting_name, "CEP", {"budget": pruning.budget}
        if pruning_type is WeightedNodePruning:
            return weighting_name, "WNP", {}
        if pruning_type is ReciprocalWeightedNodePruning:
            return weighting_name, "ReciprocalWNP", {}
        if pruning_type is CardinalityNodePruning:
            return weighting_name, "CNP", {"k": pruning.k}
        if pruning_type is ReciprocalCardinalityNodePruning:
            return weighting_name, "ReciprocalCNP", {"k": pruning.k}
        return None

    # ------------------------------------------------------------------
    def _index_columns(self, blocks: BlockCollection, context, parallel):
        """Run the index engine: ``(ids, first, second, weights)`` columns.

        ``None`` when the configured schemes need the graph engine.  The
        index is built over the context's ordinals when one is given, and a
        context that does not cover the blocks is refused before any pruning
        work.  Sets the last-run statistics.
        """
        spec = self._index_spec()
        if spec is None:
            return None
        weighting_name, pruning_name, kwargs = spec
        # blocks the blocking engine built over this context are columns
        # over its ordinals already: nothing is interned
        columns = BlockColumns.from_collection(blocks, None if context is None else context.ids)
        if context is not None and len(columns.ids) > len(context.ids):
            raise _uncovered(columns.ids[len(context.ids)])
        index = EntityIndexEngine.from_columns(columns)
        columns = None
        if parallel is not None:
            # worker-side per-range selection: only retained edges cross the
            # process boundary; bit-identical to the sequential pass (None
            # for WNP, whose one pass runs here)
            columns = parallel.retained_edges(index, weighting_name, pruning_name, **kwargs)
        self.last_engine = "index" if columns is None else "parallel"
        if columns is None:
            columns = index.retained_columns(weighting_name, pruning_name, **kwargs)
        self.last_graph_edges = index.last_num_edges
        self.last_retained_edges = index.last_retained
        return (index.ids if context is None else context.ids, *columns)

    def _graph_retained(self, blocks: BlockCollection) -> List[WeightedEdge]:
        self.last_engine = "graph"
        graph = self.build_graph(blocks)
        retained = self.pruning.prune(graph, self.weighting)
        self.last_graph_edges = graph.num_edges
        self.last_retained_edges = len(retained)
        return retained

    def iter_retained(
        self, blocks: BlockCollection, parallel=None
    ) -> Iterator[WeightedEdge]:
        """Lazily yield the edges surviving the pruning scheme.

        With the index engine this is a view over the retained columns:
        pruning runs (and the last-run statistics are set) when the first
        edge is requested, the :class:`WeightedEdge` objects are built one at
        a time as the generator is drained.

        ``parallel`` (a :class:`~repro.mapreduce.parallel.ParallelEngine`)
        fans the ranged pruning passes of the index engine (WEP, CEP, CNP)
        out to worker processes over shared-memory views of the CSR index;
        the retained edges are bit-identical either way.  It is ignored on
        the graph engine (custom schemes have no columnar formulation), for
        WNP and ReciprocalWNP (one sequential pass, run here) and for empty
        collections.
        """
        self.last_input_comparisons = blocks.total_comparisons()
        columns = self._index_columns(blocks, None, parallel)
        if columns is None:
            yield from self._graph_retained(blocks)
            return
        yield from edges_view(*columns)

    def retained_edges(self, blocks: BlockCollection) -> List[WeightedEdge]:
        """Weight the graph and return the edges surviving the pruning scheme."""
        return list(self.iter_retained(blocks))

    def weighted_comparisons(self, blocks: BlockCollection) -> List[Comparison]:
        """The retained edges as weighted comparisons, heaviest first.

        Ordering is fully deterministic: ties in weight are broken by the
        canonical (lexicographic) identifier pair.
        """
        edges = self.retained_edges(blocks)
        edges.sort(key=lambda e: (-e.weight, e.first, e.second))
        return [edge.as_comparison() for edge in edges]

    def weighted_columns(
        self, blocks: BlockCollection, context=None, parallel=None
    ) -> ComparisonColumns:
        """The retained edges as :class:`ComparisonColumns`, heaviest first.

        Row-for-row the same comparisons, in the same order (including the
        identifier tie-break at equal weights), as
        :meth:`weighted_comparisons` -- but the index engine's ordinal/weight
        columns are wrapped as they are, no per-edge object or identifier
        lookup in between; the natural input of the array scheduling engine.
        With a shared ``context`` the ordinal space is the context's (the
        columns' ``ids`` is ``context.ids`` itself); a context built
        for a different collection than the blocks raises :class:`KeyError`
        before any pruning work.  Without one the columns' ``ids`` is the
        index engine's own table (block members in first-seen order).  The
        last-run statistics (:attr:`last_graph_edges`,
        :attr:`last_retained_edges`, :attr:`last_engine`) are set when this
        returns.  ``parallel`` fans out the ranged pruning passes (not
        WNP's); the weight sort runs here.
        """
        self.last_input_comparisons = blocks.total_comparisons()
        columns = self._index_columns(blocks, context, parallel)
        if columns is None:
            # graph engine (custom schemes): intern the retained objects
            if context is not None:
                ids, ordinal_of = context.ids, context.ordinal
            else:
                ordinal_of = OrdinalInterner()
                ids = ordinal_of.ids
            first, second, weights = array("q"), array("q"), array("d")
            for edge in self._graph_retained(blocks):
                left, right = ordinal_of(edge.first), ordinal_of(edge.second)
                if left is None or right is None:
                    raise _uncovered(edge.first if left is None else edge.second)
                first.append(left)
                second.append(right)
                weights.append(edge.weight)
        else:
            ids, first, second, weights = columns
        columns = ComparisonColumns(
            ids,
            first,
            second,
            weights,
            distinct=True,
        )
        return columns.weight_sorted()

    def process(
        self,
        blocks: BlockCollection,
        data: Optional[CleanCleanTask] = None,
    ) -> BlockCollection:
        """Return a restructured block collection: one block per retained edge.

        When ``data`` is a clean--clean task the blocks are bilateral so that
        downstream components keep treating the comparisons as
        cross-collection ones.
        """
        restructured = BlockCollection(name=self.name)
        bilateral = data is not None and isinstance(data, CleanCleanTask)
        for edge in self.iter_retained(blocks):
            key = f"edge:{edge.first}|{edge.second}"
            if bilateral:
                if edge.first in data.left:
                    restructured.add(
                        Block(key, left_members=[edge.first], right_members=[edge.second])
                    )
                else:
                    restructured.add(
                        Block(key, left_members=[edge.second], right_members=[edge.first])
                    )
            else:
                restructured.add(Block(key, members=[edge.first, edge.second]))
        return restructured
