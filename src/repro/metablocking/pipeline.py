"""End-to-end meta-blocking: block collection in, restructured comparisons out.

:class:`MetaBlocking` wires together a weighting scheme and a pruning scheme
-- the library schemes, named or as instances of a library scheme class or
a subclass of one, which runs as the library scheme it derives from -- and
runs them on the array-backed
:class:`~repro.metablocking.entity_index.EntityIndexEngine`, which runs
batched passes over CSR block-membership arrays, stays in ordinal space and
hands back the retained edges as flat ``(first, second, weight)`` columns;
pruned edges are never all resident (peak transient memory is one node
batch, plus span columns of the order of the index itself for cutting the
batches, plus the retained columns).  With a
:class:`~repro.mapreduce.parallel.ParallelEngine`, the ranged passes of WEP,
CEP and CNP fan out to its workers; WNP and ReciprocalWNP walk their node
batches in one pass on the driver.  What every scheme pair retains is frozen
in ``tests/fixtures/metablocking/seeded.json``.

The output can be consumed in four forms:

* :meth:`MetaBlocking.weighted_columns` -- the retained edges as
  :class:`~repro.datamodel.pairs.ComparisonColumns`, heaviest first: the
  index engine's own columns, wrapped (what the workflow consumes);
* :meth:`MetaBlocking.iter_retained` -- a lazy view of the same columns as
  :class:`~repro.metablocking.entity_index.WeightedEdge` objects, for
  :meth:`~MetaBlocking.process` and tests;
* :meth:`MetaBlocking.weighted_comparisons` -- the retained edges as weighted
  :class:`~repro.datamodel.pairs.Comparison` objects, heaviest first (the
  natural input of an object progressive scheduler);
* :meth:`MetaBlocking.process` -- a restructured
  :class:`~repro.blocking.base.BlockCollection` with one (two-member) block
  per retained edge (the natural input of a conventional matching phase).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

from repro.blocking.base import Block, BlockCollection
from repro.blocking.columns import BlockColumns
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.pairs import Comparison, ComparisonColumns
from repro.metablocking.entity_index import EntityIndexEngine, WeightedEdge, edges_view
from repro.metablocking.pruning import (
    _PRUNING,
    PruningScheme,
    WeightedEdgePruning,
    get_pruning_scheme,
)
from repro.metablocking.weighting import (
    _SCHEMES,
    CBS,
    WeightingScheme,
    get_weighting_scheme,
)


def _library_name(scheme, library: dict, role: str) -> str:
    """The name of the ``library`` scheme ``scheme`` is an instance of, or derives from.

    Raises :class:`TypeError` naming ``role`` for anything else.
    """
    for kind in type(scheme).__mro__:
        if kind in library.values():
            return kind.name
    raise TypeError(
        f"{role} must be a library {role} scheme (or a subclass of one) or its name, "
        f"got {scheme!r}"
    )


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

    An instance must be of a library scheme class or a subclass of one (it
    runs as that library scheme); anything else is a :class:`TypeError`, an
    unknown name a :class:`KeyError`, both raised here, before any block is
    read.
    """

    def __init__(
        self,
        weighting: Union[WeightingScheme, str, None] = None,
        pruning: Union[PruningScheme, str, None] = None,
    ) -> None:
        if weighting is None:
            weighting = CBS()
        elif isinstance(weighting, str):
            weighting = get_weighting_scheme(weighting)
        if pruning is None:
            pruning = WeightedEdgePruning()
        elif isinstance(pruning, str):
            pruning = get_pruning_scheme(pruning)
        _library_name(weighting, _SCHEMES, "weighting")
        _library_name(pruning, _PRUNING, "pruning")
        self.weighting: WeightingScheme = weighting
        self.pruning: PruningScheme = pruning
        #: statistics of the last run, reported by benchmarks (set by
        #: :meth:`iter_retained` when its first edge is requested, by
        #: :meth:`weighted_columns` on return)
        self.last_input_comparisons = 0
        self.last_graph_edges = 0
        self.last_retained_edges = 0
        #: what ran the last run's pruning passes: "index", or "parallel" when
        #: a ParallelEngine ran the ranged passes (WNP always runs "index")
        self.last_engine: Optional[str] = None

    @property
    def name(self) -> str:
        return f"metablocking[{self.weighting.name}+{self.pruning.name}]"

    # ------------------------------------------------------------------
    def _index_columns(self, blocks: BlockCollection, context, parallel):
        """Run the index engine: ``(ids, first, second, weights)`` columns.

        The index is built over the context's ordinals when one is given,
        and a context that does not cover the blocks is refused before any
        pruning work.  Sets the last-run statistics.
        """
        weighting = _library_name(self.weighting, _SCHEMES, "weighting")
        pruning = _library_name(self.pruning, _PRUNING, "pruning")
        params = {
            "budget": getattr(self.pruning, "budget", None),
            "k": getattr(self.pruning, "k", None),
        }
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
            columns = parallel.retained_edges(index, weighting, pruning, **params)
        self.last_engine = "index" if columns is None else "parallel"
        if columns is None:
            columns = index.retained_columns(weighting, pruning, **params)
        self.last_graph_edges = index.last_num_edges
        self.last_retained_edges = index.last_retained
        return (index.ids if context is None else context.ids, *columns)

    def iter_retained(
        self, blocks: BlockCollection, parallel=None
    ) -> Iterator[WeightedEdge]:
        """Lazily yield the edges surviving the pruning scheme.

        A view over the retained columns: pruning runs (and the last-run
        statistics are set) when the first edge is requested, the
        :class:`WeightedEdge` objects are built one at a time as the
        generator is drained.

        ``parallel`` (a :class:`~repro.mapreduce.parallel.ParallelEngine`)
        fans the ranged pruning passes (WEP, CEP, CNP) out to worker
        processes over shared-memory views of the CSR index; the retained
        edges are bit-identical either way.  It is ignored for WNP and
        ReciprocalWNP (one sequential pass, run here) and for empty
        collections.
        """
        self.last_input_comparisons = blocks.total_comparisons()
        yield from edges_view(*self._index_columns(blocks, None, parallel))

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
        ids, first, second, weights = self._index_columns(blocks, context, parallel)
        columns = ComparisonColumns(ids, first, second, weights, distinct=True)
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
