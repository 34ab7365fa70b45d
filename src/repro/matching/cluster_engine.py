"""The workflow's clustering stage.

Each clustering algorithm has one body (see :mod:`repro.matching.clustering`);
:class:`ClusteringEngine` adds only what belongs to the stage: under a
:class:`~repro.mapreduce.parallel.ParallelEngine`, the connected-components
union--find runs as per-shard passes over shared-memory row ranges, merged
on the driver.  Everything else is the algorithm's own
:meth:`~repro.matching.clustering.ClusteringAlgorithm.cluster`: the library
algorithms, subclasses that inherit it, and custom algorithms or subclasses
that override it alike.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.datamodel.pairs import canonical_orientation
from repro.matching.clustering import (
    ClusteringAlgorithm,
    ConnectedComponentsClustering,
    Decisions,
    as_columns,
    group_by_root,
)


class ClusteringEngine:
    """The clustering stage: the pooled union--find or the algorithm's own ``cluster``.

    Parameters
    ----------
    algorithm:
        The clustering algorithm whose clusters are computed.
    parallel:
        Optional :class:`~repro.mapreduce.parallel.ParallelEngine`.  When the
        algorithm runs the library's connected-components ``cluster`` (its
        type or a subclass that does not override it), the union--find
        then runs as per-shard passes merged on the driver -- the identical
        clusters in the identical list order.  The center algorithms are
        inherently sequential greedy scans and ignore it.

    Notes
    -----
    :attr:`last_engine` reports only whether the most recent clusters came
    from the pool: ``"parallel"`` when the pooled union--find ran,
    ``"array"`` otherwise -- whatever the algorithm's own ``cluster`` does,
    a custom or overriding one included.
    """

    def __init__(
        self,
        algorithm: ClusteringAlgorithm,
        parallel=None,
    ) -> None:
        self.algorithm = algorithm
        self.parallel = parallel
        #: engine that actually produced the last clusters
        self.last_engine: Optional[str] = None

    def cluster(self, decisions: Decisions) -> List[FrozenSet[str]]:
        """Cluster ``decisions``; same contract as ``algorithm.cluster``."""
        self.last_engine = "array"
        if (
            self.parallel is not None
            and type(self.algorithm).cluster is ConnectedComponentsClustering.cluster
        ):
            columns = as_columns(decisions)
            first, second = canonical_orientation(columns.ids, columns.first, columns.second)
            # per-shard union--find passes merged on the driver; the merge
            # replays shard-local first-touch order range by range, which for
            # contiguous row shards equals the sequential first-touch order
            pooled = self.parallel.cluster_links(
                first, second, columns.is_match, len(columns.ids)
            )
            if pooled is not None:
                self.last_engine = "parallel"
                links, order = pooled
                return group_by_root(links, order, columns.ids)
            decisions = columns
        return self.algorithm.cluster(decisions)
