"""Evaluation of blocking, matching and progressive ER.

Metrics follow the tutorial's (and the blocking-benchmark literature's)
terminology:

* **Pair Completeness (PC)** -- fraction of ground-truth matching pairs that
  co-occur in at least one block (blocking recall).
* **Pairs Quality (PQ)** -- fraction of distinct comparisons suggested by
  blocking that are matches (blocking precision).
* **Reduction Ratio (RR)** -- fraction of the exhaustive comparisons that
  blocking avoids.
* Matching precision / recall / F1 at the pair level and cluster level.
* Progressive recall curves and their normalised area under the curve, the
  standard quality measure for progressive (pay-as-you-go) ER.

Execution
---------
Every metric is a ratio of exact integer counts, so each evaluator carries
two counting paths that provably agree:

* the readable tuple-set formulation over identifier pairs and frozenset
  partitions -- any iterable of ``Comparison`` objects, pair tuples or
  cluster sets works, and the public helpers
  (:meth:`GroundTruth.matching_pairs`,
  :meth:`~repro.matching.clustering.ClusteringAlgorithm.clusters_to_pairs`,
  :func:`~repro.evaluation.clusters.closest_cluster_score`,
  :func:`~repro.evaluation.clusters.variation_of_information`) remain the
  reference the test-suite pins against;
* an ordinal-coded fast path: columnar candidates
  (:class:`~repro.datamodel.pairs.ComparisonColumns` /
  :class:`~repro.datamodel.pairs.DecisionColumns`) are counted through the
  ground truth's per-identifier cluster indices and packed integer pair
  codes, :func:`~repro.evaluation.metrics.evaluate_matches` closes declared
  matches with the shared :class:`~repro.core.unionfind.UnionFind` and
  :func:`~repro.evaluation.metrics.evaluate_cluster_pairs` counts the
  induced pairs of clusters in closed form, and
  :func:`~repro.evaluation.clusters.evaluate_clusters` builds one
  contingency table instead of comparing every cluster pair.

Accumulated scores (AUC trapezoids, VI terms, closest-cluster averages) use
:func:`math.fsum`, which is exactly rounded and therefore order-independent
-- the property that makes the two counting paths bit-identical rather than
merely approximately equal.
"""

from repro.evaluation.clusters import (
    ClusterQuality,
    closest_cluster_score,
    evaluate_clusters,
    variation_of_information,
)
from repro.evaluation.curves import ProgressiveRecallCurve, area_under_curve
from repro.evaluation.metrics import (
    BlockingQuality,
    MatchingQuality,
    cluster_spanning_pairs,
    evaluate_blocks,
    evaluate_cluster_pairs,
    evaluate_comparisons,
    evaluate_matches,
    f_measure,
)
from repro.evaluation.report import StageReport, WorkflowReport

__all__ = [
    "BlockingQuality",
    "ClusterQuality",
    "MatchingQuality",
    "ProgressiveRecallCurve",
    "StageReport",
    "WorkflowReport",
    "area_under_curve",
    "closest_cluster_score",
    "cluster_spanning_pairs",
    "evaluate_blocks",
    "evaluate_cluster_pairs",
    "evaluate_clusters",
    "evaluate_comparisons",
    "evaluate_matches",
    "f_measure",
    "variation_of_information",
]
