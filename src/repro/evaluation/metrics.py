"""Blocking and matching quality metrics.

The blocking metrics (PC, PQ, RR) follow the definitions used throughout the
blocking literature the tutorial surveys; the matching metrics are standard
pair-level precision/recall/F1 plus cluster-level variants.

Every metric here is a ratio of exact integer counts, so the *values* never
depend on how the counting is executed -- which is what allows two counting
paths to coexist:

* the readable tuple-set formulation over identifier pairs (any iterable of
  ``Comparison`` objects or pair tuples);
* an ordinal-coded fast path for columnar input
  (:class:`~repro.datamodel.pairs.ComparisonColumns` /
  :class:`~repro.datamodel.pairs.DecisionColumns`): the ground truth is
  resolved once per table identifier (:meth:`GroundTruth.cluster_indices`),
  candidate pairs deduplicate through packed integer codes, and
  ``evaluate_matches`` closes the declared matches with the shared
  :class:`~repro.core.unionfind.UnionFind` and counts induced pairs in
  closed form instead of materialising one tuple per within-cluster pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set, Tuple, Union

from repro.core.unionfind import UnionFind
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.ground_truth import GroundTruth
from repro.datamodel.pairs import (
    Comparison,
    ComparisonColumns,
    DecisionColumns,
    canonical_pair,
    pair_code,
)
from repro.blocking.base import BlockCollection
from repro.blocking.columns import BlockColumns
from repro.metablocking.entity_index import EntityIndexEngine

import numpy as _np


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class BlockingQuality:
    """Quality of a set of candidate comparisons w.r.t. the ground truth.

    Attributes
    ----------
    pair_completeness:
        PC: detected matches / existing matches (blocking recall).
    pairs_quality:
        PQ: detected matches / distinct comparisons (blocking precision).
    reduction_ratio:
        RR: 1 - distinct comparisons / exhaustive comparisons.
    num_comparisons:
        Number of distinct comparisons suggested.
    num_detected_matches:
        Ground-truth matches that appear among the comparisons.
    num_total_matches:
        All ground-truth matches.
    total_possible_comparisons:
        Size of the exhaustive comparison space.
    """

    pair_completeness: float
    pairs_quality: float
    reduction_ratio: float
    num_comparisons: int
    num_detected_matches: int
    num_total_matches: int
    total_possible_comparisons: int

    @property
    def f_measure(self) -> float:
        """Harmonic mean of PC and PQ (the CF-measure of the blocking literature)."""
        return f_measure(self.pairs_quality, self.pair_completeness)

    def as_dict(self) -> dict:
        return {
            "PC": self.pair_completeness,
            "PQ": self.pairs_quality,
            "RR": self.reduction_ratio,
            "F": self.f_measure,
            "comparisons": self.num_comparisons,
            "detected_matches": self.num_detected_matches,
            "total_matches": self.num_total_matches,
        }

    def __str__(self) -> str:
        return (
            f"PC={self.pair_completeness:.4f} PQ={self.pairs_quality:.4f} "
            f"RR={self.reduction_ratio:.4f} F={self.f_measure:.4f} "
            f"comparisons={self.num_comparisons}"
        )


@dataclass(frozen=True)
class MatchingQuality:
    """Pair-level quality of a set of declared matches."""

    precision: float
    recall: float
    num_declared: int
    num_correct: int
    num_total_matches: int

    @property
    def f1(self) -> float:
        return f_measure(self.precision, self.recall)

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "declared": self.num_declared,
            "correct": self.num_correct,
            "total_matches": self.num_total_matches,
        }

    def __str__(self) -> str:
        return (
            f"precision={self.precision:.4f} recall={self.recall:.4f} "
            f"f1={self.f1:.4f} declared={self.num_declared}"
        )


def _total_possible(data: Union[EntityCollection, CleanCleanTask, int, None], num_pairs: int) -> int:
    if data is None:
        return max(num_pairs, 1)
    if isinstance(data, int):
        return data
    return data.total_comparisons()


def _as_pair_set(
    comparisons: Iterable[Union[Comparison, Tuple[str, str]]],
) -> Set[Tuple[str, str]]:
    """Distinct canonical pairs of any comparison source.

    Columnar input short-circuits to the columns' own ``pairs()`` (canonical
    tuples straight from the identifier table, no ``Comparison`` objects);
    metric computations over columns avoid even that through
    :func:`_count_detected_columns`.
    """
    if isinstance(comparisons, (ComparisonColumns, DecisionColumns)):
        return comparisons.pairs()
    pairs: Set[Tuple[str, str]] = set()
    for item in comparisons:
        if isinstance(item, Comparison):
            pairs.add(item.pair)
        else:
            first, second = item
            pairs.add(canonical_pair(first, second))
    return pairs


def _count_detected_columns(
    columns: Union[ComparisonColumns, DecisionColumns], ground_truth: GroundTruth
) -> Tuple[int, int]:
    """(distinct comparisons, detected matches) of columnar candidates.

    The ground truth is resolved once per table identifier; each row then
    costs two integer compares -- one NumPy gather over the cluster-index
    column for columns flagged ``distinct`` -- and deduplication (skipped
    entirely for ``distinct`` columns) runs on packed pair codes.  The
    counts -- and hence every derived metric -- equal the tuple-set
    formulation's exactly.  A pending weight order is not paid for.
    """
    cluster_index = ground_truth.cluster_indices(columns.ids)
    detected = 0
    if isinstance(columns, ComparisonColumns):
        first, second = columns.unordered()
    else:
        first, second = columns.first, columns.second
    if getattr(columns, "distinct", False):
        cluster = _np.asarray(cluster_index, dtype=_np.int64)
        of_first, of_second = cluster[first], cluster[second]
        detected = int(_np.count_nonzero((of_first >= 0) & (of_first == of_second)))
        return len(columns), detected
    seen: Set[int] = set()
    add = seen.add
    for f, s in zip(first.tolist(), second.tolist()):
        code = pair_code(f, s)
        if code in seen:
            continue
        add(code)
        index = cluster_index[f]
        if index >= 0 and index == cluster_index[s]:
            detected += 1
    return len(seen), detected


def evaluate_comparisons(
    comparisons: Union[
        ComparisonColumns, DecisionColumns, Iterable[Union[Comparison, Tuple[str, str]]]
    ],
    ground_truth: GroundTruth,
    data: Union[EntityCollection, CleanCleanTask, int, None] = None,
) -> BlockingQuality:
    """Evaluate a set of candidate comparisons against the ground truth.

    Parameters
    ----------
    comparisons:
        The candidate pairs: ``Comparison`` objects, identifier tuples, or
        columnar candidates (:class:`ComparisonColumns` /
        :class:`DecisionColumns`), which are counted on the ordinal-coded
        fast path without materialising any per-pair tuple.
    ground_truth:
        The known matches.
    data:
        The ER input (used to compute the exhaustive comparison count for the
        reduction ratio), or directly the exhaustive count as an ``int``, or
        ``None`` to skip RR (it is then computed against the candidate count
        itself and equals 0).
    """
    if isinstance(comparisons, (ComparisonColumns, DecisionColumns)):
        num_pairs, detected = _count_detected_columns(comparisons, ground_truth)
    else:
        pairs = _as_pair_set(comparisons)
        detected = len(pairs & ground_truth.matching_pairs())
        num_pairs = len(pairs)
    return _blocking_quality(num_pairs, detected, ground_truth, data)


def _blocking_quality(
    num_pairs: int,
    detected: int,
    ground_truth: GroundTruth,
    data: Union[EntityCollection, CleanCleanTask, int, None],
) -> BlockingQuality:
    """PC / PQ / RR from the distinct-comparison and detected-match counts."""
    total_matches = ground_truth.num_matches()
    total_possible = _total_possible(data, num_pairs)

    pair_completeness = detected / total_matches if total_matches else 0.0
    pairs_quality = detected / num_pairs if num_pairs else 0.0
    reduction_ratio = 1.0 - (num_pairs / total_possible) if total_possible else 0.0
    return BlockingQuality(
        pair_completeness=pair_completeness,
        pairs_quality=pairs_quality,
        reduction_ratio=max(0.0, reduction_ratio),
        num_comparisons=num_pairs,
        num_detected_matches=detected,
        num_total_matches=total_matches,
        total_possible_comparisons=total_possible,
    )


def evaluate_blocks(
    blocks: BlockCollection,
    ground_truth: GroundTruth,
    data: Union[EntityCollection, CleanCleanTask, int, None] = None,
) -> BlockingQuality:
    """Evaluate a block collection (its distinct comparisons) against the ground truth.

    Counted from the collection's columns, never from a materialised pair
    set: the distinct comparisons are the edges of the blocking graph
    (:meth:`EntityIndexEngine.count_edges
    <repro.metablocking.entity_index.EntityIndexEngine.count_edges>`) and a
    true pair is detected when the block rows of its two descriptions
    intersect -- field for field what ``evaluate_comparisons`` gives for
    ``blocks.distinct_pairs()``.
    """
    index = EntityIndexEngine.from_columns(BlockColumns.from_collection(blocks))
    detected = 0
    for first, second in ground_truth.matching_pairs():
        i, j = index.ordinal(first), index.ordinal(second)
        detected += i is not None and j is not None and index.compared(i, j)
    return _blocking_quality(index.count_edges(), detected, ground_truth, data)


def _declared_pair_source(
    declared_matches: Union[
        ComparisonColumns, DecisionColumns, Iterable[Union[Comparison, Tuple[str, str]]]
    ],
) -> Iterable[Tuple[str, str]]:
    """Identifier pairs of a declared-match source, without per-pair objects.

    :class:`DecisionColumns` contributes its *positive* rows (it is a
    decision log, not a match list); :class:`ComparisonColumns` and plain
    iterables contribute every pair.
    """
    if isinstance(declared_matches, DecisionColumns):
        ids = declared_matches.ids
        return (
            (ids[f], ids[s])
            for f, s, flag in zip(
                declared_matches.first, declared_matches.second, declared_matches.is_match
            )
            if flag
        )
    if isinstance(declared_matches, ComparisonColumns):
        ids = declared_matches.ids
        return (
            (ids[f], ids[s])
            for f, s in zip(declared_matches.first, declared_matches.second)
        )
    return (
        item.pair if isinstance(item, Comparison) else (item[0], item[1])
        for item in declared_matches
    )


def cluster_spanning_pairs(
    clusters: Iterable[Iterable[str]],
) -> Iterable[Tuple[str, str]]:
    """A linear-size pair set whose transitive closure is exactly ``clusters``.

    Each cluster of *n* members contributes its *n - 1* spanning pairs
    instead of all *n(n-1)/2* within-cluster pairs; since
    :func:`evaluate_matches` closes its input transitively anyway, feeding it
    spanning pairs yields bit-identical metrics to feeding it the full
    quadratic pair set (``WorkflowResult.matched_pairs()``).
    """
    for cluster in clusters:
        members = sorted(cluster)
        for other in members[1:]:
            yield (members[0], other)


def evaluate_cluster_pairs(
    clusters: Iterable[Iterable[str]], ground_truth: GroundTruth
) -> MatchingQuality:
    """Pair-level precision/recall of disjoint clusters, each declaring
    every pair inside it: what :func:`evaluate_matches` gives for
    ``cluster_spanning_pairs(clusters)``, without the closure.

    Declared pairs are counted in closed form per cluster, correct ones by
    counting the members per (cluster, ground-truth cluster index) cell:
    one :meth:`GroundTruth.cluster_indices` gather and one ``np.unique``.
    Clusters holding a merged identifier (``"a+b"``) take
    :func:`evaluate_matches`, whose provenance rule they need.
    """
    clusters = [list(cluster) for cluster in clusters]
    members = [member for cluster in clusters for member in cluster]
    if any("+" in member for member in members):
        return evaluate_matches(cluster_spanning_pairs(clusters), ground_truth)
    sizes = _np.array([len(cluster) for cluster in clusters], dtype=_np.int64)
    index = _np.array(ground_truth.cluster_indices(members), dtype=_np.int64)
    owner = _np.repeat(_np.arange(len(sizes)), sizes)[index >= 0]
    cells = owner * (index.max(initial=0) + 1) + index[index >= 0]
    counts = _np.unique(cells, return_counts=True)[1]
    declared = int((sizes * (sizes - 1) // 2).sum())
    correct = int((counts * (counts - 1) // 2).sum())
    total_matches = ground_truth.num_matches()
    return MatchingQuality(
        precision=correct / declared if declared else 0.0,
        recall=correct / total_matches if total_matches else 0.0,
        num_declared=declared,
        num_correct=correct,
        num_total_matches=total_matches,
    )


def evaluate_matches(
    declared_matches: Union[
        ComparisonColumns, DecisionColumns, Iterable[Union[Comparison, Tuple[str, str]]]
    ],
    ground_truth: GroundTruth,
) -> MatchingQuality:
    """Pair-level precision/recall of declared matches against the ground truth.

    Declared matches are closed transitively before evaluation: declaring
    (a, b) and (b, c) implies (a, c), since ER outputs are equivalence
    relations.  Merged identifiers (``"a+b"``) are expanded to their
    constituents.

    The closure is one shared :class:`~repro.core.unionfind.UnionFind`
    pass, whose groups :func:`evaluate_cluster_pairs` counts: the induced
    pairs are never materialised.
    """
    # transitive closure of declared matches
    links = UnionFind()
    union = links.union
    for first, second in _declared_pair_source(declared_matches):
        if "+" not in first and "+" not in second:
            union(first, second)
            continue
        # expand merged identifiers into their provenance
        lefts = first.split("+")
        rights = second.split("+")
        for left in lefts:
            for right in rights:
                union(left, right)
        # constituents of the same merged id also match each other
        for members in (lefts, rights):
            for other in members[1:]:
                union(members[0], other)
    return evaluate_cluster_pairs(links.groups().values(), ground_truth)
