"""Progressive recall curves.

Progressive ER is evaluated by how quickly recall grows as a function of the
number of executed comparisons: a method that finds most matches early has a
curve that rises steeply and therefore a large (normalised) area under the
curve.  :class:`ProgressiveRecallCurve` records one point per executed
comparison (or per batch) and computes the standard summary statistics.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.datamodel.ground_truth import GroundTruth
from repro.datamodel.pairs import Comparison


def area_under_curve(points: Sequence[Tuple[float, float]]) -> float:
    """Trapezoidal area under a curve given as ``(x, y)`` points with x in [0, 1].

    The points are sorted by x; the curve is extended horizontally to x=1 from
    the last point and starts at (0, 0) if no point with x=0 is present.  The
    trapezoid areas are accumulated with :func:`math.fsum` (exactly rounded),
    so the result does not drift with the number of curve points.
    """
    if not points:
        return 0.0
    ordered = sorted(points)
    if ordered[0][0] > 0.0:
        ordered.insert(0, (0.0, 0.0))
    if ordered[-1][0] < 1.0:
        ordered.append((1.0, ordered[-1][1]))
    return math.fsum(
        (x1 - x0) * (y0 + y1) / 2.0
        for (x0, y0), (x1, y1) in zip(ordered, ordered[1:])
    )


class ProgressiveRecallCurve:
    """Records recall as a function of the number of executed comparisons.

    Usage::

        curve = ProgressiveRecallCurve(ground_truth)
        for comparison, is_match in execution_trace:
            curve.record(comparison, is_match)
        print(curve.recall_at(1000), curve.auc())
    """

    def __init__(self, ground_truth: GroundTruth, budget: Optional[int] = None) -> None:
        self.ground_truth = ground_truth
        self.budget = budget
        self._comparisons = 0
        self._matches_found = 0
        self._history: List[Tuple[int, int]] = [(0, 0)]

    # ------------------------------------------------------------------
    def record(self, comparison: Optional[Comparison] = None, is_match: bool = False) -> None:
        """Record one executed comparison and whether it was declared a match."""
        self._comparisons += 1
        if is_match:
            self._matches_found += 1
        self._history.append((self._comparisons, self._matches_found))

    def record_many(self, matches: Iterable[int]) -> None:
        """Record executed comparisons in order, one history point each.

        ``matches`` holds one flag per comparison (a ``bytearray`` of 0/1
        serves); the history is the one :meth:`record` would have built
        flag by flag.
        """
        found = list(accumulate(matches, initial=self._matches_found))
        self._history.extend(enumerate(found[1:], self._comparisons + 1))
        self._comparisons += len(found) - 1
        self._matches_found = found[-1]

    def record_batch(self, num_comparisons: int, num_matches: int) -> None:
        """Record a batch of comparisons at once (used by windowed schedulers)."""
        if num_comparisons < 0 or num_matches < 0:
            raise ValueError("comparison and match counts must be non-negative")
        self._comparisons += num_comparisons
        self._matches_found += num_matches
        self._history.append((self._comparisons, self._matches_found))

    # ------------------------------------------------------------------
    @property
    def num_comparisons(self) -> int:
        return self._comparisons

    @property
    def num_matches_found(self) -> int:
        return self._matches_found

    @property
    def total_matches(self) -> int:
        return max(1, self.ground_truth.num_matches())

    def history(self) -> List[Tuple[int, int]]:
        """The raw ``(comparisons, matches found)`` history."""
        return list(self._history)

    def recall_at(self, num_comparisons: int) -> float:
        """Recall achieved after at most ``num_comparisons`` comparisons."""
        best = 0
        for comparisons, matches in self._history:
            if comparisons > num_comparisons:
                break
            best = matches
        return min(1.0, best / self.total_matches)

    def final_recall(self) -> float:
        """Final recall, capped at 1.0 (callers may record duplicate matches)."""
        return min(1.0, self._matches_found / self.total_matches)

    def normalized_points(self, max_comparisons: Optional[int] = None) -> List[Tuple[float, float]]:
        """Curve points with x normalised by ``max_comparisons`` (default: budget or executed)."""
        denominator = max_comparisons or self.budget or max(1, self._comparisons)
        return [
            (min(1.0, comparisons / denominator), min(1.0, matches / self.total_matches))
            for comparisons, matches in self._history
        ]

    def auc(self, max_comparisons: Optional[int] = None) -> float:
        """Normalised area under the progressive-recall curve (in [0, 1])."""
        return area_under_curve(self.normalized_points(max_comparisons))

    def comparisons_for_recall(self, target_recall: float) -> Optional[int]:
        """Smallest number of comparisons at which ``target_recall`` was reached (or None)."""
        needed = target_recall * self.total_matches
        for comparisons, matches in self._history:
            if matches >= needed:
                return comparisons
        return None

    def sampled(self, num_points: int = 20) -> List[Tuple[int, float]]:
        """Down-sample the curve to ``num_points`` evenly spaced comparison counts."""
        if self._comparisons == 0:
            return [(0, 0.0)]
        step = max(1, self._comparisons // num_points)
        points = []
        for target in range(0, self._comparisons + 1, step):
            points.append((target, self.recall_at(target)))
        if points[-1][0] != self._comparisons:
            points.append((self._comparisons, self.final_recall()))
        return points

    def __repr__(self) -> str:
        return (
            f"ProgressiveRecallCurve(comparisons={self._comparisons}, "
            f"matches={self._matches_found}/{self.total_matches}, auc={self.auc():.3f})"
        )
