"""Progressive recall curves.

Progressive ER is evaluated by how quickly recall grows as a function of the
number of executed comparisons: a method that finds most matches early has a
curve that rises steeply and therefore a large (normalised) area under the
curve.  :class:`ProgressiveRecallCurve` has one point per executed
comparison (or per batch) and computes the standard summary statistics.
Recall only moves at a true match, so the curve is kept as its steps and
its points are generated, in bounded NumPy chunks, only when read.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro.datamodel.ground_truth import GroundTruth
from repro.datamodel.pairs import Comparison

#: history points generated per chunk by ``history()`` and ``auc()``
_CHUNK = 1 << 16


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

    The history starts at ``(0, 0)`` and gains a point per comparison
    recorded and per batch.  It is held as steps: the history index of every
    true match, and the index and comparison count of every batch point
    (elsewhere the count is the index plus the offset of the batch before).
    """

    def __init__(self, ground_truth: GroundTruth, budget: Optional[int] = None) -> None:
        self.ground_truth = ground_truth
        self.budget = budget
        self._comparisons = 0
        self._last = 0  # index of the last history point
        self._found = array("q")  # history index of every true match
        self._batches: List[Tuple[int, int]] = []  # (index, comparisons)

    # ------------------------------------------------------------------
    def record(self, comparison: Optional[Comparison] = None, is_match: bool = False) -> None:
        """Record one executed comparison and whether it was declared a match."""
        self._last += 1
        self._comparisons += 1
        if is_match:
            self._found.append(self._last)

    def record_many(self, matches) -> None:
        """Record executed comparisons in order, one history point each, from
        an array of one 0/1 flag per comparison (what :meth:`record` would
        have built flag by flag)."""
        self._found.extend((_np.flatnonzero(matches) + self._last + 1).tolist())
        self._last += len(matches)
        self._comparisons += len(matches)

    def record_batch(self, num_comparisons: int, num_matches: int) -> None:
        """Record a batch of comparisons at once (used by windowed schedulers)."""
        if num_comparisons < 0 or num_matches < 0:
            raise ValueError("comparison and match counts must be non-negative")
        self._last += 1
        self._comparisons += num_comparisons
        self._found.extend([self._last] * num_matches)
        self._batches.append((self._last, self._comparisons))

    # ------------------------------------------------------------------
    @property
    def num_comparisons(self) -> int:
        return self._comparisons

    @property
    def num_matches_found(self) -> int:
        return len(self._found)

    @property
    def total_matches(self) -> int:
        return max(1, self.ground_truth.num_matches())

    def _counts(self, points: _np.ndarray) -> _np.ndarray:
        """The comparison count of every history index in ``points``."""
        if not self._batches:
            return points
        at, count = _np.array(self._batches, dtype=_np.int64).T
        return points + _np.concatenate(([0], count - at))[_np.searchsorted(at, points, "right")]

    def _columns(self) -> Iterator[Tuple[_np.ndarray, _np.ndarray]]:
        """The history as ``(comparisons, matches found)`` column chunks."""
        found = _np.frombuffer(self._found, dtype=_np.int64)
        for start in range(0, self._last + 1, _CHUNK):
            points = _np.arange(start, min(start + _CHUNK, self._last + 1))
            yield self._counts(points), _np.searchsorted(found, points, "right")

    def history(self) -> List[Tuple[int, int]]:
        """The raw ``(comparisons, matches found)`` history."""
        return [
            point for chunk in self._columns() for point in zip(*(c.tolist() for c in chunk))
        ]

    def recall_at(self, num_comparisons: int) -> float:
        """Recall achieved after at most ``num_comparisons`` comparisons."""
        found = self._counts(_np.frombuffer(self._found, dtype=_np.int64))
        best = int(_np.searchsorted(found, num_comparisons, "right"))
        return min(1.0, best / self.total_matches)

    def final_recall(self) -> float:
        """Final recall, capped at 1.0 (callers may record duplicate matches)."""
        return min(1.0, len(self._found) / self.total_matches)

    def auc(self, max_comparisons: Optional[int] = None) -> float:
        """Normalised area under the progressive-recall curve (in [0, 1]).

        :func:`area_under_curve` of the history normalised by a positive
        ``max_comparisons`` (default: budget or executed): neither coordinate
        decreases along the history, so the trapezoids are those of
        consecutive points, computed as NumPy columns and summed by one
        :func:`math.fsum`.
        """
        denominator = max_comparisons or self.budget or max(1, self._comparisons)
        total = self.total_matches

        def terms():
            x, y = _np.zeros(0), _np.zeros(0)
            for comparisons, matches in self._columns():
                x = _np.concatenate((x[-1:], _np.minimum(1.0, comparisons / denominator)))
                y = _np.concatenate((y[-1:], _np.minimum(1.0, matches / total)))
                yield from ((x[1:] - x[:-1]) * (y[:-1] + y[1:]) / 2.0).tolist()
            if x[-1] < 1.0:  # the curve extends flat to x = 1
                yield (1.0 - x[-1]) * (y[-1] + y[-1]) / 2.0

        return math.fsum(terms())

    def comparisons_for_recall(self, target_recall: float) -> Optional[int]:
        """Smallest number of comparisons at which ``target_recall`` was reached (or None)."""
        needed = target_recall * self.total_matches
        if not needed <= len(self._found):
            return None
        point = self._found[math.ceil(needed) - 1] if needed > 0 else 0
        return int(self._counts(_np.array([point]))[0])

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
            f"matches={self.num_matches_found}/{self.total_matches}, auc={self.auc():.3f})"
        )
