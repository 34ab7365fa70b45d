"""Results of an end-to-end workflow run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.evaluation.curves import ProgressiveRecallCurve
from repro.evaluation.metrics import BlockingQuality, MatchingQuality
from repro.evaluation.report import WorkflowReport


@dataclass
class WorkflowResult:
    """Everything a workflow run produces.

    Attributes
    ----------
    clusters:
        The final equivalence clusters (only clusters with at least two
        members are reported).
    matches:
        The declared matching pairs (before transitive closure).
    comparisons_executed:
        Number of matcher invocations across all phases (including iterate
        rounds).
    report:
        Per-stage metric report (block counts, comparison counts, PC/PQ/RR
        when a ground truth was supplied, timings).
    blocking_quality / matching_quality:
        Evaluations against the ground truth; ``None`` when no ground truth
        was given.
    curve:
        Progressive recall curve of the matching phase (only when a ground
        truth was given).
    iterations:
        Number of update/iterate rounds executed (0 when iteration is off).
    fault_events:
        Always ``{}``: the parallel engine retries nothing.  Kept only
        because ``benchmarks/perf`` reads it; it goes when that reader does.
    """

    clusters: List[FrozenSet[str]] = field(default_factory=list)
    matches: List[Tuple[str, str]] = field(default_factory=list)
    comparisons_executed: int = 0
    report: WorkflowReport = field(default_factory=lambda: WorkflowReport("er-workflow"))
    blocking_quality: Optional[BlockingQuality] = None
    matching_quality: Optional[MatchingQuality] = None
    curve: Optional[ProgressiveRecallCurve] = None
    iterations: int = 0
    fault_events: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def num_matches(self) -> int:
        return len(self.matches)

    def matched_pairs(self) -> Set[Tuple[str, str]]:
        """All pairs implied by the final clusters (transitive closure)."""
        pairs: Set[Tuple[str, str]] = set()
        for cluster in self.clusters:
            members = sorted(cluster)
            for i, first in enumerate(members):
                for second in members[i + 1 :]:
                    pairs.add((first, second))
        return pairs

    def summary(self) -> str:
        """Multi-line human-readable summary (the stage report plus headline numbers)."""
        lines = [self.report.render(), ""]
        lines.append(
            f"clusters={len(self.clusters)} declared_matches={self.num_matches} "
            f"comparisons={self.comparisons_executed} iterations={self.iterations}"
        )
        if self.blocking_quality is not None:
            lines.append(f"blocking: {self.blocking_quality}")
        if self.matching_quality is not None:
            lines.append(f"matching: {self.matching_quality}")
        return "\n".join(lines)
