"""Merging-based iterative ER: R-Swoosh and the naive fixpoint baseline.

In merging-based approaches, matching descriptions are *merged* and the merge
result participates in further comparisons, because the merged description
carries the union of the evidence of its sources and may therefore match
descriptions that neither source matched alone.

* :class:`RSwoosh` implements the R-Swoosh strategy: maintain a set of
  resolved descriptions ``I'``; take one unresolved description at a time and
  compare it against ``I'``; on the first match, remove the matched partner
  from ``I'``, merge the two and put the merge result back into the unresolved
  set; otherwise add the description to ``I'``.  The algorithm performs far
  fewer comparisons than the naive strategy while producing the same final
  partition (under the standard ICAR merge/match assumptions).
* :class:`NaivePairwiseER` is the baseline: repeatedly compare all pairs of
  current descriptions, merge the first match found, and restart, until no
  pair matches (fixpoint).

Both resolvers have two paths, chosen by the matcher's exact type: for a
:class:`~repro.matching.matchers.ProfileSimilarityMatcher` the array path
scores each comparison row in one batched
:meth:`~repro.matching.engine.MatchingEngine.similarity_scores` call --
profiles are interned once instead of re-tokenised per comparison -- and any
other matcher (subclasses included) runs the readable per-pair object path
above, reported via :attr:`last_engine`.  Resolution order, comparison counts, merges and
budget behaviour are bit-identical by construction: a row is only scored up
to the first match / the remaining budget, exactly where the oracle stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription, merge_descriptions, provenance
from repro.matching.matchers import Matcher, ProfileSimilarityMatcher


@dataclass
class SwooshResult:
    """Outcome of a merging-based resolution run."""

    resolved: List[EntityDescription] = field(default_factory=list)
    comparisons_executed: int = 0
    merges: int = 0

    @property
    def clusters(self) -> List[FrozenSet[str]]:
        """Equivalence clusters implied by the provenance of the resolved descriptions."""
        return [frozenset(provenance(description.identifier)) for description in self.resolved]

    def matched_pairs(self) -> Set[Tuple[str, str]]:
        """All original-identifier pairs implied by the clusters (for evaluation)."""
        pairs: Set[Tuple[str, str]] = set()
        for cluster in self.clusters:
            members = sorted(cluster)
            for i, first in enumerate(members):
                for second in members[i + 1 :]:
                    pairs.add((first, second))
        return pairs


class RSwoosh:
    """R-Swoosh: merging-based ER with one comparison set and eager merging.

    Parameters
    ----------
    matcher:
        The pairwise matcher; merged descriptions are compared with it too,
        which is where merging-based approaches gain recall.
    budget:
        Optional maximum number of comparisons; the run stops when it is
        exhausted (useful for progressive evaluations).
    """

    name = "r_swoosh"

    def __init__(self, matcher: Matcher, budget: Optional[int] = None) -> None:
        self.matcher = matcher
        self.budget = budget
        #: engine that actually executed the last resolve call
        self.last_engine: Optional[str] = None

    def resolve(self, collection: EntityCollection) -> SwooshResult:
        if type(self.matcher) is ProfileSimilarityMatcher:
            self.last_engine = "array"
            return self._resolve_array(collection)
        self.last_engine = "object"
        return self._resolve_object(collection)

    def _resolve_array(self, collection: EntityCollection) -> SwooshResult:
        """Batched resolution: one ``similarity_scores`` call per comparison row.

        Each unresolved description is scored against the resolved set in
        one batch (capped at the remaining budget); the first score at or
        above the matcher's threshold is the oracle's first match, and the
        comparison count advances by exactly the comparisons the oracle
        would have executed.
        """
        from repro.matching.engine import MatchingEngine

        scoring = MatchingEngine(self.matcher)
        threshold = self.matcher.threshold
        budget = self.budget
        result = SwooshResult()
        unresolved: List[EntityDescription] = list(collection)
        resolved: List[EntityDescription] = []

        while unresolved:
            current = unresolved.pop(0)
            if budget is None:
                to_check = len(resolved)
            else:
                to_check = min(len(resolved), budget - result.comparisons_executed)
            scores = (
                scoring.similarity_scores(
                    [(current, candidate) for candidate in resolved[:to_check]]
                )
                if to_check
                else []
            )
            matched_index: Optional[int] = None
            for index, score in enumerate(scores):
                if score >= threshold:
                    matched_index = index
                    break
            if matched_index is not None:
                result.comparisons_executed += matched_index + 1
                matched_partner = resolved.pop(matched_index)
                unresolved.insert(0, merge_descriptions(current, matched_partner))
                result.merges += 1
                continue
            result.comparisons_executed += to_check
            if to_check < len(resolved):
                # budget exhausted mid-row: emit the rest as-is, like the oracle
                result.resolved = resolved + [current] + unresolved
                return result
            resolved.append(current)

        result.resolved = resolved
        return result

    def _resolve_object(self, collection: EntityCollection) -> SwooshResult:
        result = SwooshResult()
        unresolved: List[EntityDescription] = list(collection)
        resolved: List[EntityDescription] = []

        while unresolved:
            current = unresolved.pop(0)
            matched_partner: Optional[EntityDescription] = None
            for candidate in resolved:
                if self.budget is not None and result.comparisons_executed >= self.budget:
                    # budget exhausted: everything still unresolved is emitted as-is
                    result.resolved = resolved + [current] + unresolved
                    return result
                result.comparisons_executed += 1
                if self.matcher.match(current, candidate):
                    matched_partner = candidate
                    break
            if matched_partner is None:
                resolved.append(current)
            else:
                resolved.remove(matched_partner)
                merged = merge_descriptions(current, matched_partner)
                unresolved.insert(0, merged)
                result.merges += 1

        result.resolved = resolved
        return result


class NaivePairwiseER:
    """Naive merging-based baseline: compare all pairs, merge, restart until fixpoint.

    This is the straightforward strategy R-Swoosh improves upon; it performs
    (many) more comparisons because after every merge the full quadratic scan
    restarts over the updated set of descriptions.
    """

    name = "naive_pairwise"

    def __init__(self, matcher: Matcher, budget: Optional[int] = None) -> None:
        self.matcher = matcher
        self.budget = budget
        #: engine that actually executed the last resolve call
        self.last_engine: Optional[str] = None

    def resolve(self, collection: EntityCollection) -> SwooshResult:
        if type(self.matcher) is ProfileSimilarityMatcher:
            self.last_engine = "array"
            return self._resolve_array(collection)
        self.last_engine = "object"
        return self._resolve_object(collection)

    def _resolve_array(self, collection: EntityCollection) -> SwooshResult:
        """Batched fixpoint: score row ``i`` against all later rows in one call."""
        from repro.matching.engine import MatchingEngine

        scoring = MatchingEngine(self.matcher)
        threshold = self.matcher.threshold
        budget = self.budget
        result = SwooshResult()
        current: List[EntityDescription] = list(collection)

        changed = True
        while changed:
            changed = False
            merged_pair: Optional[Tuple[int, int]] = None
            for i in range(len(current)):
                row = current[i + 1 :]
                if not row:
                    continue
                if budget is None:
                    to_check = len(row)
                else:
                    to_check = min(len(row), budget - result.comparisons_executed)
                scores = (
                    scoring.similarity_scores([(current[i], other) for other in row[:to_check]])
                    if to_check
                    else []
                )
                matched_offset: Optional[int] = None
                for offset, score in enumerate(scores):
                    if score >= threshold:
                        matched_offset = offset
                        break
                if matched_offset is not None:
                    result.comparisons_executed += matched_offset + 1
                    merged_pair = (i, i + 1 + matched_offset)
                    break
                result.comparisons_executed += to_check
                if to_check < len(row):
                    result.resolved = current
                    return result
            if merged_pair is not None:
                i, j = merged_pair
                merged = merge_descriptions(current[i], current[j])
                del current[j]
                del current[i]
                current.append(merged)
                result.merges += 1
                changed = True

        result.resolved = current
        return result

    def _resolve_object(self, collection: EntityCollection) -> SwooshResult:
        result = SwooshResult()
        current: List[EntityDescription] = list(collection)

        changed = True
        while changed:
            changed = False
            merged_pair: Optional[Tuple[int, int]] = None
            for i in range(len(current)):
                for j in range(i + 1, len(current)):
                    if self.budget is not None and result.comparisons_executed >= self.budget:
                        result.resolved = current
                        return result
                    result.comparisons_executed += 1
                    if self.matcher.match(current[i], current[j]):
                        merged_pair = (i, j)
                        break
                if merged_pair is not None:
                    break
            if merged_pair is not None:
                i, j = merged_pair
                merged = merge_descriptions(current[i], current[j])
                # remove j first (larger index) to keep i valid
                del current[j]
                del current[i]
                current.append(merged)
                result.merges += 1
                changed = True

        result.resolved = current
        return result
