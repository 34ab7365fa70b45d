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

Each resolver has one loop.  It checks one row of candidates at a time --
at most as many as the remaining budget allows -- through
:func:`_first_match`, which asks ``matcher.match`` one pair at a time up to
the first match, so a matcher that counts or draws noise per call
(:class:`~repro.matching.oracle.OracleMatcher`) is asked exactly the pairs
the loop counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.config import check_budget
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription, merge_descriptions, provenance
from repro.matching.matchers import Matcher


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


def _first_match(
    matcher: Matcher,
    description: EntityDescription,
    candidates: Iterable[EntityDescription],
    to_check: int,
) -> Optional[int]:
    """Offset of the first of the first ``to_check`` ``candidates`` that
    matches ``description``, or ``None``; pairs past the first match are not
    asked."""
    match = matcher.match
    return next(
        (
            offset
            for offset, other in enumerate(islice(candidates, to_check))
            if match(description, other)
        ),
        None,
    )


class RSwoosh:
    """R-Swoosh: merging-based ER with one comparison set and eager merging.

    Parameters
    ----------
    matcher:
        The pairwise matcher; merged descriptions are compared with it too,
        which is where merging-based approaches gain recall.
    budget:
        Optional maximum number of comparisons (``None`` or a non-negative
        ``int``); the run stops when it is exhausted (useful for progressive
        evaluations).
    """

    name = "r_swoosh"

    def __init__(self, matcher: Matcher, budget: Optional[int] = None) -> None:
        check_budget(budget, f"{type(self).__name__}.budget")
        self.matcher = matcher
        self.budget = budget

    def resolve(self, collection: EntityCollection) -> SwooshResult:
        budget = self.budget
        result = SwooshResult()
        unresolved: List[EntityDescription] = list(collection)
        resolved: List[EntityDescription] = []

        while unresolved:
            current = unresolved.pop(0)
            to_check = len(resolved)
            if budget is not None:
                to_check = min(to_check, budget - result.comparisons_executed)
            offset = _first_match(self.matcher, current, resolved, to_check)
            if offset is not None:
                result.comparisons_executed += offset + 1
                partner = resolved.pop(offset)
                unresolved.insert(0, merge_descriptions(current, partner))
                result.merges += 1
                continue
            result.comparisons_executed += to_check
            if to_check < len(resolved):
                # budget exhausted: everything still unresolved is emitted as-is
                result.resolved = resolved + [current] + unresolved
                return result
            resolved.append(current)

        result.resolved = resolved
        return result


class NaivePairwiseER:
    """Naive merging-based baseline: compare all pairs, merge, restart until fixpoint.

    This is the straightforward strategy R-Swoosh improves upon; it performs
    (many) more comparisons because after every merge the full quadratic scan
    restarts over the updated set of descriptions.  ``budget`` is as for
    :class:`RSwoosh`.
    """

    name = "naive_pairwise"

    def __init__(self, matcher: Matcher, budget: Optional[int] = None) -> None:
        check_budget(budget, f"{type(self).__name__}.budget")
        self.matcher = matcher
        self.budget = budget

    def resolve(self, collection: EntityCollection) -> SwooshResult:
        budget = self.budget
        result = SwooshResult()
        current: List[EntityDescription] = list(collection)

        while True:
            merged_pair: Optional[Tuple[int, int]] = None
            for i, description in enumerate(current):
                # row i: description against every later one
                remaining = len(current) - i - 1
                to_check = remaining
                if budget is not None:
                    to_check = min(to_check, budget - result.comparisons_executed)
                later = islice(current, i + 1, None)
                offset = _first_match(self.matcher, description, later, to_check)
                if offset is not None:
                    result.comparisons_executed += offset + 1
                    merged_pair = (i, i + 1 + offset)
                    break
                result.comparisons_executed += to_check
                if to_check < remaining:
                    result.resolved = current
                    return result
            if merged_pair is None:
                break  # fixpoint: no pair matches
            i, j = merged_pair
            merged = merge_descriptions(current[i], current[j])
            # remove j first (larger index) to keep i valid
            del current[j]
            del current[i]
            current.append(merged)
            result.merges += 1

        result.resolved = current
        return result
