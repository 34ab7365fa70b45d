"""Relationship-based (collective) iterative entity resolution.

Relationship-based approaches "presume upon the relationships between
different types of entities": resolving one pair of descriptions provides
evidence for related pairs -- e.g. two building descriptions become more
likely to match once their architects are known to match -- so every match
triggers new or re-prioritised comparisons of related pairs.

:class:`CollectiveER` implements the queue-driven collective algorithm:

1. *Initialisation*: candidate pairs (typically from blocking) enter a
   priority queue ordered by attribute similarity.
2. *Iteration*: the most promising pair is popped and its combined similarity
   is computed as a weighted sum of attribute similarity and *relational*
   similarity -- the Jaccard coefficient of the current clusters of the two
   descriptions' neighbours.  If the combined similarity reaches the match
   threshold, the two clusters are merged.
3. *Update*: after a merge, every queued pair whose descriptions are related
   to the merged ones is re-prioritised (its relational evidence has changed),
   which is what makes the process iterative rather than one-shot.

Both classes here have one body, with the cluster state in an
:class:`~repro.core.unionfind.IntUnionFind` over description ordinals.  The
matcher decides only how the initial candidate pairs are scored: one batched
:meth:`~repro.matching.engine.MatchingEngine.similarity_scores` call, which
runs the columnar profile store for the exact
:class:`~repro.matching.matchers.ProfileSimilarityMatcher` and
``matcher.similarity`` pair by pair, in the same order, for any other.
The final cluster list is ordered by ascending surviving cluster index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.blocking.base import BlockCollection
from repro.core.config import check_budget
from repro.core.unionfind import IntUnionFind, UnionFind
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison
from repro.iterative.queue import ComparisonQueue
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import Matcher, ProfileSimilarityMatcher
from repro.text.similarity import jaccard_similarity


def _candidate_pairs(
    collection: EntityCollection,
    candidates: Union[BlockCollection, Iterable[Comparison], None],
) -> Set[Tuple[str, str]]:
    """Initial candidate pairs: a block collection, comparisons, or token blocking."""
    if candidates is None:
        from repro.blocking.token_blocking import TokenBlocking

        candidates = TokenBlocking().build(collection)
    if isinstance(candidates, BlockCollection):
        return candidates.distinct_pairs()
    return {comparison.pair for comparison in candidates}


def _scored_candidates(
    matcher: Matcher,
    collection: EntityCollection,
    candidates: Union[BlockCollection, Iterable[Comparison], None],
    limit: Optional[int] = None,
) -> Tuple[List[Tuple[str, str]], List[float]]:
    """The first ``limit`` resolvable candidate pairs, in sorted order, and
    their attribute similarities.

    A pair naming an identifier the collection does not hold is skipped
    and not counted.  The scores come from one
    :meth:`~repro.matching.engine.MatchingEngine.similarity_scores` call.
    """
    resolvable: List[Tuple[str, str]] = []
    batch: List[Tuple[EntityDescription, EntityDescription]] = []
    for first, second in sorted(_candidate_pairs(collection, candidates)):
        if limit is not None and len(resolvable) >= limit:
            break
        description_a = collection.get(first)
        description_b = collection.get(second)
        if description_a is None or description_b is None:
            continue
        resolvable.append((first, second))
        batch.append((description_a, description_b))
    return resolvable, MatchingEngine(matcher).similarity_scores(batch)


@dataclass
class CollectiveResult:
    """Outcome of a collective resolution run."""

    matches: List[Tuple[str, str]] = field(default_factory=list)
    comparisons_executed: int = 0
    relational_rescues: int = 0
    requeue_events: int = 0
    clusters: List[FrozenSet[str]] = field(default_factory=list)

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


class CollectiveER:
    """Collective ER combining attribute similarity with relational evidence.

    Parameters
    ----------
    attribute_matcher:
        Matcher providing the attribute-level similarity (its threshold is
        ignored; only scores are used).
    match_threshold:
        Combined similarity at or above which a pair is declared a match.
    relationship_weight:
        Weight ``alpha`` of the relational similarity in the combined score
        ``(1 - alpha) * attribute + alpha * relational``.
    candidate_threshold:
        Pairs whose initial attribute similarity is below this value are not
        even queued (keeps the queue small); set to 0 to queue everything.
    combination:
        How relational evidence is combined with attribute similarity:

        * ``"boost"`` (default) -- relational evidence can only *raise* the
          score: ``max(attribute, (1 - alpha) * attribute + alpha * relational)``.
          This mirrors the tutorial's description of relationship-based
          iteration ("new pairs can be added to the queue ... or existing
          pairs can be re-ordered" once related descriptions match).
        * ``"weighted"`` -- the classical weighted sum, in which the absence
          of relational overlap also *suppresses* pairs (useful to
          disambiguate same-name entities at the price of recall).
    budget:
        Optional maximum number of similarity evaluations (``None`` or a
        non-negative ``int``).  The initial scoring of the candidates always
        runs; the iterative phase stops once the budget is spent.
    """

    name = "collective_er"

    def __init__(
        self,
        attribute_matcher: Optional[Matcher] = None,
        match_threshold: float = 0.6,
        relationship_weight: float = 0.4,
        candidate_threshold: float = 0.2,
        combination: str = "boost",
        budget: Optional[int] = None,
    ) -> None:
        if not 0.0 <= relationship_weight <= 1.0:
            raise ValueError("relationship weight must be in [0, 1]")
        if combination not in ("boost", "weighted"):
            raise ValueError("combination must be 'boost' or 'weighted'")
        check_budget(budget, f"{type(self).__name__}.budget")
        self.attribute_matcher = attribute_matcher or ProfileSimilarityMatcher(threshold=1.0)
        self.match_threshold = match_threshold
        self.relationship_weight = relationship_weight
        self.candidate_threshold = candidate_threshold
        self.combination = combination
        self.budget = budget

    def _combined_score(
        self,
        attribute_score: float,
        first: int,
        second: int,
        neighbour_sets: List[Set[int]],
        links: IntUnionFind,
        cluster_size: List[int],
    ) -> float:
        """Combine attribute and relational similarity according to ``combination``.

        The relational similarity is the Jaccard coefficient of the sets of
        clusters (union--find roots) the two descriptions' neighbours belong
        to.  Before any neighbour of either description has been resolved
        into a cluster of two or more, that similarity is necessarily 0;
        treating the absence of evidence as negative evidence would penalise
        every pair uniformly, so the attribute similarity is used alone.
        """
        find = links.find
        has_evidence = any(
            cluster_size[find(neighbour)] > 1
            for ordinal in (first, second)
            for neighbour in neighbour_sets[ordinal]
        )
        if not has_evidence:
            return attribute_score
        clusters_a = {find(neighbour) for neighbour in neighbour_sets[first]}
        clusters_b = {find(neighbour) for neighbour in neighbour_sets[second]}
        relational_score = (
            jaccard_similarity(clusters_a, clusters_b) if clusters_a and clusters_b else 0.0
        )
        weighted = (
            (1.0 - self.relationship_weight) * attribute_score
            + self.relationship_weight * relational_score
        )
        if self.combination == "boost":
            return max(attribute_score, weighted)
        return weighted

    def resolve(
        self,
        collection: EntityCollection,
        candidates: Union[BlockCollection, Iterable[Comparison], None] = None,
    ) -> CollectiveResult:
        """Run collective ER over ``collection``.

        ``candidates`` supplies the initial pairs (a block collection or an
        iterable of comparisons); when ``None`` all pairs of descriptions that
        share at least one token are used (token-blocking candidates).
        """
        result = CollectiveResult()
        identifiers = [description.identifier for description in collection]
        n = len(identifiers)
        ordinal_of = {identifier: ordinal for ordinal, identifier in enumerate(identifiers)}

        # undirected neighbourhood: related descriptions in either direction
        neighbour_sets: List[Set[int]] = [set() for _ in range(n)]
        for ordinal, description in enumerate(collection):
            for target in description.related():
                target_ordinal = ordinal_of.get(target)
                if target_ordinal is not None:
                    neighbour_sets[ordinal].add(target_ordinal)
                    neighbour_sets[target_ordinal].add(ordinal)

        # ----- initialisation phase: fill the queue ---------------------
        resolvable, scores = _scored_candidates(self.attribute_matcher, collection, candidates)
        result.comparisons_executed += len(scores)

        attribute_similarity: Dict[Tuple[str, str], float] = {}
        pairs_of_ordinal: List[List[Tuple[str, str]]] = [[] for _ in range(n)]
        queue = ComparisonQueue()
        for pair, score in zip(resolvable, scores):
            if score >= self.candidate_threshold:
                attribute_similarity[pair] = score
                pairs_of_ordinal[ordinal_of[pair[0]]].append(pair)
                pairs_of_ordinal[ordinal_of[pair[1]]].append(pair)
                queue.push(pair[0], pair[1], priority=score)

        # ----- iterative phase ------------------------------------------
        # every description starts in its own cluster
        links = IntUnionFind(n)
        cluster_size = [1] * n
        members_of: Dict[int, List[int]] = {ordinal: [ordinal] for ordinal in range(n)}
        processed: Set[Tuple[str, str]] = set()
        while len(queue) > 0:
            if self.budget is not None and result.comparisons_executed >= self.budget:
                break
            pair = queue.pop()
            if pair is None:
                break
            if pair in processed:
                continue
            first_ordinal = ordinal_of[pair[0]]
            second_ordinal = ordinal_of[pair[1]]
            target = links.find(first_ordinal)
            source = links.find(second_ordinal)
            if target == source:
                processed.add(pair)
                continue

            attribute_score = attribute_similarity.get(pair, 0.0)
            combined = self._combined_score(
                attribute_score, first_ordinal, second_ordinal, neighbour_sets, links, cluster_size
            )
            result.comparisons_executed += 1
            processed.add(pair)

            if combined < self.match_threshold:
                continue

            # declare the match and merge the two clusters: the first
            # description's root wins
            result.matches.append(pair)
            if attribute_score < self.match_threshold <= combined:
                result.relational_rescues += 1
            links.union(first_ordinal, second_ordinal)
            cluster_size[target] += cluster_size[source]
            members_of[target].extend(members_of.pop(source))

            # update phase: re-prioritise (and allow re-evaluation of) pairs whose
            # descriptions are related to the merged clusters -- their relational
            # evidence has changed, so earlier negative decisions may be revised
            affected = {
                neighbour
                for member in members_of[target]
                for neighbour in neighbour_sets[member]
            }
            affected_pairs = {
                queued_pair
                for ordinal in affected
                for queued_pair in pairs_of_ordinal[ordinal]
            }
            for queued_pair in sorted(affected_pairs):
                if links.connected(ordinal_of[queued_pair[0]], ordinal_of[queued_pair[1]]):
                    continue
                new_priority = self._combined_score(
                    attribute_similarity[queued_pair],
                    ordinal_of[queued_pair[0]],
                    ordinal_of[queued_pair[1]],
                    neighbour_sets,
                    links,
                    cluster_size,
                )
                queue.push(queued_pair[0], queued_pair[1], priority=new_priority)
                processed.discard(queued_pair)
                result.requeue_events += 1

        result.clusters = [
            frozenset(identifiers[member] for member in members_of[root])
            for root in sorted(members_of)
            if len(members_of[root]) > 1
        ]
        return result


class AttributeOnlyER:
    """Non-iterative baseline: same candidates and threshold, attribute similarity only.

    Used by benchmarks to quantify how many matches only relational evidence
    can recover (the ``relational_rescues`` of :class:`CollectiveER`).
    ``budget`` caps the scored pairs at the first ``budget`` resolvable
    candidates in sorted order (``None`` or a non-negative ``int``).
    """

    name = "attribute_only"

    def __init__(
        self,
        attribute_matcher: Optional[Matcher] = None,
        match_threshold: float = 0.6,
        budget: Optional[int] = None,
    ) -> None:
        check_budget(budget, f"{type(self).__name__}.budget")
        self.attribute_matcher = attribute_matcher or ProfileSimilarityMatcher(threshold=1.0)
        self.match_threshold = match_threshold
        self.budget = budget

    def resolve(
        self,
        collection: EntityCollection,
        candidates: Union[BlockCollection, Iterable[Comparison], None] = None,
    ) -> CollectiveResult:
        result = CollectiveResult()
        resolvable, scores = _scored_candidates(
            self.attribute_matcher, collection, candidates, limit=self.budget
        )
        result.comparisons_executed = len(scores)
        links = UnionFind()
        for (first, second), score in zip(resolvable, scores):
            if score >= self.match_threshold:
                result.matches.append((first, second))
                # historical orientation: the root of ``second`` wins
                links.union(second, first)

        result.clusters = links.clusters(min_size=2)
        return result
