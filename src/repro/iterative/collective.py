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

Like the merging-based resolvers, both classes here pick their path by the
attribute matcher's exact type: for a
:class:`~repro.matching.matchers.ProfileSimilarityMatcher` the array path
scores the initialisation phase in
one batched call and keeps the cluster state in an
:class:`~repro.core.unionfind.IntUnionFind` over description ordinals
instead of dictionaries of identifier sets; any other matcher runs the
dictionary-based object path.  Queue order, comparison
counts, matches, rescue/requeue statistics and the final cluster list
(ordered by ascending surviving cluster index, the oracle's dict order)
are bit-identical to the object path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.blocking.base import BlockCollection
from repro.core.unionfind import IntUnionFind, UnionFind
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison, canonical_pair
from repro.iterative.queue import ComparisonQueue
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
        Optional maximum number of similarity evaluations.
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
        self.attribute_matcher = attribute_matcher or ProfileSimilarityMatcher(threshold=1.0)
        self.match_threshold = match_threshold
        self.relationship_weight = relationship_weight
        self.candidate_threshold = candidate_threshold
        self.combination = combination
        self.budget = budget
        #: engine that actually executed the last resolve call
        self.last_engine: Optional[str] = None

    # ------------------------------------------------------------------
    # relational structure
    # ------------------------------------------------------------------
    @staticmethod
    def _neighbour_index(collection: EntityCollection) -> Dict[str, Set[str]]:
        """Undirected neighbourhood: related identifiers in either direction."""
        neighbours: Dict[str, Set[str]] = {d.identifier: set() for d in collection}
        for description in collection:
            for target in description.related():
                if target in neighbours:
                    neighbours[description.identifier].add(target)
                    neighbours[target].add(description.identifier)
        return neighbours

    def _relational_similarity(
        self,
        first: str,
        second: str,
        neighbours: Dict[str, Set[str]],
        cluster_of: Dict[str, int],
    ) -> float:
        """Jaccard similarity of the *clusters* of the two descriptions' neighbours."""
        clusters_a = {cluster_of[n] for n in neighbours.get(first, ()) if n in cluster_of}
        clusters_b = {cluster_of[n] for n in neighbours.get(second, ()) if n in cluster_of}
        if not clusters_a or not clusters_b:
            return 0.0
        return jaccard_similarity(clusters_a, clusters_b)

    @staticmethod
    def _has_relational_evidence(
        first: str,
        second: str,
        neighbours: Dict[str, Set[str]],
        cluster_of: Dict[str, int],
        cluster_members: Dict[int, Set[str]],
    ) -> bool:
        """Whether any neighbour of either description belongs to a non-singleton cluster.

        Before any related match has been found, the relational similarity is
        necessarily 0 for every pair; treating that absence of evidence as
        negative evidence would penalise all pairs uniformly.  The combined
        score therefore falls back to the attribute similarity until at least
        one neighbour has been resolved into a cluster of two or more
        descriptions.
        """
        for identifier in (first, second):
            for neighbour in neighbours.get(identifier, ()):
                cluster_index = cluster_of.get(neighbour)
                if cluster_index is not None and len(cluster_members.get(cluster_index, ())) > 1:
                    return True
        return False

    def _combined_score(
        self,
        attribute_score: float,
        first: str,
        second: str,
        neighbours: Dict[str, Set[str]],
        cluster_of: Dict[str, int],
        cluster_members: Dict[int, Set[str]],
    ) -> float:
        """Combine attribute and relational similarity according to ``combination``."""
        if not self._has_relational_evidence(first, second, neighbours, cluster_of, cluster_members):
            # no resolved neighbour anywhere near this pair yet: the relational
            # signal is absent, not negative, so rely on attributes alone
            return attribute_score
        relational_score = self._relational_similarity(first, second, neighbours, cluster_of)
        weighted = (
            (1.0 - self.relationship_weight) * attribute_score
            + self.relationship_weight * relational_score
        )
        if self.combination == "boost":
            return max(attribute_score, weighted)
        return weighted

    # ------------------------------------------------------------------
    # array engine: ordinal cluster state + batched initialisation
    # ------------------------------------------------------------------
    def _combined_score_ordinals(
        self,
        attribute_score: float,
        first: int,
        second: int,
        neighbour_sets: List[Set[int]],
        links: IntUnionFind,
        cluster_size: List[int],
    ) -> float:
        """Ordinal twin of :meth:`_combined_score`.

        Cluster labels are union--find roots; they coincide with the
        oracle's dictionary labels by induction (the winning side of every
        merge is the first description's root in both), and the Jaccard of
        the neighbour-cluster sets only depends on label *identity*, so the
        scores are bit-identical.
        """
        find = links.find
        has_evidence = False
        for ordinal in (first, second):
            for neighbour in neighbour_sets[ordinal]:
                if cluster_size[find(neighbour)] > 1:
                    has_evidence = True
                    break
            if has_evidence:
                break
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

    def _resolve_array(
        self,
        collection: EntityCollection,
        candidates: Union[BlockCollection, Iterable[Comparison], None],
    ) -> CollectiveResult:
        from repro.matching.engine import MatchingEngine

        result = CollectiveResult()
        identifiers = [description.identifier for description in collection]
        n = len(identifiers)
        ordinal_of = {identifier: ordinal for ordinal, identifier in enumerate(identifiers)}

        neighbour_sets: List[Set[int]] = [set() for _ in range(n)]
        for ordinal, description in enumerate(collection):
            for target in description.related():
                target_ordinal = ordinal_of.get(target)
                if target_ordinal is not None:
                    neighbour_sets[ordinal].add(target_ordinal)
                    neighbour_sets[target_ordinal].add(ordinal)

        # ----- initialisation phase: one batched scoring call -----------
        scoring = MatchingEngine(self.attribute_matcher)
        resolvable: List[Tuple[str, str]] = []
        batch: List[Tuple[EntityDescription, EntityDescription]] = []
        for first, second in sorted(_candidate_pairs(collection, candidates)):
            description_a = collection.get(first)
            description_b = collection.get(second)
            if description_a is None or description_b is None:
                continue
            resolvable.append((first, second))
            batch.append((description_a, description_b))
        scores = scoring.similarity_scores(batch) if batch else []
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
            combined = self._combined_score_ordinals(
                attribute_score, first_ordinal, second_ordinal, neighbour_sets, links, cluster_size
            )
            result.comparisons_executed += 1
            processed.add(pair)

            if combined < self.match_threshold:
                continue

            result.matches.append(pair)
            if attribute_score < self.match_threshold <= combined:
                result.relational_rescues += 1
            # the first description's root wins, like the oracle's ``target``
            links.union(first_ordinal, second_ordinal)
            cluster_size[target] += cluster_size[source]
            members_of[target].extend(members_of.pop(source))

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
                new_priority = self._combined_score_ordinals(
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

        # ascending surviving root order == the oracle's dict iteration order
        result.clusters = [
            frozenset(identifiers[member] for member in members_of[root])
            for root in sorted(members_of)
            if len(members_of[root]) > 1
        ]
        return result

    # ------------------------------------------------------------------
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
        if type(self.attribute_matcher) is ProfileSimilarityMatcher:
            self.last_engine = "array"
            return self._resolve_array(collection, candidates)
        self.last_engine = "object"
        return self._resolve_object(collection, candidates)

    def _resolve_object(
        self,
        collection: EntityCollection,
        candidates: Union[BlockCollection, Iterable[Comparison], None] = None,
    ) -> CollectiveResult:
        result = CollectiveResult()
        neighbours = self._neighbour_index(collection)

        # every description starts in its own cluster
        cluster_of: Dict[str, int] = {
            description.identifier: index for index, description in enumerate(collection)
        }
        cluster_members: Dict[int, Set[str]] = {
            index: {identifier} for identifier, index in cluster_of.items()
        }

        # ----- initialisation phase: fill the queue --------------------
        candidate_pairs = _candidate_pairs(collection, candidates)

        attribute_similarity: Dict[Tuple[str, str], float] = {}
        pairs_of_identifier: Dict[str, List[Tuple[str, str]]] = {}
        queue = ComparisonQueue()
        for first, second in sorted(candidate_pairs):
            description_a = collection.get(first)
            description_b = collection.get(second)
            if description_a is None or description_b is None:
                continue
            score = self.attribute_matcher.similarity(description_a, description_b)
            result.comparisons_executed += 1
            if score >= self.candidate_threshold:
                attribute_similarity[(first, second)] = score
                pairs_of_identifier.setdefault(first, []).append((first, second))
                pairs_of_identifier.setdefault(second, []).append((first, second))
                queue.push(first, second, priority=score)

        # ----- iterative phase -----------------------------------------
        processed: Set[Tuple[str, str]] = set()
        while len(queue) > 0:
            if self.budget is not None and result.comparisons_executed >= self.budget:
                break
            pair = queue.pop()
            if pair is None:
                break
            if pair in processed:
                continue
            first, second = pair
            if cluster_of[first] == cluster_of[second]:
                processed.add(pair)
                continue

            attribute_score = attribute_similarity.get(pair, 0.0)
            combined = self._combined_score(
                attribute_score, first, second, neighbours, cluster_of, cluster_members
            )
            result.comparisons_executed += 1
            processed.add(pair)

            if combined < self.match_threshold:
                continue

            # declare the match and merge the two clusters
            result.matches.append(pair)
            if attribute_score < self.match_threshold <= combined:
                result.relational_rescues += 1
            source = cluster_of[second]
            target = cluster_of[first]
            for member in cluster_members[source]:
                cluster_of[member] = target
            cluster_members[target].update(cluster_members[source])
            del cluster_members[source]

            # update phase: re-prioritise (and allow re-evaluation of) pairs whose
            # descriptions are related to the merged clusters -- their relational
            # evidence has changed, so earlier negative decisions may be revised
            affected = {
                neighbour
                for member in cluster_members[target]
                for neighbour in neighbours.get(member, ())
            }
            affected_pairs = {
                queued_pair
                for identifier in affected
                for queued_pair in pairs_of_identifier.get(identifier, ())
            }
            for queued_pair in sorted(affected_pairs):
                if cluster_of[queued_pair[0]] == cluster_of[queued_pair[1]]:
                    continue
                new_priority = self._combined_score(
                    attribute_similarity[queued_pair],
                    queued_pair[0],
                    queued_pair[1],
                    neighbours,
                    cluster_of,
                    cluster_members,
                )
                queue.push(queued_pair[0], queued_pair[1], priority=new_priority)
                processed.discard(queued_pair)
                result.requeue_events += 1

        result.clusters = [frozenset(members) for members in cluster_members.values() if len(members) > 1]
        return result


class AttributeOnlyER:
    """Non-iterative baseline: same candidates and threshold, attribute similarity only.

    Used by benchmarks to quantify how many matches only relational evidence
    can recover (the ``relational_rescues`` of :class:`CollectiveER`).
    """

    name = "attribute_only"

    def __init__(
        self,
        attribute_matcher: Optional[Matcher] = None,
        match_threshold: float = 0.6,
        budget: Optional[int] = None,
    ) -> None:
        self.attribute_matcher = attribute_matcher or ProfileSimilarityMatcher(threshold=1.0)
        self.match_threshold = match_threshold
        self.budget = budget
        #: engine that actually executed the last resolve call
        self.last_engine: Optional[str] = None

    def resolve(
        self,
        collection: EntityCollection,
        candidates: Union[BlockCollection, Iterable[Comparison], None] = None,
    ) -> CollectiveResult:
        if type(self.attribute_matcher) is ProfileSimilarityMatcher:
            self.last_engine = "array"
            return self._resolve_array(collection, candidates)
        self.last_engine = "object"
        return self._resolve_object(collection, candidates)

    def _resolve_array(
        self,
        collection: EntityCollection,
        candidates: Union[BlockCollection, Iterable[Comparison], None],
    ) -> CollectiveResult:
        """One batched scoring call over the first ``budget`` resolvable pairs.

        The oracle stops *before* scoring the pair that would exceed the
        budget and skips unresolvable pairs without counting them, so the
        scored set is exactly the first ``budget`` resolvable pairs in
        sorted order.
        """
        from repro.matching.engine import MatchingEngine

        result = CollectiveResult()
        scoring = MatchingEngine(self.attribute_matcher)
        resolvable: List[Tuple[str, str]] = []
        batch: List[Tuple[EntityDescription, EntityDescription]] = []
        for first, second in sorted(_candidate_pairs(collection, candidates)):
            if self.budget is not None and len(resolvable) >= self.budget:
                break
            description_a = collection.get(first)
            description_b = collection.get(second)
            if description_a is None or description_b is None:
                continue
            resolvable.append((first, second))
            batch.append((description_a, description_b))
        scores = scoring.similarity_scores(batch) if batch else []

        links = UnionFind()
        for (first, second), score in zip(resolvable, scores):
            result.comparisons_executed += 1
            if score >= self.match_threshold:
                result.matches.append((first, second))
                # historical orientation: the root of ``second`` wins
                links.union(second, first)

        result.clusters = links.clusters(min_size=2)
        return result

    def _resolve_object(
        self,
        collection: EntityCollection,
        candidates: Union[BlockCollection, Iterable[Comparison], None],
    ) -> CollectiveResult:
        result = CollectiveResult()
        candidate_pairs = _candidate_pairs(collection, candidates)

        links = UnionFind()

        for first, second in sorted(candidate_pairs):
            if self.budget is not None and result.comparisons_executed >= self.budget:
                break
            description_a = collection.get(first)
            description_b = collection.get(second)
            if description_a is None or description_b is None:
                continue
            score = self.attribute_matcher.similarity(description_a, description_b)
            result.comparisons_executed += 1
            if score >= self.match_threshold:
                result.matches.append((first, second))
                # historical orientation: the root of ``second`` wins
                links.union(second, first)

        result.clusters = links.clusters(min_size=2)
        return result
