"""Incremental entity resolution for evolving collections.

The tutorial motivates ER over descriptions that are "partial, overlapping
and sometimes evolving": new descriptions keep arriving as KBs are updated,
and a batch pipeline would re-resolve the world per arrival.
:class:`IncrementalResolver` instead maintains the resolution state -- a
token inverted index over everything seen so far, the current equivalence
clusters and one merged representation per cluster -- and resolves each
change on arrival:

1. the new description's tokens are looked up in the inverted index and the
   clusters sharing the most tokens become its candidates (candidate
   generation is therefore incremental token blocking);
2. the new description is compared against the *merged representation* of
   each candidate cluster (merging-based iteration), best candidates first;
3. every match merges the description into the cluster -- and can thereby
   transitively join several existing clusters through the newcomer.

Beyond ``add``, the resolver supports the full evolving-collection
lifecycle: :meth:`~IncrementalResolver.remove` retracts a record and
re-resolves its former co-members against the rest of the index (only the
affected neighbourhood is recomputed, via a root->tokens reverse map),
:meth:`~IncrementalResolver.update` replaces a description
(remove + re-add), and :meth:`~IncrementalResolver.resolve` answers the
read-only query "which existing cluster would this record join?" without
mutating any state.

Execution paths
---------------
The matcher's exact type selects one of two paths.  The array path delegates to
:class:`~repro.iterative.index.IncrementalIndex` -- arrivals are interned
once (ordinal, vocabulary ids, merged distinct ids) into a shared
:class:`~repro.core.growable.GrowableContext`, candidates are counted
over array postings by one sorted-run kernel and scored from those
shared-token counts (from token-id set intersections when the matcher
filters tokens unlike the index), and the state can be snapshotted to disk (:meth:`~IncrementalResolver.save`) and
memory-mapped back (:meth:`~IncrementalResolver.restore`).  The object path
in this module is the readable per-pair oracle the array path is tested
against, bit for bit: clusters, merged representations, match decisions and
comparison counts agree at every prefix of any arrival stream.

The array path natively supports a plain set-mode
:class:`~repro.matching.matchers.ProfileSimilarityMatcher`; TF-IDF matchers
(whose global document frequencies keep shifting under online arrivals) and
any other matcher type, subclasses included, run the object path --
``last_engine`` reports what actually ran.

The amortised cost per arrival is bounded by ``max_candidates`` comparisons,
instead of the full re-resolution a batch pipeline would need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Union

from repro.core.unionfind import UnionFind
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription, merge_descriptions
from repro.matching.matchers import Matcher, ProfileSimilarityMatcher
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set


def check_max_candidates(value) -> int:
    """``value`` if it is a positive ``int`` (not a ``bool``), else ``ValueError``."""
    if type(value) is not int or value < 1:
        raise ValueError(f"max_candidates must be a positive int, got {value!r}")
    return value


@dataclass
class ArrivalResult:
    """Outcome of adding one description."""

    identifier: str
    matched_clusters: List[str] = field(default_factory=list)
    comparisons: int = 0

    @property
    def is_new_entity(self) -> bool:
        return not self.matched_clusters


class IncrementalResolver:
    """Maintains clusters of an evolving collection, resolving each arrival on the fly.

    Parameters
    ----------
    matcher:
        Pairwise matcher applied between the arriving description and the
        merged representation of each candidate cluster.
    max_candidates:
        Upper bound on the number of candidate clusters compared per arrival
        (the candidates sharing the most tokens are kept).
    stop_words, min_token_length:
        Tokenisation options of the incremental token index.
    """

    def __init__(
        self,
        matcher: Matcher,
        max_candidates: int = 20,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
    ) -> None:
        self.matcher = matcher
        self.max_candidates = check_max_candidates(max_candidates)
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = min_token_length
        #: engine that actually executed the last operation
        self.last_engine: Optional[str] = None

        self._index = None
        if type(matcher) is ProfileSimilarityMatcher and matcher.vectorizer is None:
            from repro.iterative.index import IncrementalIndex

            self._index = IncrementalIndex(
                matcher,
                max_candidates=max_candidates,
                stop_words=self.stop_words,
                min_token_length=min_token_length,
            )

        self._descriptions: Dict[str, EntityDescription] = {}
        self._token_index: Dict[str, Set[str]] = {}  # token -> cluster roots
        self._links = UnionFind()  # original id -> cluster root (shared union-find)
        self._cluster_members: Dict[str, Set[str]] = {}  # root -> original ids
        self._representation: Dict[str, EntityDescription] = {}  # root -> merged
        # reverse map: root -> tokens it is indexed under, so merges and
        # removals touch only the affected entries instead of scanning the
        # whole token index (which is O(vocabulary) per merge)
        self._root_tokens: Dict[str, Set[str]] = {}
        self._comparisons_executed = 0

    # ------------------------------------------------------------------
    # engine plumbing
    # ------------------------------------------------------------------
    def _run_array(self) -> Optional["object"]:
        if self._index is not None:
            self.last_engine = "array"
            return self._index
        self.last_engine = "object"
        return None

    @property
    def comparisons_executed(self) -> int:
        """Matcher invocations executed so far (both engines count identically)."""
        if self._index is not None:
            return self._index.comparisons_executed
        return self._comparisons_executed

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._index is not None:
            return len(self._index)
        return len(self._descriptions)

    @property
    def num_clusters(self) -> int:
        if self._index is not None:
            return self._index.num_clusters
        return len(self._cluster_members)

    def clusters(self) -> List[FrozenSet[str]]:
        """Current equivalence clusters (including singletons)."""
        index = self._run_array()
        if index is not None:
            return index.clusters()
        return [frozenset(members) for members in self._cluster_members.values()]

    def non_trivial_clusters(self) -> List[FrozenSet[str]]:
        """Clusters with at least two members."""
        index = self._run_array()
        if index is not None:
            return index.non_trivial_clusters()
        return [frozenset(m) for m in self._cluster_members.values() if len(m) > 1]

    def cluster_of(self, identifier: str) -> FrozenSet[str]:
        index = self._run_array()
        if index is not None:
            return index.cluster_of(identifier)
        if identifier not in self._links:
            return frozenset()
        return frozenset(self._cluster_members[self._links.find(identifier)])

    def representation_of(self, identifier: str) -> Optional[EntityDescription]:
        """The current merged representation of the cluster containing ``identifier``."""
        index = self._run_array()
        if index is not None:
            return index.representation_of(identifier)
        if identifier not in self._links:
            return None
        return self._representation[self._links.find(identifier)]

    # ------------------------------------------------------------------
    # resolution (object oracle)
    # ------------------------------------------------------------------
    def _tokens_of(self, description: EntityDescription) -> Set[str]:
        return token_set(
            description.values(),
            stop_words=self.stop_words,
            min_length=self.min_token_length,
        )

    def _candidate_roots(self, tokens: Set[str]) -> List[str]:
        """Cluster roots sharing tokens with the arrival, most shared tokens first."""
        shared_counts: Dict[str, int] = {}
        for token in tokens:
            for root in self._token_index.get(token, ()):
                shared_counts[root] = shared_counts.get(root, 0) + 1
        ranked = sorted(shared_counts, key=lambda root: (-shared_counts[root], root))
        return ranked[: self.max_candidates]

    def _merge_into(self, target_root: str, source_root: str) -> str:
        """Merge the cluster of ``source_root`` into ``target_root``; return the surviving root."""
        if target_root == source_root:
            return target_root
        merged = merge_descriptions(
            self._representation[target_root], self._representation[source_root]
        )
        self._cluster_members[target_root].update(self._cluster_members.pop(source_root))
        self._links.union(target_root, source_root)
        self._representation[target_root] = merged
        del self._representation[source_root]
        # re-point only the absorbed root's token index entries, found via
        # the reverse map -- not a scan of the whole index
        source_tokens = self._root_tokens.pop(source_root)
        for token in source_tokens:
            roots = self._token_index[token]
            roots.discard(source_root)
            roots.add(target_root)
        self._root_tokens[target_root].update(source_tokens)
        return target_root

    def _resolve_arrival(self, description: EntityDescription) -> ArrivalResult:
        """Resolve one (already stored) description against the current state."""
        result = ArrivalResult(identifier=description.identifier)
        tokens = self._tokens_of(description)
        candidates = self._candidate_roots(tokens)

        # start as a singleton cluster
        root = description.identifier
        self._links.find(root)  # register as its own root
        self._cluster_members[root] = {description.identifier}
        self._representation[root] = description
        self._root_tokens[root] = set()

        for candidate_root in candidates:
            candidate_representation = self._representation.get(candidate_root)
            if candidate_representation is None:
                # absorbed by an earlier merge in this very arrival: no
                # matcher call happens, so no comparison is counted
                continue
            # count exactly at the matcher-call site, on every executed call
            result.comparisons += 1
            self._comparisons_executed += 1
            if self.matcher.match(self._representation[root], candidate_representation):
                result.matched_clusters.append(candidate_root)
                root = self._merge_into(root, candidate_root)

        # index the new description's tokens under the (possibly merged) root
        for token in tokens:
            self._token_index.setdefault(token, set()).add(root)
        self._root_tokens[root].update(tokens)
        return result

    def add(self, description: EntityDescription) -> ArrivalResult:
        """Resolve one arriving description against the current state."""
        index = self._run_array()
        if index is not None:
            return index.add(description)
        if description.identifier in self._descriptions:
            raise ValueError(f"duplicate identifier: {description.identifier!r}")
        self._descriptions[description.identifier] = description
        return self._resolve_arrival(description)

    def add_all(self, descriptions: Iterable[EntityDescription]) -> List[ArrivalResult]:
        """Resolve a stream of descriptions in arrival order."""
        return [self.add(description) for description in descriptions]

    def remove(self, identifier: str) -> List[ArrivalResult]:
        """Retract one record and re-resolve its former co-members.

        The record's cluster is dissolved: its postings are cleared through
        the reverse map, then the surviving members re-enter the arrival
        path in their original arrival order -- against the untouched rest
        of the index.  Returns their re-resolution results (comparisons are
        counted as usual).  Raises ``KeyError`` for unknown identifiers.
        """
        index = self._run_array()
        if index is not None:
            return index.remove(identifier)
        if identifier not in self._descriptions:
            raise KeyError(identifier)
        root = self._links.find(identifier)
        members = self._cluster_members.pop(root)
        for token in self._root_tokens.pop(root):
            roots = self._token_index[token]
            roots.discard(root)
            if not roots:
                del self._token_index[token]
        del self._representation[root]
        del self._descriptions[identifier]
        # union edges never cross clusters, so the members' keys can be
        # dropped surgically; survivors re-register as singletons below
        for member in members:
            del self._links.parent[member]
        survivors = [known for known in self._descriptions if known in members]
        return [
            self._resolve_arrival(self._descriptions[survivor])
            for survivor in survivors
        ]

    def update(self, description: EntityDescription) -> ArrivalResult:
        """Replace a record's description: remove, then re-add (re-resolving)."""
        index = self._run_array()
        if index is not None:
            return index.update(description)
        self.remove(description.identifier)
        return self.add(description)

    def resolve(self, description: EntityDescription) -> FrozenSet[str]:
        """Read-only query: the existing cluster ``description`` would join.

        Candidates are ranked exactly as in :meth:`add` and the first match
        (best candidates first) wins; the empty frozenset means the record
        would start a new entity.  No state -- not even a counter -- moves.
        """
        index = self._run_array()
        if index is not None:
            return index.resolve(description)
        tokens = self._tokens_of(description)
        # thresholded matchers are queried through similarity() so a probe
        # may legitimately reuse a stored identifier (e.g. before update);
        # matchers without a threshold fall back to match()
        threshold = getattr(self.matcher, "threshold", None)
        for candidate_root in self._candidate_roots(tokens):
            representation = self._representation.get(candidate_root)
            if representation is None:
                continue
            if threshold is not None:
                is_match = self.matcher.similarity(description, representation) >= threshold
            else:
                is_match = self.matcher.match(description, representation)
            if is_match:
                return frozenset(self._cluster_members[candidate_root])
        return frozenset()

    def as_collection(self, name: str = "incremental") -> EntityCollection:
        """All descriptions seen so far, as a collection (insertion order)."""
        index = self._run_array()
        if index is not None:
            return index.as_collection(name=name)
        return EntityCollection(self._descriptions.values(), name=name)

    # ------------------------------------------------------------------
    # persistence (array engine only)
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Snapshot the resolution state to ``path`` (a directory).

        Only the array path has a columnar state to persist; the object
        path raises ``ValueError``.
        """
        index = self._run_array()
        if index is None:
            raise ValueError(
                "snapshots require the array path (a plain set-mode "
                "ProfileSimilarityMatcher)"
            )
        index.save(path)

    @classmethod
    def restore(
        cls,
        path: Union[str, Path],
        matcher: Optional[ProfileSimilarityMatcher] = None,
    ) -> "IncrementalResolver":
        """Rebuild a resolver from a snapshot, memory-mapping its columns.

        The matcher is reconstructed from the snapshot manifest unless one
        is supplied (whose configuration must then match).  The restored
        resolver keeps accepting ``add``/``update``/``remove``/``resolve``
        calls without re-interning the archived arrivals; only
        ``representation_of``/``as_collection`` need the original
        description objects and stay unavailable.
        """
        from repro.iterative.index import IncrementalIndex

        index = IncrementalIndex.load(path, matcher=matcher)
        resolver = cls(
            index.matcher,
            max_candidates=index.max_candidates,
            stop_words=index.stop_words,
            min_token_length=index.min_token_length,
        )
        resolver._index = index
        return resolver
