"""Batched comparison-execution engine for the matching phase.

The per-pair matchers in :mod:`repro.matching.matchers` are the readable
formulation of the matching phase, but they re-derive both descriptions'
token profiles on every comparison.  :class:`MatchingEngine` executes the
same decisions against a columnar
:class:`~repro.text.profile_store.ProfileStore`, in which each description is
tokenised, interned and (in TF-IDF mode) weighted exactly once.

Two paths sit behind one interface, mirroring the meta-blocking engine, and
the matcher's exact type picks one:

* the **batch** path (an exact :class:`ProfileSimilarityMatcher`) has one
  **kernel** and one **exact body**.

  - The kernel (:meth:`MatchingEngine.decide_ordinal_pairs`, over a shared
    pipeline context) decides whole columns of context-ordinal pairs
    from the store's :class:`~repro.text.profile_store.ProfileColumns`: the
    entries of one row of every pair are looked up in the other row with a
    single ``searchsorted`` over the globally sorted key column and summed
    per pair with a single ``bincount``.  No description, profile or
    decision object exists per pair.  Its one-vs-many twin,
    :meth:`MatchingEngine.score_against`, scores a profile outside the
    columns (a merge) token-major: the rows holding each of its tokens come
    from the columns' transpose, and the per-candidate sums are the very
    sums the kernel would form.
  - The exact body (:meth:`MatchingEngine._exact`) scores one pair of cached
    :class:`~repro.text.profile_store.Profile` objects with the very
    expressions of the per-pair matcher: integer intersection counts fed to
    :func:`_set_score`, and :func:`~repro.text.vectorizer.weighted_cosine`
    (``fsum`` dot product over norms the store precomputed with ``fsum``).
    It is the refine step of the kernel and the path of every description
    the context does not own (merges, foreign data).

  **Filter and refine.**  The set similarities are exact in the kernel too:
  shared counts and profile lengths are integers.  A TF-IDF cosine from the
  columns can differ from the exactly rounded one by at most
  :meth:`ProfileColumns.margin <repro.text.profile_store.ProfileColumns.margin>`
  (a few ulps per entry of the longest row, derived there), so a pair whose
  vectorised score is farther than that from ``matcher.threshold`` is decided
  by it, and the rest are re-scored by the exact body.  Every *decision* is
  therefore the per-pair matcher's, bit for bit, on every path.

  **Which value a caller sees.**  Wherever a similarity is output as such --
  :class:`~repro.matching.matchers.MatchDecision.similarity`,
  :attr:`DecisionColumns.similarity <repro.datamodel.pairs.DecisionColumns>`,
  :meth:`~MatchingEngine.similarity_scores`,
  :meth:`~MatchingEngine.score_ordinal_pairs` -- it comes from the exact
  body.  The one exception is :meth:`~MatchingEngine.score_against`, whose
  scores exist to be thresholded by the update phase: they lie on the exact
  score's side of the threshold and within the margin of it.

* the **pairwise** path -- delegates to the per-pair matcher, which remains
  the readable reference (the equivalence suite,
  ``tests/test_matching_equivalence.py``, compares against
  ``matcher.decide_all``) and runs whenever the batch path cannot replicate
  the matcher: :class:`~repro.matching.matchers.RuleBasedMatcher`,
  :class:`~repro.matching.matchers.AttributeWeightedMatcher`, custom
  :class:`~repro.matching.matchers.Matcher` implementations and
  ``ProfileSimilarityMatcher`` *subclasses* (whose overridden behaviour the
  columnar path cannot see).

Because decisions are bit-identical and emitted in input order, which path
runs never changes a workflow's output -- only its speed.  Matching always
runs on the calling process.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison
from repro.matching.matchers import (
    DecisionList,
    MatchDecision,
    Matcher,
    ProfileSimilarityMatcher,
)
from repro.text.profile_store import Profile, ProfileStore
from repro.text.vectorizer import weighted_cosine

import numpy as _np


def _set_score(similarity_name: str, size_a: int, size_b: int, shared: int) -> float:
    """Set similarity from cardinalities, using the exact expressions of
    :mod:`repro.text.similarity` so scores are bit-identical to the oracle."""
    if not size_a and not size_b:
        return 1.0
    if not size_a or not size_b:
        return 0.0
    if similarity_name == "jaccard":
        return shared / (size_a + size_b - shared)
    if similarity_name == "dice":
        return 2 * shared / (size_a + size_b)
    if similarity_name == "overlap":
        return shared / min(size_a, size_b)
    # cosine
    return shared / (size_a * size_b) ** 0.5


def _id_set_score(similarity_name: str, first: frozenset, second: frozenset) -> float:
    """Set similarity of two sets of distinct token ids (the exact set body)."""
    return _set_score(similarity_name, len(first), len(second), len(first & second))


class MatchingEngine:
    """Comparison executor: batched for the library matcher, per-pair otherwise.

    Parameters
    ----------
    matcher:
        The matcher whose decisions are executed.  The batch engine natively
        supports :class:`~repro.matching.matchers.ProfileSimilarityMatcher`
        (both its set-similarity and TF-IDF modes); every other matcher --
        including subclasses -- transparently falls back to the per-pair
        oracle, so the engine is always safe to use.
    context:
        Optional shared :class:`~repro.core.context.PipelineContext`.  When
        given, the engine's profile store is backed by the context: profiles
        of descriptions the context owns come from its interned columns
        (zero re-tokenisation), and transient descriptions (merges) fall
        back to tokenising into the shared vocabulary.  The ordinal entry
        points (:meth:`decide_ordinal_pairs`, :meth:`score_ordinal_pairs`,
        :meth:`score_against`) need one.  Decisions are bit-identical with
        or without a context.
    parallel:
        Accepted and ignored: matching is not a pooled stage.

    Notes
    -----
    An engine instance owns one :class:`~repro.text.profile_store.ProfileStore`
    bound to the first input data it sees; it is meant to live for one
    workflow run (one dataset).  :attr:`last_engine` reports the path the
    matcher's type selects (``"batch"`` or ``"pairwise"``).
    """

    def __init__(
        self,
        matcher: Matcher,
        context=None,
        parallel=None,
    ) -> None:
        self.matcher = matcher
        self.context = context
        self._store: Optional[ProfileStore] = None
        self._store_source: Optional[object] = None
        #: comparisons skipped by the last ``decide_all`` (unresolvable ids)
        self.last_skipped = 0

    # ------------------------------------------------------------------
    @property
    def batch_applicable(self) -> bool:
        """Whether the batch engine can replicate the configured matcher.

        The check is an exact type check, like the meta-blocking engine
        dispatch: subclasses may override ``similarity`` in ways the columnar
        path cannot replicate, so they stay on the per-pair oracle.
        """
        return type(self.matcher) is ProfileSimilarityMatcher

    @property
    def last_engine(self) -> str:
        """The path every call runs: ``"batch"`` or ``"pairwise"``."""
        return "batch" if self.batch_applicable else "pairwise"

    @property
    def store(self) -> Optional[ProfileStore]:
        """The engine's profile store (``None`` until the first batch call)."""
        return self._store

    def invalidate(self, identifier: str) -> bool:
        """Invalidate one entity's store entry (after its description changed)."""
        return self._store.invalidate(identifier) if self._store is not None else False

    def _store_for(self, source: Optional[object]) -> ProfileStore:
        if self._store is None or (source is not None and source is not self._store_source):
            matcher = self.matcher
            # the shared pipeline context backs the store only for data it
            # actually owns (or for explicit pairs, which the update phase
            # resolves against the context's collection); a foreign
            # collection gets a plain per-engine store
            context = self.context
            if context is not None and source is not None and not context.owns(source):
                context = None
            if matcher.vectorizer is not None:
                self._store = ProfileStore(vectorizer=matcher.vectorizer, context=context)
            else:
                self._store = ProfileStore(
                    stop_words=matcher.stop_words,
                    min_token_length=matcher.min_token_length,
                    context=context,
                )
            self._store_source = source
        return self._store

    def _batch_store(self, caller: str, ordinals: bool = False) -> ProfileStore:
        """The store of a batch-only entry point (``ordinals``: context-backed)."""
        if not self.batch_applicable:
            raise ValueError(
                f"{caller} requires the batch engine and a natively supported matcher"
            )
        if ordinals and self.context is None:
            raise ValueError(f"{caller} needs a shared pipeline context")
        return self._store_for(None)

    # ------------------------------------------------------------------
    # the exact body
    # ------------------------------------------------------------------
    def _exact(self, first: Profile, second: Profile) -> float:
        """The per-pair matcher's similarity of two cached profiles, bit for bit."""
        if self.matcher.vectorizer is None:
            return _id_set_score(self.matcher.similarity_name, first.id_set, second.id_set)
        # weight_map is a SparseVector carrying the store's precomputed norm,
        # so this is literally the oracle's cosine over cached columns -- one
        # copy of the bit-identity-critical logic, not a transcription of it
        return weighted_cosine(first.weight_map or {}, second.weight_map or {})

    def _decision(self, comparison: Comparison, score: float) -> MatchDecision:
        return MatchDecision(
            comparison=comparison,
            similarity=score,
            is_match=score >= self.matcher.threshold,
            cost=self.matcher.cost,
        )

    # ------------------------------------------------------------------
    # descriptions in, decisions out (exact similarities)
    # ------------------------------------------------------------------
    def decide_all(
        self,
        comparisons: Sequence[Comparison],
        data: Union[EntityCollection, CleanCleanTask],
    ) -> DecisionList:
        """Decide ``comparisons`` against ``data``; same contract as
        :meth:`Matcher.decide_all`, decisions in input order."""
        if not self.batch_applicable:
            decisions = self.matcher.decide_all(comparisons, data)
            self.last_skipped = decisions.skipped
            return decisions

        profile = self._store_for(data).profile
        decisions = DecisionList()
        for comparison in comparisons:
            first = data.get(comparison.first)
            second = data.get(comparison.second)
            if first is None or second is None:
                decisions.record_skip(comparison.pair)
                continue
            score = self._exact(profile(first), profile(second))
            decisions.append(self._decision(comparison, score))
        self.last_skipped = decisions.skipped
        decisions.warn_if_skipped()
        return decisions

    def decide(
        self, first: EntityDescription, second: EntityDescription
    ) -> MatchDecision:
        """Decide one explicit pair through the engine.

        Even single-pair execution benefits from the store: the profiles of
        both descriptions are cached, so a description compared *K* times by
        an adaptive scheduler is tokenised and weighted only once.
        """
        return self.decide_pairs([(first, second)])[0]

    def decide_pairs(
        self,
        pairs: Sequence[Tuple[EntityDescription, EntityDescription]],
    ) -> List[MatchDecision]:
        """Decide explicit description pairs (no identifier resolution).

        Either side may be a description that lives outside the input
        collection (e.g. a merge); the store caches it by identifier and
        recomputes automatically if a different object later reuses the
        identifier.
        """
        if not self.batch_applicable:
            return [self.matcher.decide(first, second) for first, second in pairs]
        return [
            self._decision(Comparison(first.identifier, second.identifier), score)
            for (first, second), score in zip(pairs, self.similarity_scores(pairs))
        ]

    def similarity_scores(
        self,
        pairs: Sequence[Tuple[EntityDescription, EntityDescription]],
    ) -> List[float]:
        """Exact similarity of explicit description pairs, in input order.

        The object-free core of :meth:`decide_pairs`: on the batch path,
        exactly the ``similarity`` fields its decisions carry.  On the
        pairwise path it falls back, like :meth:`decide_pairs`, to the
        matcher itself: ``matcher.similarity`` per pair, in input order.
        """
        if not self.batch_applicable:
            return [self.matcher.similarity(first, second) for first, second in pairs]
        profile = self._store_for(None).profile
        return [self._exact(profile(first), profile(second)) for first, second in pairs]

    # ------------------------------------------------------------------
    # context ordinals in, flags or scores out
    # ------------------------------------------------------------------
    def score_ordinal_pairs(self, first: Sequence[int], second: Sequence[int]) -> List[float]:
        """Exact similarity of the context descriptions ``first[i]``, ``second[i]``.

        The exact body over :meth:`ProfileStore.ordinal_profile
        <repro.text.profile_store.ProfileStore.ordinal_profile>`: for callers
        that output the similarities (``keep_decisions``).
        """
        profile = self._batch_store("score_ordinal_pairs", ordinals=True).ordinal_profile
        return [self._exact(profile(a), profile(b)) for a, b in zip(first, second)]

    def decide_ordinal_pairs(self, first: Sequence[int], second: Sequence[int]) -> List[bool]:
        """Whether the context descriptions ``first[i]``, ``second[i]`` match.

        The kernel of the matching phase (see the module docstring): one
        pass over the store's profile columns, the exact body only for the
        pairs within the margin of the threshold.  The flags are the
        per-pair matcher's decisions.
        """
        store = self._batch_store("decide_ordinal_pairs", ordinals=True)
        if not len(first):
            return []
        columns = store.columns()
        rows_a = _np.asarray(first, dtype=_np.int64)
        rows_b = _np.asarray(second, dtype=_np.int64)
        shared = columns.shared(rows_a, rows_b)
        if columns.weights is None:
            scores = self._set_scores(
                columns.sizes[rows_a].tolist(), columns.sizes[rows_b].tolist(), shared
            )
        else:
            profile = store.ordinal_profile
            scores = self._cosine_scores(
                shared,
                columns.norms[rows_a] * columns.norms[rows_b],
                columns.margin(),
                lambda i: self._exact(profile(first[i]), profile(second[i])),
            )
        threshold = self.matcher.threshold
        return [score >= threshold for score in scores]

    def score_against(
        self, description: EntityDescription, ordinals: Sequence[int]
    ) -> List[float]:
        """Similarity of ``description`` to each context description in ``ordinals``.

        The one-vs-many entry point of the update/iterate phase: one side is
        a transient description (a merge, tokenised on demand into the shared
        vocabulary and not retained by the store), the other side is named by
        the shared context's ordinals.  The candidates are scored token-major
        (:meth:`ProfileColumns.shared_with
        <repro.text.profile_store.ProfileColumns.shared_with>`: the sums
        :meth:`decide_ordinal_pairs` would form for the pair, bit for bit)
        with the same exact refinement at the threshold.  Scores come back in
        the order of ``ordinals``.  They are for thresholding: ``score >=
        threshold`` is the per-pair matcher's decision on every pair, the set
        similarities are exact, and a TF-IDF cosine farther from the
        threshold than the columns' margin is the vectorised one (within
        that margin of exact).
        """
        store = self._batch_store("score_against", ordinals=True)
        query = store.build(description)
        profile = store.ordinal_profile
        if not len(ordinals):
            return []
        columns = store.columns()
        rows = _np.asarray(ordinals, dtype=_np.int64)
        shared = columns.shared_with(query, rows)
        if columns.weights is None:
            return self._set_scores(repeat(len(query)), columns.sizes[rows].tolist(), shared)
        return self._cosine_scores(
            shared,
            query.norm * columns.norms[rows],
            columns.margin(len(query)),
            lambda i: self._exact(query, profile(ordinals[i])),
        )

    def _set_scores(self, sizes_a, sizes_b, shared) -> List[float]:
        """Set similarities from profile sizes and shared-token counts."""
        # exact integers in, the oracle's expression per pair: (a * b) ** 0.5
        # is not np.sqrt, so the final step stays scalar
        name = self.matcher.similarity_name
        return [
            _set_score(name, size_a, size_b, count)
            for size_a, size_b, count in zip(sizes_a, sizes_b, shared.tolist())
        ]

    def _cosine_scores(self, shared, scale, margin: float, exact) -> List[float]:
        """TF-IDF cosines ``shared / scale``, exact where they decide.

        ``exact(i)`` is the exact body on pair ``i``; it replaces every
        cosine within ``margin`` of the threshold.
        """
        scores = _np.divide(shared, scale, out=_np.zeros(len(scale)), where=scale > 0.0)
        near = _np.abs(scores - self.matcher.threshold) <= margin
        for index in _np.flatnonzero(near).tolist():
            scores[index] = exact(index)
        return scores.tolist()

    # ------------------------------------------------------------------
    def score_id_set_pairs(
        self,
        pairs: Sequence[Tuple[int, int]],
        id_columns: Sequence[Sequence[int]],
    ) -> List[float]:
        """Set-mode scores of ordinal pairs over precomputed token-id columns.

        For callers that already hold one *distinct* token-id column per
        description (the similarity-join array build's
        :class:`~repro.blocking.columns.TokenColumnView`): the exact set
        body over a ``frozenset`` per touched column, no description or
        profile in between.  Requires the batch engine, a natively supported
        set-mode matcher, and columns indexed by the ordinals in ``pairs``.
        """
        if not self.batch_applicable:
            raise ValueError(
                "score_id_set_pairs requires the batch engine and a natively "
                "supported matcher"
            )
        if self.matcher.vectorizer is not None:
            raise ValueError("score_id_set_pairs only supports set-mode matchers")
        name = self.matcher.similarity_name
        sets: Dict[int, frozenset] = {}

        def id_set(ordinal: int) -> frozenset:
            cached = sets.get(ordinal)
            if cached is None:
                sets[ordinal] = cached = frozenset(id_columns[ordinal])
            return cached

        return [_id_set_score(name, id_set(first), id_set(second)) for first, second in pairs]
