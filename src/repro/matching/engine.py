"""Batched comparison-execution engine for the matching phase.

The per-pair matchers in :mod:`repro.matching.matchers` are the readable
formulation of the matching phase, but they re-derive both descriptions'
token profiles on every comparison.  :class:`MatchingEngine` executes the
same decisions against a columnar
:class:`~repro.text.profile_store.ProfileStore` over a
:class:`~repro.core.context.PipelineContext`, in which each description is
tokenised and interned once and (in TF-IDF mode) weighted once.  The
context is the caller's when it owns the data; otherwise the engine builds a
private one over the data, in one place (:meth:`MatchingEngine.over`).

Two paths sit behind one interface, mirroring the meta-blocking engine, and
the matcher's exact type picks one:

* the **batch** path (an exact :class:`ProfileSimilarityMatcher`) has one
  **kernel** and one **exact body**.

  - The kernel (:meth:`MatchingEngine.decide_ordinal_pairs`, over a shared
    pipeline context) decides whole columns of context-ordinal pairs
    from the store's :class:`~repro.text.profile_store.ProfileColumns`: the
    entries of both rows of every pair are sorted stably once as
    ``pair * stride + id`` keys, adjacent equal keys are the shared tokens,
    and their products are summed per pair with a single ``bincount``
    (:meth:`ProfileColumns.shared
    <repro.text.profile_store.ProfileColumns.shared>`).  Ordinal arrays go
    in and a boolean flag array comes out; no description, profile or
    decision object exists per pair.  Its one-vs-many twin,
    :meth:`MatchingEngine.score_against`, scores a profile outside the
    columns (a merge) token-major: the rows holding each of its tokens come
    from the columns' transpose, and the per-candidate sums are the very
    sums the kernel would form.
  - The exact body (:meth:`MatchingEngine._exact`) scores one pair of
    :class:`~repro.text.profile_store.Profile` objects with the very
    expressions of the per-pair matcher: integer intersection counts fed to
    :func:`_set_score`, and :func:`~repro.text.vectorizer.weighted_cosine`
    (``fsum`` dot product over norms the store precomputed with ``fsum``).
    It is the refine step of the kernel and the path of every entry point
    that outputs a similarity (:meth:`MatchingEngine.decide_all`,
    :meth:`MatchingEngine.decide_pairs`, whose merges the store tokenises,
    and :meth:`MatchingEngine.score_ordinal_pairs`).

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
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.context import PipelineContext
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


#: how far a vectorised set cosine may sit from the threshold and still be
#: re-decided by :func:`_set_score`; ``np.sqrt`` and ``pow(x, 0.5)`` differ
#: by about an ulp, and a cosine is at most 1
_COSINE_MARGIN = 1e-12


def _set_matches(similarity_name: str, size_a, sizes_b, shared, threshold: float):
    """``_set_score(similarity_name, a, b, s) >= threshold`` for every
    ``(a, b, s)`` of ``size_a`` (an int or an int64 array) and the int64
    arrays ``sizes_b`` and ``shared``, in one vector expression; no size may
    be zero.

    Integer sizes and counts convert to float64 exactly, so the true
    divisions of jaccard, dice and overlap round as the scalar expressions
    do.  The cosine's ``(a * b) ** 0.5`` is ``pow``, not ``np.sqrt``: a
    cosine within :data:`_COSINE_MARGIN` of the threshold is re-scored by
    the scalar expression.
    """
    if similarity_name == "jaccard":
        scores = shared / (size_a + sizes_b - shared)
    elif similarity_name == "dice":
        scores = 2 * shared / (size_a + sizes_b)
    elif similarity_name == "overlap":
        scores = shared / _np.minimum(sizes_b, size_a)
    else:
        scores = shared / _np.sqrt(size_a * sizes_b)
        near = (_np.abs(scores - threshold) <= _COSINE_MARGIN).nonzero()[0]
        sizes_a = _np.broadcast_to(size_a, scores.shape)
        for position in near.tolist():
            scores[position] = _set_score(
                similarity_name,
                int(sizes_a[position]),
                int(sizes_b[position]),
                int(shared[position]),
            )
    return scores >= threshold


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
        Optional shared :class:`~repro.core.context.PipelineContext`.  The
        batch path reads its profiles off one: those of the descriptions the
        context owns come from its interned columns (zero re-tokenisation),
        and transient descriptions (merges) are tokenised into its
        vocabulary.  The ordinal and explicit-pair entry points need one;
        :meth:`decide_all` runs over the context when it owns the data and
        over a private one otherwise (:meth:`over`).
    parallel:
        Accepted and ignored: matching is not a pooled stage.

    Notes
    -----
    :attr:`last_engine` reports the path the matcher's type selects
    (``"batch"`` or ``"pairwise"``).
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
        #: the engine over a private context of the last data this one's
        #: context does not own
        self._private: Optional["MatchingEngine"] = None

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
    def store(self) -> ProfileStore:
        """The profile store over the engine's context (built on first use)."""
        if self._store is None:
            if not self.batch_applicable:
                raise ValueError(
                    "the profile store requires the batch engine and a natively "
                    "supported matcher"
                )
            if self.context is None:
                raise ValueError("the profile store needs a shared pipeline context")
            matcher = self.matcher
            self._store = ProfileStore(
                self.context, matcher.stop_words, matcher.min_token_length, matcher.vectorizer
            )
        return self._store

    def over(self, data: Union[EntityCollection, CleanCleanTask]) -> "MatchingEngine":
        """The engine that runs over ``data``.

        This one when its matcher runs per pair or its context owns
        ``data``; otherwise an engine over a private context of ``data``,
        kept until data of another identity comes.
        """
        if not self.batch_applicable or (self.context is not None and self.context.owns(data)):
            return self
        if self._private is None or not self._private.context.owns(data):
            self._private = MatchingEngine(self.matcher, context=PipelineContext(data))
        return self._private

    # ------------------------------------------------------------------
    # the exact body
    # ------------------------------------------------------------------
    def _exact(self, first: Profile, second: Profile) -> float:
        """The per-pair matcher's similarity of two profiles, bit for bit."""
        if self.matcher.vectorizer is None:
            first, second = first.id_set, second.id_set
            return _set_score(
                self.matcher.similarity_name, len(first), len(second), len(first & second)
            )
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
            return self.matcher.decide_all(comparisons, data)
        engine = self.over(data)
        ordinal = engine.context.ordinal
        profile = engine.store.ordinal_profile
        decisions = DecisionList()
        for comparison in comparisons:
            first = ordinal(comparison.first)
            second = ordinal(comparison.second)
            if first is None or second is None:
                decisions.record_skip(comparison.pair)
                continue
            score = self._exact(profile(first), profile(second))
            decisions.append(self._decision(comparison, score))
        decisions.warn_if_skipped()
        return decisions

    def decide(
        self, first: EntityDescription, second: EntityDescription
    ) -> MatchDecision:
        """Decide one explicit pair through the engine."""
        return self.decide_pairs([(first, second)])[0]

    def decide_pairs(
        self,
        pairs: Sequence[Tuple[EntityDescription, EntityDescription]],
    ) -> List[MatchDecision]:
        """Decide explicit description pairs (no identifier resolution).

        Either side may be a description the context does not own (e.g. a
        merge); :meth:`ProfileStore.build
        <repro.text.profile_store.ProfileStore.build>` tokenises it.
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
        build = self.store.build
        return [self._exact(build(first), build(second)) for first, second in pairs]

    # ------------------------------------------------------------------
    # context ordinals in, flags or scores out
    # ------------------------------------------------------------------
    def score_ordinal_pairs(self, first: Sequence[int], second: Sequence[int]) -> List[float]:
        """Exact similarity of the context descriptions ``first[i]``, ``second[i]``.

        The exact body over :meth:`ProfileStore.ordinal_profile
        <repro.text.profile_store.ProfileStore.ordinal_profile>`: for callers
        that output the similarities (``keep_decisions``).
        """
        profile = self.store.ordinal_profile
        return [self._exact(profile(a), profile(b)) for a, b in zip(first, second)]

    def decide_ordinal_pairs(self, first, second):
        """Whether the context descriptions ``first[i]``, ``second[i]`` match.

        The kernel of the matching phase (see the module docstring): ordinal
        columns in (int64 arrays or sequences), a boolean array of flags
        out.  One pass over the store's profile columns; the exact body
        only for the pairs within the margin of the threshold.  The flags
        are the per-pair matcher's decisions.
        """
        store = self.store
        rows_a = _np.asarray(first, dtype=_np.int64)
        rows_b = _np.asarray(second, dtype=_np.int64)
        if not len(rows_a):
            return _np.zeros(0, dtype=_np.bool_)
        columns = store.columns()
        shared = columns.shared(rows_a, rows_b)
        threshold = self.matcher.threshold
        if columns.weights is None:
            sizes_a, sizes_b = columns.sizes[rows_a], columns.sizes[rows_b]
            filled = (sizes_a > 0) & (sizes_b > 0)
            # an empty profile scores 1 against an empty one, else 0
            flags = _np.where(sizes_a == sizes_b, True, threshold <= 0.0)
            flags[filled] = _set_matches(
                self.matcher.similarity_name,
                sizes_a[filled],
                sizes_b[filled],
                shared[filled],
                threshold,
            )
            return flags
        profile = store.ordinal_profile
        scores = self._cosine_scores(
            shared,
            columns.norms[rows_a] * columns.norms[rows_b],
            columns.margin(),
            lambda i: self._exact(profile(int(rows_a[i])), profile(int(rows_b[i]))),
        )
        return scores >= threshold

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
        store = self.store
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
        ).tolist()

    def _set_scores(self, sizes_a, sizes_b, shared) -> List[float]:
        """Set similarities from profile sizes and shared-token counts."""
        # exact integers in, the oracle's expression per pair: (a * b) ** 0.5
        # is not np.sqrt, so the final step stays scalar
        name = self.matcher.similarity_name
        return [
            _set_score(name, size_a, size_b, count)
            for size_a, size_b, count in zip(sizes_a, sizes_b, shared.tolist())
        ]

    def _cosine_scores(self, shared, scale, margin: float, exact):
        """TF-IDF cosines ``shared / scale`` (a float64 array), exact where
        they decide.

        ``exact(i)`` is the exact body on pair ``i``; it replaces every
        cosine within ``margin`` of the threshold.
        """
        scores = _np.divide(shared, scale, out=_np.zeros(len(scale)), where=scale > 0.0)
        near = _np.abs(scores - self.matcher.threshold) <= margin
        for index in _np.flatnonzero(near).tolist():
            scores[index] = exact(index)
        return scores
