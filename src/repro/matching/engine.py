"""Batched comparison-execution engine for the matching phase.

The per-pair matchers in :mod:`repro.matching.matchers` are the readable
formulation of the matching phase, but they re-derive both descriptions'
token profiles on every comparison.  :class:`MatchingEngine` executes the
same decisions in batches against a columnar
:class:`~repro.text.profile_store.ProfileStore`: each description is
tokenised, interned and (in TF-IDF mode) weighted exactly once, and candidate
pairs are then scored in passes over flat integer/float columns.

Two engines sit behind one interface, mirroring the meta-blocking engines of
PR 1:

* ``engine="batch"`` (the default) -- resolves candidate pairs against the
  profile store and scores them in vectorised passes: NumPy when importable
  (token-id gathers against a vocabulary-sized scratch column, grouped by the
  left-hand description so its column is scattered once per group), and a
  pure-Python fallback over cached ``frozenset``/dict views.  Both paths are
  bit-identical to each other *and* to the per-pair matcher:

  - set similarities reduce to integer intersection counts, and the final
    score is computed with the very expressions of
    :mod:`repro.text.similarity`;
  - the TF-IDF cosine accumulates the dot product with :func:`math.fsum`
    (exactly rounded, order-independent) over elementwise products that IEEE
    multiplication makes identical regardless of operand order, and divides
    by the norms the store precomputed with ``fsum`` -- matching
    :func:`repro.text.vectorizer.weighted_cosine` bit for bit.

* ``engine="pairwise"`` -- delegates to the per-pair matcher, which remains
  the oracle of the equivalence suite (``tests/test_matching_equivalence.py``)
  and the automatic fallback whenever the batch path cannot replicate the
  matcher: :class:`~repro.matching.matchers.RuleBasedMatcher`,
  :class:`~repro.matching.matchers.AttributeWeightedMatcher`, custom
  :class:`~repro.matching.matchers.Matcher` implementations and
  ``ProfileSimilarityMatcher`` *subclasses* (whose overridden behaviour the
  columnar path cannot see) all run pairwise even under ``engine="batch"``.

Because decisions are bit-identical and emitted in input order, swapping the
engines never changes a workflow's output -- only its speed.

Besides pairs, the batch engine scores **one description against many**:
:meth:`MatchingEngine.score_against` takes a transient description (a merge
of the update/iterate phase) and the shared context's ordinals of its
candidates, and returns bare scores -- see there for the order rule the
caller must keep.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison, DecisionColumns, OrdinalInterner
from repro.matching.matchers import (
    DecisionList,
    MatchDecision,
    Matcher,
    ProfileSimilarityMatcher,
)
from repro.text.profile_store import Profile, ProfileStore
from repro.text.vectorizer import weighted_cosine

try:  # pragma: no cover - exercised implicitly when numpy is installed
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Execution engines of the matching phase.
MATCHING_ENGINES = ("batch", "pairwise")


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


class MatchingEngine:
    """Comparison executor with a batched and a per-pair (oracle) engine.

    Parameters
    ----------
    matcher:
        The matcher whose decisions are executed.  The batch engine natively
        supports :class:`~repro.matching.matchers.ProfileSimilarityMatcher`
        (both its set-similarity and TF-IDF modes); every other matcher --
        including subclasses -- transparently falls back to the per-pair
        oracle, so the engine is always safe to use.
    engine:
        ``"batch"`` (default) or ``"pairwise"``.
    use_numpy:
        Force (``True``, raising :class:`ValueError` when NumPy is not
        importable) or forbid (``False``) the vectorised scoring path;
        ``None`` uses NumPy whenever importable.  Both paths are
        bit-identical.
    context:
        Optional shared :class:`~repro.core.context.PipelineContext`.  When
        given, the engine's profile store is backed by the context: profiles
        of descriptions the context owns are built from its interned columns
        (zero re-tokenisation), and transient descriptions (merges) fall
        back to tokenising into the shared vocabulary.  Decisions are
        bit-identical with or without a context.
    parallel:
        Optional :class:`~repro.mapreduce.parallel.ParallelEngine`.  When
        given (together with a context), :meth:`similarity_scores` batches
        whose descriptions all resolve to context ordinals are scored by
        worker processes over the context's shared columns -- bit-identical
        to the single-process batch path.  Batches touching transient
        descriptions (e.g. merges), or of fewer than two pairs, silently
        stay single-process, and so does :meth:`score_against`.

    Notes
    -----
    An engine instance owns one :class:`~repro.text.profile_store.ProfileStore`
    bound to the first input data it sees; it is meant to live for one
    workflow run (one dataset).  :attr:`last_engine` reports which engine
    actually executed the most recent call (``"batch"``, ``"pairwise"``, or
    ``"parallel"`` when a :class:`~repro.mapreduce.parallel.ParallelEngine`
    scored the batch).
    """

    def __init__(
        self,
        matcher: Matcher,
        engine: str = "batch",
        use_numpy: Optional[bool] = None,
        context=None,
        parallel=None,
    ) -> None:
        if engine not in MATCHING_ENGINES:
            raise ValueError(f"unknown engine {engine!r}; available: {MATCHING_ENGINES}")
        if use_numpy and _np is None:
            raise ValueError(
                "use_numpy=True but numpy is not importable; "
                "pass use_numpy=None to fall back automatically"
            )
        self.matcher = matcher
        self.engine = engine
        self.context = context
        self.parallel = parallel
        self._use_numpy = (_np is not None) if use_numpy is None else bool(use_numpy)
        self._store: Optional[ProfileStore] = None
        self._store_source: Optional[object] = None
        #: engine that actually executed the last call
        self.last_engine: Optional[str] = None
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
        return self.engine == "batch" and type(self.matcher) is ProfileSimilarityMatcher

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

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def decide_all(
        self,
        comparisons: Sequence[Comparison],
        data: Union[EntityCollection, CleanCleanTask],
    ) -> DecisionList:
        """Decide ``comparisons`` against ``data``; same contract as
        :meth:`Matcher.decide_all`, decisions in input order."""
        if not self.batch_applicable:
            self.last_engine = "pairwise"
            decisions = self.matcher.decide_all(comparisons, data)
            self.last_skipped = decisions.skipped
            return decisions

        self.last_engine = "batch"
        store = self._store_for(data)
        resolved: List[Tuple[Comparison, Profile, Profile]] = []
        decisions = DecisionList()
        for comparison in comparisons:
            first = data.get(comparison.first)
            second = data.get(comparison.second)
            if first is None or second is None:
                decisions.record_skip(comparison.pair)
                continue
            resolved.append((comparison, store.profile(first), store.profile(second)))
        scores = self._score(store, [(a, b) for _, a, b in resolved])
        matcher = self.matcher
        threshold = matcher.threshold
        cost = matcher.cost
        decisions.extend(
            MatchDecision(
                comparison=comparison,
                similarity=score,
                is_match=score >= threshold,
                cost=cost,
            )
            for (comparison, _, _), score in zip(resolved, scores)
        )
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
        if not self.batch_applicable:
            self.last_engine = "pairwise"
            return self.matcher.decide(first, second)
        self.last_engine = "batch"
        store = self._store_for(None)
        score = self._score(store, [(store.profile(first), store.profile(second))])[0]
        return MatchDecision(
            comparison=Comparison(first.identifier, second.identifier),
            similarity=score,
            is_match=score >= self.matcher.threshold,
            cost=self.matcher.cost,
        )

    def decide_pairs(
        self,
        pairs: Sequence[Tuple[EntityDescription, EntityDescription]],
    ) -> List[MatchDecision]:
        """Decide explicit description pairs (no identifier resolution).

        Either side may be a description that lives outside the input
        collection (e.g. a merge); the store caches it by identifier and
        recomputes automatically if a different object later reuses the
        identifier.  The update/iterate phase itself goes through the
        object-free :meth:`score_against`.
        """
        if not self.batch_applicable:
            self.last_engine = "pairwise"
            return [self.matcher.decide(first, second) for first, second in pairs]
        scores = self.similarity_scores(pairs)
        matcher = self.matcher
        threshold = matcher.threshold
        cost = matcher.cost
        return [
            MatchDecision(
                comparison=Comparison(first.identifier, second.identifier),
                similarity=score,
                is_match=score >= threshold,
                cost=cost,
            )
            for (first, second), score in zip(pairs, scores)
        ]

    def similarity_scores(
        self,
        pairs: Sequence[Tuple[EntityDescription, EntityDescription]],
    ) -> List[float]:
        """Raw similarity of explicit description pairs, in input order.

        The object-free core of :meth:`decide_pairs`: the scores it returns
        are exactly the ``similarity`` fields the decision objects would
        carry, but nothing per-pair is materialised -- the progressive
        runner's columnar drain feeds them straight into a
        :class:`~repro.datamodel.pairs.DecisionColumns`.  Only valid on the
        batch path (:attr:`batch_applicable`); matchers the batch engine
        cannot replicate have no object-free formulation.
        """
        if not self.batch_applicable:
            raise ValueError(
                "similarity_scores requires the batch engine and a natively "
                "supported matcher; use decide_pairs, which falls back to the "
                "per-pair oracle"
            )
        self.last_engine = "batch"
        if self.parallel is not None and self.context is not None and len(pairs) > 1:
            ordinal_pairs = self._resolve_ordinals(pairs)
            if ordinal_pairs is not None:
                self.last_engine = "parallel"
                return self.parallel.similarity_scores(
                    self.context, self.matcher, ordinal_pairs
                )
        store = self._store_for(None)
        profiles = [(store.profile(first), store.profile(second)) for first, second in pairs]
        return self._score(store, profiles)

    def score_against(
        self, description: EntityDescription, ordinals: Sequence[int]
    ) -> List[float]:
        """Similarity of ``description`` to each context description in ``ordinals``.

        The one-vs-many entry point of the update/iterate phase: one side is
        a transient description (a merge, tokenised on demand into the shared
        vocabulary and not retained by the store), the other side is named by
        the shared context's ordinals -- no description, profile pair or
        decision object is touched per candidate.  On the NumPy path the
        query profile is scattered once into a vocabulary-sized column and
        every candidate's profile is gathered in one pass from the store's
        profile CSR (:meth:`ProfileStore.context_columns
        <repro.text.profile_store.ProfileStore.context_columns>`); the
        pure-Python path walks the cached per-ordinal ``id_set`` /
        ``weight_map`` views.  Scores come back in the order of ``ordinals``
        and are bit-identical to ``matcher.similarity`` on every pair: shared
        counts are exact integers fed to :func:`_set_score`, TF-IDF dot
        products are one :func:`math.fsum` per candidate.

        Requires the batch engine, a natively supported matcher
        (:attr:`batch_applicable`) and a shared context.  Always runs on the
        calling process, whatever ``parallel`` is: the query's tokens are not
        in the workers' shared columns.
        """
        if not self.batch_applicable:
            raise ValueError(
                "score_against requires the batch engine and a natively "
                "supported matcher"
            )
        self.last_engine = "batch"
        store = self._store_for(None)
        query = store.build(description)
        if self._use_numpy and len(ordinals) > 1:
            return self._score_against_numpy(store, query, ordinals)
        profiles = store.context_profiles()
        pairs = [(query, profiles[ordinal]) for ordinal in ordinals]
        if store.mode == "tfidf":
            return self._score_tfidf_python(pairs)
        return self._score_sets_python(pairs)

    def _score_against_numpy(
        self, store: ProfileStore, query: Profile, ordinals: Sequence[int]
    ) -> List[float]:
        ptr, token_ids, weights, norms = store.context_columns()
        ordinals = _np.asarray(ordinals, dtype=_np.intp)
        starts = ptr[ordinals]
        sizes = ptr[ordinals + 1] - starts
        # segment i of the gathered stream is [bounds[i], bounds[i + 1])
        bounds = _np.zeros(len(ordinals) + 1, dtype=_np.intp)
        _np.cumsum(sizes, out=bounds[1:])
        gather = _np.repeat(starts - bounds[:-1], sizes) + _np.arange(bounds[-1])
        # the query was built first: its tokens are inside the vocabulary
        # even when the merge interned new ones
        vocabulary_size = store.vocabulary_size
        if weights is None:
            flags = _np.zeros(vocabulary_size, dtype=bool)
            flags[query.np_ids] = True
            running = _np.zeros(len(gather) + 1, dtype=_np.intp)
            _np.cumsum(flags[token_ids[gather]], out=running[1:])
            shared = running[bounds[1:]] - running[bounds[:-1]]
            name = self.matcher.similarity_name
            query_size = len(query)
            return [
                _set_score(name, query_size, size, count)
                for size, count in zip(sizes.tolist(), shared.tolist())
            ]
        scores = [0.0] * len(ordinals)
        query_norm = query.norm
        if not len(query) or query_norm == 0.0:
            return scores
        column = _np.zeros(vocabulary_size, dtype=_np.float64)
        column[query.np_ids] = query.np_weights
        # tokens absent from the query gather 0.0: exact-zero products leave
        # the exactly rounded fsum -- hence the oracle's intersection-only
        # accumulation -- unchanged
        products = (column[token_ids[gather]] * weights[gather]).tolist()
        stops = bounds.tolist()
        segments = zip(stops, stops[1:], norms[ordinals].tolist())
        for index, (start, stop, norm) in enumerate(segments):
            dot = math.fsum(products[start:stop])
            if dot != 0.0 and norm != 0.0:
                scores[index] = dot / (query_norm * norm)
        return scores

    def _resolve_ordinals(
        self,
        pairs: Sequence[Tuple[EntityDescription, EntityDescription]],
    ) -> Optional[List[Tuple[int, int]]]:
        """The context ordinals of every pair, or ``None`` if any description
        is not the context's own object (e.g. a transient merge, whose tokens
        the shared columns do not carry)."""
        context = self.context
        ordinal_of = context.ordinal
        description_of = context.description
        ordinal_pairs: List[Tuple[int, int]] = []
        for first, second in pairs:
            a = ordinal_of(first.identifier)
            b = ordinal_of(second.identifier)
            if (
                a is None
                or b is None
                or description_of(a) is not first
                or description_of(b) is not second
            ):
                return None
            ordinal_pairs.append((a, b))
        return ordinal_pairs

    def decide_columns(
        self,
        pairs: Sequence[Tuple[EntityDescription, EntityDescription]],
    ) -> DecisionColumns:
        """Decide explicit description pairs straight into decision columns.

        The columnar sibling of :meth:`decide_pairs`: on the batch path the
        ordinal/similarity/is_match arrays are emitted directly (zero
        :class:`~repro.matching.matchers.MatchDecision` objects); matchers
        the batch engine cannot replicate fall back to the per-pair oracle
        and its decisions are interned into the same columnar form, so the
        result is bit-identical either way (lazy materialisation through the
        oracle bridge yields the very decisions ``decide_pairs`` returns).
        """
        cost = getattr(self.matcher, "cost", 1.0)
        if not self.batch_applicable:
            return DecisionColumns.from_decisions(self.decide_pairs(pairs), cost=cost)
        scores = self.similarity_scores(pairs)
        threshold = self.matcher.threshold
        intern = OrdinalInterner()
        columns = DecisionColumns(intern.ids, cost=cost)
        for (first, second), score in zip(pairs, scores):
            columns.append(
                intern(first.identifier),
                intern(second.identifier),
                score,
                score >= threshold,
            )
        return columns

    # ------------------------------------------------------------------
    # scoring passes
    # ------------------------------------------------------------------
    def _score(
        self, store: ProfileStore, profile_pairs: Sequence[Tuple[Profile, Profile]]
    ) -> List[float]:
        """Similarity of each profile pair, in input order."""
        if not profile_pairs:
            return []
        # the NumPy passes scatter into a vocabulary-sized scratch column --
        # a win amortised over a batch, pure overhead for a single pair
        # (e.g. adaptive schedulers deciding one comparison at a time), which
        # the bit-identical cached-set/dict path scores in O(profile) instead
        use_numpy = self._use_numpy and len(profile_pairs) > 1
        if store.mode == "tfidf":
            if use_numpy:
                return self._score_tfidf_numpy(store, profile_pairs)
            return self._score_tfidf_python(profile_pairs)
        if use_numpy:
            return self._score_sets_numpy(store, profile_pairs)
        return self._score_sets_python(profile_pairs)

    def _score_sets_python(
        self, profile_pairs: Sequence[Tuple[Profile, Profile]]
    ) -> List[float]:
        name = self.matcher.similarity_name
        scores = []
        for first, second in profile_pairs:
            shared = len(first.id_set & second.id_set)
            scores.append(_set_score(name, len(first), len(second), shared))
        return scores

    def _score_sets_numpy(
        self, store: ProfileStore, profile_pairs: Sequence[Tuple[Profile, Profile]]
    ) -> List[float]:
        name = self.matcher.similarity_name
        scores: List[float] = [0.0] * len(profile_pairs)
        flags = _np.zeros(store.vocabulary_size, dtype=bool)
        for left, group in self._grouped(profile_pairs).items():
            left_ids = left.np_ids
            left_size = len(left)
            flags[left_ids] = True
            non_empty = [(index, right) for index, right in group if len(right)]
            for index, right in group:
                if not len(right):
                    scores[index] = _set_score(name, left_size, 0, 0)
            if len(non_empty) == 1:
                # a single partner: one gather, no concatenation overhead
                index, right = non_empty[0]
                shared = int(flags[right.np_ids].sum())
                scores[index] = _set_score(name, left_size, len(right), shared)
            elif non_empty:
                # one gather for the whole group: concatenate the right
                # profiles' token ids and segment-sum the marked flags
                sizes = [len(right) for _index, right in non_empty]
                offsets = _np.zeros(len(sizes), dtype=_np.intp)
                _np.cumsum(sizes[:-1], out=offsets[1:])
                marked = flags[
                    _np.concatenate([right.np_ids for _index, right in non_empty])
                ]
                shared_counts = _np.add.reduceat(marked, offsets, dtype=_np.intp)
                for (index, right), shared in zip(non_empty, shared_counts.tolist()):
                    scores[index] = _set_score(name, left_size, len(right), shared)
            flags[left_ids] = False
        return scores

    def score_id_set_pairs(
        self,
        pairs: Sequence[Tuple[int, int]],
        id_columns: Sequence[Sequence[int]],
        vocabulary_size: int,
    ) -> List[float]:
        """Set-mode scores of ordinal pairs over precomputed token-id columns.

        The fully columnar entry point of the set scorer: callers that
        already hold one *distinct* token-id column per description (e.g.
        the similarity-join array build's
        :class:`~repro.blocking.columns.TokenColumnView`) score candidate
        ordinal pairs without materialising descriptions or profiles.
        Scores use the exact :func:`_set_score` expressions of every other
        batch path, so they are bit-identical to the per-pair oracle's
        similarities.  Requires the batch engine, a natively supported
        set-mode matcher, and columns indexed by the ordinals in ``pairs``.
        """
        if not self.batch_applicable:
            raise ValueError(
                "score_id_set_pairs requires the batch engine and a natively "
                "supported matcher"
            )
        if getattr(self.matcher, "vectorizer", None) is not None:
            raise ValueError("score_id_set_pairs only supports set-mode matchers")
        self.last_engine = "batch"
        name = self.matcher.similarity_name
        scores: List[float] = [0.0] * len(pairs)
        if self._use_numpy and len(pairs) > 1:
            # runs of equal first ordinals share one scatter of the first
            # column; callers that sort their pairs (the similarity join
            # emits them in ascending canonical order) get one run per
            # distinct left-hand description for free
            np_columns = [_np.asarray(column, dtype=_np.intp) for column in id_columns]
            sizes = [len(column) for column in id_columns]
            flags = _np.zeros(vocabulary_size, dtype=bool)
            total = len(pairs)
            start = 0
            while start < total:
                first = pairs[start][0]
                stop = start + 1
                while stop < total and pairs[stop][0] == first:
                    stop += 1
                first_size = sizes[first]
                seconds = [pairs[index][1] for index in range(start, stop)]
                non_empty = [second for second in seconds if sizes[second]]
                if len(non_empty) < len(seconds):
                    for offset, second in enumerate(seconds):
                        if not sizes[second]:
                            scores[start + offset] = _set_score(name, first_size, 0, 0)
                if non_empty:
                    first_ids = np_columns[first]
                    flags[first_ids] = True
                    if len(non_empty) == 1:
                        shared_counts = [int(flags[np_columns[non_empty[0]]].sum())]
                    else:
                        offsets = _np.zeros(len(non_empty), dtype=_np.intp)
                        _np.cumsum([sizes[s] for s in non_empty[:-1]], out=offsets[1:])
                        marked = flags[
                            _np.concatenate([np_columns[s] for s in non_empty])
                        ]
                        shared_counts = _np.add.reduceat(
                            marked, offsets, dtype=_np.intp
                        ).tolist()
                    counts = iter(shared_counts)
                    for offset, second in enumerate(seconds):
                        second_size = sizes[second]
                        if second_size:
                            scores[start + offset] = _set_score(
                                name, first_size, second_size, next(counts)
                            )
                    flags[first_ids] = False
                start = stop
            return scores
        sets: Dict[int, frozenset] = {}

        def id_set(ordinal: int) -> frozenset:
            cached = sets.get(ordinal)
            if cached is None:
                sets[ordinal] = cached = frozenset(id_columns[ordinal])
            return cached

        for index, (first, second) in enumerate(pairs):
            first_set = id_set(first)
            second_set = id_set(second)
            shared = len(first_set & second_set)
            scores[index] = _set_score(name, len(first_set), len(second_set), shared)
        return scores

    @staticmethod
    def _score_tfidf_python(
        profile_pairs: Sequence[Tuple[Profile, Profile]]
    ) -> List[float]:
        # weight_map is a SparseVector carrying the store's precomputed norm,
        # so this is literally the oracle's cosine over cached columns -- one
        # copy of the bit-identity-critical logic, not a transcription of it
        return [
            weighted_cosine(first.weight_map or {}, second.weight_map or {})
            for first, second in profile_pairs
        ]

    def _score_tfidf_numpy(
        self, store: ProfileStore, profile_pairs: Sequence[Tuple[Profile, Profile]]
    ) -> List[float]:
        scores: List[float] = [0.0] * len(profile_pairs)
        column = _np.zeros(store.vocabulary_size, dtype=_np.float64)
        for left, group in self._grouped(profile_pairs).items():
            if not len(left):
                continue  # empty profile: cosine is 0.0 for the whole group
            left_ids = left.np_ids
            column[left_ids] = left.np_weights
            left_norm = left.norm
            for index, right in group:
                if not len(right):
                    continue
                # tokens absent from the left profile gather 0.0 and
                # contribute exact-zero products, which leave the exactly
                # rounded fsum -- and hence bit-identity with the oracle's
                # intersection-only accumulation -- unchanged
                products = column[right.np_ids] * right.np_weights
                dot = math.fsum(products.tolist())
                if dot == 0.0:
                    continue
                right_norm = right.norm
                if left_norm == 0.0 or right_norm == 0.0:
                    continue
                scores[index] = dot / (left_norm * right_norm)
            column[left_ids] = 0.0
        return scores

    @staticmethod
    def _grouped(
        profile_pairs: Sequence[Tuple[Profile, Profile]]
    ) -> Dict[Profile, List[Tuple[int, Profile]]]:
        """Group pair indices by left profile so its column scatters once."""
        groups: Dict[Profile, List[Tuple[int, Profile]]] = {}
        for index, (first, second) in enumerate(profile_pairs):
            groups.setdefault(first, []).append((index, second))
        return groups
