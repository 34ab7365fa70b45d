"""Batch-vs-pairwise equivalence suite for the matching engines.

The per-pair matchers of :mod:`repro.matching.matchers` are the oracle;
``MatchingEngine``'s batch path must reproduce their decisions *bit for bit* --
exact float equality on every similarity, identical match booleans, identical
order, identical skip accounting -- across every matcher family, at exact
threshold ties, on merged (iterative) descriptions and on degenerate
profiles, through the exact body and the NumPy ordinal-pair kernel alike.
"""

from __future__ import annotations

import math
import random
from array import array

import pytest
from conftest import ReadableMatcher, ReadableScheduler, readable
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.token_blocking import TokenBlocking
from repro.core.context import PipelineContext
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription, merge_descriptions
from repro.datamodel.pairs import Comparison
from repro.matching import (
    AttributeWeightedMatcher,
    MatchingEngine,
    ProfileSimilarityMatcher,
    RuleBasedMatcher,
    ThresholdRule,
)
from repro.progressive.runner import run_progressive
from repro.progressive.scheduler import CostBenefitScheduler
from repro.progressive.schedulers import StaticOrderScheduler, WeightOrderScheduler
from repro.text.profile_store import Profile, ProfileStore
from repro.text.vectorizer import TfIdfVectorizer

VOCABULARY = [
    "alan", "turing", "grace", "hopper", "ada", "lovelace", "london", "york",
    "mathematician", "scientist", "computing", "machine", "enigma", "compiler",
    "navy", "analytical", "bombe", "cambridge", "princeton", "logic",
    # deliberately include stop words and sub-minimum-length tokens
    "the", "of", "and", "a", "b", "42",
]


def _random_collection(seed: int, size: int = 48) -> EntityCollection:
    """A seeded collection with heavy token overlap plus degenerate profiles."""
    rng = random.Random(seed)
    descriptions = []
    for index in range(size):
        attributes = {}
        for attribute in ("name", "city", "occupation")[: rng.randint(1, 3)]:
            attributes[attribute] = " ".join(
                rng.choice(VOCABULARY) for _ in range(rng.randint(1, 6))
            )
        descriptions.append(EntityDescription(f"e{index:03d}", attributes))
    descriptions.append(EntityDescription("empty", {}))
    descriptions.append(EntityDescription("blank", {"name": ""}))
    # stop-word-only: empty profile in set mode, non-empty under TF-IDF
    descriptions.append(EntityDescription("stopwords", {"name": "the of and"}))
    # every token shorter than the default min_token_length of 2
    descriptions.append(EntityDescription("short", {"name": "a b a b"}))
    return EntityCollection(descriptions, name=f"equivalence-{seed}")


def _random_comparisons(collection: EntityCollection, seed: int, count: int = 400):
    identifiers = list(collection.identifiers)
    rng = random.Random(seed + 1)
    comparisons = []
    seen = set()
    while len(comparisons) < count:
        first, second = rng.sample(identifiers, 2)
        comparison = Comparison(first, second)
        if comparison.pair not in seen:
            seen.add(comparison.pair)
            comparisons.append(comparison)
    return comparisons


def _matchers(collection: EntityCollection):
    """One configured matcher per family (batch-native and fallback alike)."""
    vectorizer = TfIdfVectorizer().fit(iter(collection))
    return {
        "profile-jaccard": ProfileSimilarityMatcher(threshold=0.3),
        "profile-dice": ProfileSimilarityMatcher(threshold=0.4, similarity_name="dice"),
        "profile-overlap": ProfileSimilarityMatcher(threshold=0.5, similarity_name="overlap"),
        "profile-cosine": ProfileSimilarityMatcher(threshold=0.35, similarity_name="cosine"),
        "profile-nostop": ProfileSimilarityMatcher(
            threshold=0.3, stop_words=None, min_token_length=1
        ),
        "profile-tfidf": ProfileSimilarityMatcher(threshold=0.25, vectorizer=vectorizer),
        "attribute-weighted": AttributeWeightedMatcher(
            {"name": 2.0, "city": 1.0}, threshold=0.7
        ),
        "rule-based": RuleBasedMatcher([ThresholdRule("name", 0.7)]),
    }


def assert_bit_identical(oracle_decisions, engine_decisions):
    assert len(oracle_decisions) == len(engine_decisions)
    for expected, actual in zip(oracle_decisions, engine_decisions):
        assert actual.comparison.pair == expected.comparison.pair
        # exact float equality: the engines must agree bit for bit
        assert actual.similarity == expected.similarity, expected.comparison.pair
        assert actual.is_match == expected.is_match
        assert actual.cost == expected.cost
    assert engine_decisions.skipped == oracle_decisions.skipped
    assert engine_decisions.skipped_examples == oracle_decisions.skipped_examples


class TestBatchMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "matcher_name",
        [
            "profile-jaccard",
            "profile-dice",
            "profile-overlap",
            "profile-cosine",
            "profile-nostop",
            "profile-tfidf",
            "attribute-weighted",
            "rule-based",
        ],
    )
    def test_all_matcher_families(self, seed, matcher_name):
        collection = _random_collection(seed)
        comparisons = _random_comparisons(collection, seed)
        matcher = _matchers(collection)[matcher_name]
        oracle = matcher.decide_all(comparisons, collection)
        engine = MatchingEngine(matcher)
        assert_bit_identical(oracle, engine.decide_all(comparisons, collection))
        expected_engine = "batch" if matcher_name.startswith("profile") else "pairwise"
        assert engine.last_engine == expected_engine

    def test_clean_clean_task(self):
        left = _random_collection(5, size=20)
        right = EntityCollection(
            [
                EntityDescription(f"r{i}", dict(description.attributes))
                for i, description in enumerate(_random_collection(6, size=20))
            ],
            name="right",
        )
        task = CleanCleanTask(left, right)
        comparisons = [
            Comparison(a, b)
            for a in list(left.identifiers)[:10]
            for b in list(right.identifiers)[:10]
        ]
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        engine = MatchingEngine(matcher)
        assert_bit_identical(
            matcher.decide_all(comparisons, task), engine.decide_all(comparisons, task)
        )

    def test_kernel_flags_equal_the_oracle_decisions(self):
        collection = _random_collection(3)
        comparisons = _random_comparisons(collection, 3)
        context = PipelineContext(collection)
        first = [context.ordinal(comparison.first) for comparison in comparisons]
        second = [context.ordinal(comparison.second) for comparison in comparisons]
        for matcher in (
            ProfileSimilarityMatcher(threshold=0.3),
            ProfileSimilarityMatcher(threshold=0.25, vectorizer=context.fit_vectorizer()),
        ):
            oracle = matcher.decide_all(comparisons, collection)
            engine = MatchingEngine(matcher, context=context)
            assert engine.decide_ordinal_pairs(first, second).tolist() == [
                d.is_match for d in oracle
            ]
            assert engine.score_ordinal_pairs(first, second) == [d.similarity for d in oracle]

    @pytest.mark.parametrize("matcher_name", ["profile-jaccard", "profile-tfidf"])
    def test_a_foreign_decide_all_leaves_the_kernel_working(self, matcher_name):
        """``decide_all`` on data the engine's context does not own runs over
        a private context: the foreign decisions are the matcher's, and the
        ordinal kernel over the engine's own context still answers."""
        own, foreign = _random_collection(3), _random_collection(4)
        matcher = _matchers(own)[matcher_name]
        context = PipelineContext(own)
        engine = MatchingEngine(matcher, context=context)
        comparisons = _random_comparisons(own, 3)
        first = [context.ordinal(comparison.first) for comparison in comparisons]
        second = [context.ordinal(comparison.second) for comparison in comparisons]
        expected = [decision.is_match for decision in matcher.decide_all(comparisons, own)]
        assert engine.decide_ordinal_pairs(first, second).tolist() == expected
        # the same identifiers, other descriptions
        foreign_comparisons = _random_comparisons(foreign, 4)
        assert_bit_identical(
            matcher.decide_all(foreign_comparisons, foreign),
            engine.decide_all(foreign_comparisons, foreign),
        )
        assert engine.decide_ordinal_pairs(first, second).tolist() == expected
        assert engine.store.context is context
        assert_bit_identical(
            matcher.decide_all(comparisons, own), engine.decide_all(comparisons, own)
        )


class TestThresholdTies:
    """At an exact tie the decision is >= on both engines, bit for bit."""

    @pytest.mark.parametrize("use_tfidf", [False, True])
    def test_exact_tie_is_a_match_on_both_engines(self, use_tfidf):
        collection = _random_collection(4)
        comparisons = _random_comparisons(collection, 4, count=50)
        vectorizer = TfIdfVectorizer().fit(iter(collection)) if use_tfidf else None
        probe = ProfileSimilarityMatcher(threshold=0.0, vectorizer=vectorizer)
        scores = [
            d.similarity
            for d in probe.decide_all(comparisons, collection)
            if 0.0 < d.similarity < 1.0
        ]
        assert scores, "expected at least one non-trivial similarity"
        tie = scores[len(scores) // 2]

        for threshold in (tie, min(1.0, math.nextafter(tie, 2.0))):
            matcher = ProfileSimilarityMatcher(threshold=threshold, vectorizer=vectorizer)
            oracle = matcher.decide_all(comparisons, collection)
            engine = MatchingEngine(matcher)
            assert_bit_identical(oracle, engine.decide_all(comparisons, collection))
        # sanity: the tie itself flips exactly at nextafter(threshold)
        at_tie = ProfileSimilarityMatcher(threshold=tie, vectorizer=vectorizer)
        above = ProfileSimilarityMatcher(
            threshold=math.nextafter(tie, 2.0), vectorizer=vectorizer
        )
        tie_engine = MatchingEngine(at_tie)
        above_engine = MatchingEngine(above)
        tie_decisions = tie_engine.decide_all(comparisons, collection)
        above_decisions = above_engine.decide_all(comparisons, collection)
        flipped = [
            (a.is_match, b.is_match)
            for a, b in zip(tie_decisions, above_decisions)
            if a.similarity == tie
        ]
        assert flipped and all(a and not b for a, b in flipped)


class TestMergedDescriptions:
    """The iterative phase compares freshly merged descriptions through the engine."""

    @pytest.mark.parametrize("use_tfidf", [False, True])
    def test_decide_pairs_on_merged_descriptions(self, use_tfidf):
        collection = _random_collection(7)
        descriptions = list(collection)
        vectorizer = TfIdfVectorizer().fit(iter(collection)) if use_tfidf else None
        matcher = ProfileSimilarityMatcher(threshold=0.3, vectorizer=vectorizer)
        engine = MatchingEngine(matcher, context=PipelineContext(collection))
        pairs = []
        for i in range(0, 16, 2):
            merged = merge_descriptions(descriptions[i], descriptions[i + 1])
            pairs.append((merged, descriptions[i + 2]))
        decisions = engine.decide_pairs(pairs)
        assert engine.last_engine == "batch"
        for (first, second), decision in zip(pairs, decisions):
            expected = matcher.decide(first, second)
            assert decision.similarity == expected.similarity
            assert decision.is_match == expected.is_match
            assert decision.comparison.pair == expected.comparison.pair

    def test_reused_identifier_is_recomputed_not_served_stale(self):
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        other = EntityDescription("z", {"name": "alan turing london"})
        version_one = EntityDescription("m", {"name": "alan turing london"})
        version_two = EntityDescription("m", {"name": "grace hopper navy"})
        engine = MatchingEngine(
            matcher, context=PipelineContext(EntityCollection([version_one, other]))
        )
        score_one = engine.decide_pairs([(version_one, other)])[0].similarity
        # same identifier as a description the context owns, different object
        # and content: must not be served that description's profile
        score_two = engine.decide_pairs([(version_two, other)])[0].similarity
        assert score_one == matcher.similarity(version_one, other) == 1.0
        assert score_two == matcher.similarity(version_two, other) == 0.0

    def test_explicit_pairs_need_a_context(self):
        a = EntityDescription("a", {"name": "alan turing"})
        b = EntityDescription("b", {"name": "grace hopper"})
        with pytest.raises(ValueError, match="shared pipeline context"):
            MatchingEngine(ProfileSimilarityMatcher(threshold=0.3)).decide_pairs([(a, b)])


class TestDegenerateProfiles:
    def test_empty_and_stopword_only_profiles(self):
        collection = _random_collection(8)
        degenerate = ["empty", "blank", "stopwords", "short"]
        regular = ["e000", "e001"]
        comparisons = [
            Comparison(a, b)
            for a in degenerate
            for b in degenerate + regular
            if a != b
        ]
        for matcher in (
            ProfileSimilarityMatcher(threshold=0.5),
            ProfileSimilarityMatcher(
                threshold=0.5, vectorizer=TfIdfVectorizer().fit(iter(collection))
            ),
        ):
            oracle = matcher.decide_all(comparisons, collection)
            engine = MatchingEngine(matcher)
            assert_bit_identical(oracle, engine.decide_all(comparisons, collection))
        # two empty set-profiles are identical (similarity 1), empty vs
        # non-empty scores 0; both engines agree on the conventions
        set_engine = MatchingEngine(ProfileSimilarityMatcher(threshold=0.5))
        decisions = {
            d.comparison.pair: d.similarity
            for d in set_engine.decide_all(comparisons, collection)
        }
        assert decisions[Comparison("empty", "stopwords").pair] == 1.0
        assert decisions[Comparison("empty", "e000").pair] == 0.0


class TestSkipAccounting:
    """Satellite: unresolvable comparisons are counted and warned, not dropped silently."""

    @pytest.mark.parametrize("engine_name", ["batch", "pairwise"])
    def test_skips_are_counted_and_warned(self, tiny_collection, engine_name):
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        engine = MatchingEngine(matcher if engine_name == "batch" else readable(matcher))
        comparisons = [
            Comparison("a1", "a2"),
            Comparison("a1", "ghost"),
            Comparison("ghost", "phantom"),
        ]
        with pytest.warns(RuntimeWarning, match="skipped 2 comparison"):
            decisions = engine.decide_all(comparisons, tiny_collection)
        assert len(decisions) == 1
        assert decisions.skipped == 2
        assert decisions.skipped_examples == [("a1", "ghost"), ("ghost", "phantom")]

    def test_no_warning_when_everything_resolves(self, tiny_collection, recwarn):
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        decisions = MatchingEngine(matcher).decide_all(
            [Comparison("a1", "a2")], tiny_collection
        )
        assert decisions.skipped == 0
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


class TestEngineDispatch:
    def test_profile_matcher_subclass_falls_back_to_oracle(self, tiny_collection):
        class Spiced(ProfileSimilarityMatcher):
            def similarity(self, first, second):
                return min(1.0, super().similarity(first, second) + 0.1)

        matcher = Spiced(threshold=0.3)
        engine = MatchingEngine(matcher)
        assert not engine.batch_applicable
        comparisons = [Comparison("a1", "a2")]
        decisions = engine.decide_all(comparisons, tiny_collection)
        assert engine.last_engine == "pairwise"
        assert decisions[0].similarity == matcher.decide_all(comparisons, tiny_collection)[0].similarity


class TestRunnerEquivalence:
    """run_progressive produces identical results on either matching path."""

    @pytest.mark.parametrize("scheduler_factory", [WeightOrderScheduler, CostBenefitScheduler])
    @pytest.mark.parametrize("budget", [None, 150])
    def test_batch_and_pairwise_runs_agree(self, scheduler_factory, budget):
        collection = _random_collection(9)
        comparisons = _random_comparisons(collection, 9, count=300)
        matcher = ProfileSimilarityMatcher(threshold=0.35)
        results = {}
        for path, component in (("batch", matcher), ("pairwise", readable(matcher))):
            results[path] = run_progressive(
                scheduler=scheduler_factory(),
                matcher=component,
                data=collection,
                candidates=comparisons,
                budget=budget,
                keep_decisions=True,
            )
        batch, pairwise = results["batch"], results["pairwise"]
        assert batch.comparisons_executed == pairwise.comparisons_executed
        assert batch.declared_matches == pairwise.declared_matches
        assert batch.budget_spent == pairwise.budget_spent
        assert [d.similarity for d in batch.decisions] == [
            d.similarity for d in pairwise.decisions
        ]

    def test_small_batch_size_changes_nothing(self):
        collection = _random_collection(10)
        comparisons = _random_comparisons(collection, 10, count=120)
        matcher = ProfileSimilarityMatcher(threshold=0.35)
        baseline = run_progressive(
            scheduler=WeightOrderScheduler(),
            matcher=readable(matcher),
            data=collection,
            candidates=comparisons,
            keep_decisions=True,
        )
        for batch_size in (1, 7, 1000):
            result = run_progressive(
                scheduler=WeightOrderScheduler(),
                matcher=matcher,
                data=collection,
                candidates=comparisons,
                batch_size=batch_size,
                keep_decisions=True,
            )
            assert [d.similarity for d in result.decisions] == [
                d.similarity for d in baseline.decisions
            ]
            assert result.declared_matches == baseline.declared_matches


def _run_update_phase(data, engine, ground_truth=None, **config):
    """The workflow with merge iteration on: the default matcher on the batch
    path, or the same matcher as a ``ReadableMatcher`` on the oracle's: not the
    exact library type, so the workflow decides it pair by pair, the way a
    user's own matcher is."""
    from repro.core.config import WorkflowConfig
    from repro.core.workflow import ERWorkflow

    options = WorkflowConfig(iterate_merges=True, **config)
    matcher = None
    if engine == "pairwise":
        vectorizer = TfIdfVectorizer().fit(iter(data)) if options.use_tfidf else None
        matcher = ReadableMatcher(threshold=options.match_threshold, vectorizer=vectorizer)
    return ERWorkflow(options, matcher=matcher).run(data, ground_truth)


class TestWorkflowEquivalence:
    """ERWorkflow output is engine-independent, including the iterate phase."""

    def test_workflow_engines_agree_with_iteration(self, small_dirty_dataset):
        batch, pairwise = (
            _run_update_phase(
                small_dirty_dataset.collection, engine, small_dirty_dataset.ground_truth
            )
            for engine in ("batch", "pairwise")
        )
        assert batch.matches == pairwise.matches
        assert batch.comparisons_executed == pairwise.comparisons_executed
        assert batch.curve.history() == pairwise.curve.history()
        assert sorted(map(sorted, batch.clusters)) == sorted(map(sorted, pairwise.clusters))

    def test_stateful_matcher_is_called_once_per_counted_comparison(
        self, small_dirty_dataset
    ):
        """A noisy oracle draws from a seeded RNG per decide() call: an extra
        call in the iterate phase -- scoring a candidate the cluster check
        then skips, as the batch path may -- would shift the RNG stream under
        every later decision."""
        from repro.core.config import WorkflowConfig
        from repro.core.workflow import ERWorkflow
        from repro.matching.oracle import OracleMatcher

        oracle = OracleMatcher(
            small_dirty_dataset.ground_truth,
            false_negative_rate=0.3,
            false_positive_rate=0.05,
            seed=42,
        )
        result = ERWorkflow(WorkflowConfig(iterate_merges=True), matcher=oracle).run(
            small_dirty_dataset.collection
        )
        update = result.report.stage("update_iterate")
        assert update.notes == "pairwise: OracleMatcher"
        assert update.get("candidates") > update.get("comparisons") > 0
        assert oracle.calls == result.comparisons_executed


def assert_decision_exact(engine, query, scores, exact):
    """The contract of ``score_against(query, ...)``: thresholding gives the
    oracle's decisions; scores are exact in the set modes, and within the
    columns' margin (for the query's length) of exact on the TF-IDF kernel."""
    threshold = engine.matcher.threshold
    assert [score >= threshold for score in scores] == [
        score >= threshold for score in exact
    ]
    if engine.matcher.vectorizer is None or not exact:
        assert scores == exact
    else:
        margin = engine.store.columns().margin(len(engine.store.build(query)))
        assert scores == pytest.approx(exact, rel=0, abs=margin)


def _assert_same_update_phase(batch, pairwise):
    assert batch.matches == pairwise.matches  # same pairs, same order
    assert batch.comparisons_executed == pairwise.comparisons_executed
    assert batch.iterations == pairwise.iterations
    batch_stage = batch.report.stage("update_iterate")
    pairwise_stage = pairwise.report.stage("update_iterate")
    assert batch_stage.notes == "batch"
    assert pairwise_stage.notes == "pairwise: ReadableMatcher"
    for metric in ("new_matches", "iterations", "merges", "candidates", "comparisons"):
        assert batch_stage.get(metric) == pairwise_stage.get(metric), metric


class TestUpdatePhaseEquivalence:
    """The ordinal one-vs-many update phase against the per-pair oracle.

    The default matcher has every merge's neighbourhood scored in one
    ``score_against`` pass; the same matcher as a subclass walks the same
    ordinal candidate enumeration one ``decide`` at a time.  Matches
    (including their order), comparison counts and round counts must not
    tell the two apart.
    """

    THRESHOLDS = (0.3, 0.5, 0.6)

    @pytest.fixture(scope="class")
    def inputs(self):
        from repro.datasets import (
            DatasetConfig,
            generate_clean_clean_task,
            generate_dirty_dataset,
        )

        # seeds picked so that every (input, similarity) cell below finds new
        # matches at one of the thresholds at least
        return {
            "dirty": generate_dirty_dataset(
                DatasetConfig(num_entities=60, duplicates_per_entity=2.0, seed=23)
            ).collection,
            "clean_clean": generate_clean_clean_task(
                DatasetConfig(num_entities=80, missing_in_right=0.2, seed=38)
            ).task,
        }

    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    @pytest.mark.parametrize("use_tfidf", [True, False], ids=["tfidf", "jaccard"])
    def test_seeded_inputs(self, inputs, kind, use_tfidf):
        new_matches = 0
        absorbed = 0
        for threshold in self.THRESHOLDS:
            config = dict(use_tfidf=use_tfidf, match_threshold=threshold)
            batch = _run_update_phase(inputs[kind], "batch", **config)
            pairwise = _run_update_phase(inputs[kind], "pairwise", **config)
            _assert_same_update_phase(batch, pairwise)
            stage = batch.report.stage("update_iterate")
            new_matches += stage.get("new_matches")
            absorbed += stage.get("candidates") - stage.get("comparisons")
        # the suite is not vacuous: the phase found matches the bulk pass
        # missed, and the cluster check did skip scored candidates
        assert new_matches > 0
        assert absorbed > 0

    @staticmethod
    def _collection(**token_sets):
        return EntityCollection(
            [
                EntityDescription(identifier, {"name": " ".join(tokens)})
                for identifier, tokens in token_sets.items()
            ]
        )

    #: every candidate pair reaches the matcher, Jaccard at an exact 0.5
    BARE = dict(
        enable_purging=False,
        enable_filtering=False,
        enable_metablocking=False,
        use_tfidf=False,
        match_threshold=0.5,
    )

    def test_earlier_union_absorbs_a_later_candidate(self):
        """``a+b`` matches ``c1``; ``c2`` is already clustered with ``c1``, so
        the union made for ``c1`` absorbs it before its turn comes -- it was
        scored (batch) but must not count as a comparison, as it never
        reaches the per-pair matcher."""
        data = self._collection(
            a=["xone", "xtwo", "xthree", "xfour"],
            b=["xone", "xtwo", "xthree", "xfive"],
            c1=["xthree", "xfour", "xfive"],
            c2=["xfour", "xfive", "zed"],
        )
        batch = _run_update_phase(data, "batch", **self.BARE)
        pairwise = _run_update_phase(data, "pairwise", **self.BARE)
        _assert_same_update_phase(batch, pairwise)
        assert sorted(batch.matches[:2]) == [("a", "b"), ("c1", "c2")]
        assert batch.matches[2:] == [("a", "c1")]
        stage = batch.report.stage("update_iterate")
        # round 1 enumerates {c1, c2} for a+b and {a, b} for c1+c2, round 2
        # {b, c2} for a+c1: only the very first visit is not yet clustered
        assert stage.get("candidates") == 6
        assert stage.get("comparisons") == 1
        assert batch.iterations == 2

    def test_clustered_candidates_before_the_first_visited_match(self):
        """The visit prefix of ``a+b`` is ``aa`` (clustered with ``a``: not
        a comparison) then ``c`` (visited, no match); ``d`` is the first
        visited match, and its union absorbs ``dd`` behind it."""
        data = self._collection(
            a=["xp", "xq", "xr", "xs"],
            aa=["xp", "xq", "xr", "xs", "xu"],
            b=["xp", "xq", "xr", "xt"],
            c=["xp", "zone", "ztwo", "zthree"],
            d=["xr", "xs", "xt", "xv"],
            dd=["xr", "xs", "xt", "xv", "xw"],
        )
        batch = _run_update_phase(data, "batch", **self.BARE)
        pairwise = _run_update_phase(data, "pairwise", **self.BARE)
        _assert_same_update_phase(batch, pairwise)
        assert batch.matches[:4] == [("a", "aa"), ("a", "b"), ("aa", "b"), ("d", "dd")]
        assert batch.matches[4:] == [("a", "d")]
        stage = batch.report.stage("update_iterate")
        # round 1: a+aa visits c, d, dd; a+b c, d; aa+b c; d+dd (which shares
        # no token with c) nothing; round 2: a+d visits c
        assert (stage.get("candidates"), stage.get("comparisons")) == (19, 7)

    def test_second_round_finds_what_the_first_could_not(self):
        """``d`` matches neither ``a+b`` nor any source, only the ``a+c``
        merge that exists once round 1 has found ``(a, c)``."""
        data = self._collection(
            a=["xone", "xtwo", "xthree", "xfour"],
            b=["xone", "xtwo", "xthree", "xfive"],
            c=["xthree", "xfour", "xfive", "yone"],
            d=["xone", "xfour", "yone"],
        )
        batch = _run_update_phase(data, "batch", **self.BARE)
        pairwise = _run_update_phase(data, "pairwise", **self.BARE)
        _assert_same_update_phase(batch, pairwise)
        assert batch.matches == [("a", "b"), ("a", "c"), ("a", "d")]
        assert batch.iterations == 3
        assert batch.report.stage("update_iterate").get("comparisons") == 3

    @pytest.mark.parametrize("use_tfidf", [True, False], ids=["tfidf", "jaccard"])
    def test_merge_with_tokens_unseen_at_interning_time(self, use_tfidf):
        """A merge may carry tokens the context never interned: they are
        interned on demand, so the vocabulary grows past the key stride of
        the profile columns between two ``score_against`` calls on one
        engine -- the new ids count in the query's size and norm and are
        shared with no context row."""
        from repro.core.context import PipelineContext

        collection = _random_collection(7)
        context = PipelineContext(collection)
        vectorizer = context.fit_vectorizer() if use_tfidf else None
        matcher = ProfileSimilarityMatcher(threshold=0.3, vectorizer=vectorizer)
        engine = MatchingEngine(matcher, context=context)
        ordinals = list(range(context.num_descriptions))
        known = merge_descriptions(collection["e001"], collection["e002"])
        novel = merge_descriptions(
            known,
            EntityDescription("outsider", {"name": "turing quokka zyzzyva quokka"}),
        )
        sizes = [context.vocabulary_size]
        for merged in (known, novel, known):
            assert_decision_exact(
                engine,
                merged,
                engine.score_against(merged, ordinals),
                [matcher.similarity(merged, description) for description in collection],
            )
            sizes.append(context.vocabulary_size)
        # merging interned descriptions adds nothing; the outsider's tokens do
        assert sizes[1] == sizes[0]
        assert sizes[2] > sizes[1]
        assert sizes[3] == sizes[2]

    @pytest.mark.parametrize(
        "matcher_name",
        [
            "profile-jaccard",
            "profile-dice",
            "profile-overlap",
            "profile-cosine",
            "profile-nostop",
            "profile-tfidf",
        ],
    )
    def test_score_against_matches_the_oracle(self, matcher_name):
        """Every similarity family, degenerate profiles on either side."""
        from repro.core.context import PipelineContext

        collection = _random_collection(8)
        matcher = _matchers(collection)[matcher_name]
        engine = MatchingEngine(matcher, context=PipelineContext(collection))
        rng = random.Random(8)
        queries = [
            merge_descriptions(collection["e003"], collection["e004"]),
            merge_descriptions(collection["empty"], collection["blank"]),
            merge_descriptions(collection["stopwords"], collection["short"]),
        ]
        for query in queries:
            ordinals = rng.sample(range(len(collection)), 30)
            for subset in (ordinals, ordinals[:1], []):
                assert_decision_exact(
                    engine,
                    query,
                    engine.score_against(query, subset),
                    [matcher.similarity(query, collection[ordinal]) for ordinal in subset],
                )

    def test_score_against_needs_batch_engine_and_context(self):
        collection = _random_collection(9, size=6)
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        with pytest.raises(ValueError, match="batch engine"):
            MatchingEngine(readable(matcher)).score_against(collection["e000"], [1])
        with pytest.raises(ValueError, match="shared pipeline context"):
            MatchingEngine(matcher).score_against(collection["e000"], [1, 2])


def _kernel_input(kind: str, seed: int, pairs: int = 300):
    """A dirty collection or clean--clean task, its context and ordinal pairs."""
    if kind == "dirty":
        data = _random_collection(seed)
    else:
        right = EntityCollection(
            [
                EntityDescription(f"r{i}", dict(description.attributes))
                for i, description in enumerate(_random_collection(seed + 1, size=24))
            ],
            name="right",
        )
        data = CleanCleanTask(_random_collection(seed, size=24), right)
    context = PipelineContext(data)
    rng = random.Random(seed)
    sampled = [rng.sample(range(context.num_descriptions), 2) for _ in range(pairs)]
    return data, context, [a for a, _ in sampled], [b for _, b in sampled]


def _kernel_matcher(mode: str, context, threshold: float, min_token_length=None):
    """``mode`` is ``"tfidf"`` or a set similarity name."""
    if mode == "tfidf":
        vectorizer = context.fit_vectorizer(min_token_length or 1)
        return ProfileSimilarityMatcher(threshold=threshold, vectorizer=vectorizer)
    options = {} if min_token_length is None else {"min_token_length": min_token_length}
    return ProfileSimilarityMatcher(threshold=threshold, similarity_name=mode, **options)


KERNEL_MODES = ("tfidf", "jaccard", "cosine")


class TestOrdinalKernel:
    """``decide_ordinal_pairs`` against ``matcher.similarity(a, b) >= t``:
    filter-and-refine must never let a vectorised score decide a pair the
    exact one decides differently, wherever the threshold sits."""

    @staticmethod
    def _exact(matcher, context, first, second):
        descriptions = context.descriptions
        return [
            matcher.similarity(descriptions[a], descriptions[b])
            for a, b in zip(first, second)
        ]

    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_threshold_at_a_pairs_own_score(self, kind, mode):
        _data, context, first, second = _kernel_input(kind, seed=12)
        exact = self._exact(_kernel_matcher(mode, context, 0.0), context, first, second)
        inner = sorted({score for score in exact if 0.0 < score < 1.0})
        assert len(inner) > 5
        for tie in (inner[0], inner[len(inner) // 2], inner[-1]):
            for threshold, at_tie in ((tie, True), (math.nextafter(tie, math.inf), False)):
                matcher = _kernel_matcher(mode, context, threshold)
                engine = MatchingEngine(matcher, context=context)
                flags = engine.decide_ordinal_pairs(first, second).tolist()
                assert flags == [score >= threshold for score in exact]
                assert {flag for flag, score in zip(flags, exact) if score == tie} == {at_tie}
                assert engine.last_engine == "batch"

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_thresholds_one_and_zero(self, mode):
        """``t = 1.0`` over exact duplicates (a vectorised cosine of a
        description with itself need not be 1.0) and ``t = 0.0`` (every pair
        matches, disjoint ones included)."""
        originals = list(_random_collection(13, size=20))
        copies = [
            EntityDescription(f"copy-{d.identifier}", dict(d.attributes)) for d in originals
        ]
        context = PipelineContext(EntityCollection(originals + copies))
        size = len(originals)
        first = list(range(size)) + list(range(size - 1))
        second = list(range(size, 2 * size)) + list(range(1, size))
        for threshold in (1.0, 0.0):
            matcher = _kernel_matcher(mode, context, threshold)
            exact = self._exact(matcher, context, first, second)
            engine = MatchingEngine(matcher, context=context)
            flags = engine.decide_ordinal_pairs(first, second).tolist()
            assert flags == [score >= threshold for score in exact]
            assert any(flags) and (threshold == 0.0) == all(flags)

    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_min_token_length_filters_before_the_maximal_count(self, kind, mode):
        """"a b a b" repeats only tokens the filter drops: a maximal count
        taken before the filter would scale every weight of the row."""
        _data, context, first, second = _kernel_input(kind, seed=14)
        matcher = _kernel_matcher(mode, context, 0.3, min_token_length=3)
        exact = self._exact(matcher, context, first, second)
        engine = MatchingEngine(matcher, context=context)
        assert engine.decide_ordinal_pairs(first, second).tolist() == [s >= 0.3 for s in exact]
        assert engine.score_ordinal_pairs(first, second) == exact

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_empty_and_all_filtered_profiles(self, mode):
        collection = _random_collection(15, size=4)
        context = PipelineContext(collection)
        ordinal = {identifier: context.ordinal(identifier) for identifier in collection.identifiers}
        degenerate = ["empty", "blank", "short"] + ([] if mode == "tfidf" else ["stopwords"])
        names = degenerate + ["e000"]
        first = [ordinal[a] for a in names for b in names if a != b]
        second = [ordinal[b] for a in names for b in names if a != b]
        # min_token_length=2 under TF-IDF too, so "short" is all-filtered there
        for threshold in (0.5, 0.0):
            matcher = _kernel_matcher(mode, context, threshold, min_token_length=2)
            exact = self._exact(matcher, context, first, second)
            engine = MatchingEngine(matcher, context=context)
            flags = engine.decide_ordinal_pairs(first, second).tolist()
            assert flags == [s >= threshold for s in exact]
        # two empties: nothing to compare under TF-IDF, identical as sets
        both_empty = 0.0 if mode == "tfidf" else 1.0
        for a, b, score in zip(first, second, exact):
            empties = (context.ids[a] in degenerate) + (context.ids[b] in degenerate)
            assert score == (both_empty if empties == 2 else 0.0)

    def test_an_empty_batch(self):
        context = PipelineContext(_random_collection(16, size=4))
        for mode in KERNEL_MODES:
            engine = MatchingEngine(_kernel_matcher(mode, context, 0.5), context=context)
            assert engine.decide_ordinal_pairs([], []).tolist() == []

    @pytest.mark.parametrize("name", ["jaccard", "dice", "overlap", "cosine"])
    def test_id_column_scores_are_the_exact_set_body(self, name):
        """``score_ordinal_pairs`` (the similarity join's verification) is the
        per-pair matcher's set similarity, a description with no token and a
        pair of them included."""
        _data, context, first, second = _kernel_input("dirty", seed=17)
        matcher = ProfileSimilarityMatcher(threshold=0.3, similarity_name=name)
        engine = MatchingEngine(matcher, context=context)
        sizes = engine.store.columns().sizes.tolist()
        empty = [ordinal for ordinal, size in enumerate(sizes) if not size]
        assert empty
        first, second = first + [0, empty[0]], second + [empty[0], empty[-1]]
        exact = self._exact(matcher, context, first, second)
        assert exact[-2:] == [0.0, 1.0]
        assert engine.score_ordinal_pairs(first, second) == exact

    def test_ordinal_entry_points_need_a_context(self):
        engine = MatchingEngine(ProfileSimilarityMatcher(threshold=0.3))
        for call in (engine.decide_ordinal_pairs, engine.score_ordinal_pairs):
            with pytest.raises(ValueError, match="shared pipeline context"):
                call([0], [1])


def _progressive_trace(result):
    return (
        [(d.pair, d.similarity, d.is_match) for d in result.decisions],
        result.declared_matches,
        result.comparisons_executed,
        result.budget_spent,
        result.skipped_comparisons,
        result.curve.history(),
        result.curve.auc(),
    )


class TestColumnarDrain:
    """``run_progressive`` on the kernel path (an engine whose context owns
    the data) against the per-pair path on the object schedule."""

    @staticmethod
    def _run(dataset, scheduler, candidates, matcher, engine, **options):
        return run_progressive(
            scheduler=scheduler,
            matcher=matcher,
            data=dataset.collection,
            candidates=candidates,
            ground_truth=dataset.ground_truth,
            engine=engine,
            **options,
        )

    @pytest.mark.parametrize("keep_decisions", [True, False])
    @pytest.mark.parametrize("budget", [None, 90])
    def test_a_schedule_table_that_is_not_the_contexts(
        self, small_dirty_dataset, budget, keep_decisions
    ):
        """Block candidates are interned by the scheduling engine in block
        order (``candidate_columns``): its ordinals are not the context's."""
        data = small_dirty_dataset.collection
        context = PipelineContext(data)
        blocks = TokenBlocking().build(data)
        matcher = ProfileSimilarityMatcher(threshold=0.5, vectorizer=context.fit_vectorizer())
        engine = MatchingEngine(matcher, context=context)
        options = dict(budget=budget, keep_decisions=keep_decisions)
        columnar = self._run(
            small_dirty_dataset, WeightOrderScheduler(), blocks, matcher, engine, **options
        )
        oracle = self._run(
            small_dirty_dataset, ReadableScheduler(), blocks, readable(matcher), None, **options
        )
        assert _progressive_trace(columnar) == _progressive_trace(oracle)
        assert columnar.declared_matches and columnar.true_matches_found == oracle.true_matches_found

    def test_an_unknown_identifier_is_skipped_and_warned(self, small_dirty_dataset):
        data = small_dirty_dataset.collection
        known = list(data.identifiers)[:12]
        order = [Comparison(a, b) for a, b in zip(known, known[1:])]
        order[3:3] = [Comparison(known[0], "ghost"), Comparison("phantom", "ghost")]
        context = PipelineContext(data)
        matcher = ProfileSimilarityMatcher(threshold=0.2, vectorizer=context.fit_vectorizer())
        traces = []
        for scheduler, component, engine in (
            (StaticOrderScheduler(order), matcher, MatchingEngine(matcher, context=context)),
            (readable(StaticOrderScheduler(order)), readable(matcher), None),
        ):
            with pytest.warns(RuntimeWarning, match="skipped 2 comparison"):
                result = self._run(
                    small_dirty_dataset, scheduler, None, component, engine, keep_decisions=True
                )
            assert result.skipped_comparisons == 2
            assert result.comparisons_executed == len(order) - 2
            traces.append(_progressive_trace(result))
        assert traces[0] == traces[1]

    def test_no_profile_lookup_and_no_identifier_resolution(
        self, small_dirty_dataset, monkeypatch
    ):
        """The kernel path reads ordinal columns: ``ProfileStore.build``
        (descriptions in) and ``EntityCollection.get`` (identifiers in) are
        never reached, and no profile object is built at all unless a pair
        falls inside the margin."""
        from repro.metablocking.pipeline import MetaBlocking

        data = small_dirty_dataset.collection
        context = PipelineContext(data)
        candidates = MetaBlocking().weighted_columns(TokenBlocking().build(data), context=context)
        assert candidates.ids is context.ids
        matcher = ProfileSimilarityMatcher(threshold=0.5, vectorizer=context.fit_vectorizer())
        engine = MatchingEngine(matcher, context=context)
        calls = []
        for owner, name in ((ProfileStore, "build"), (EntityCollection, "get")):
            original = getattr(owner, name)

            def counted(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(owner, name, counted)
        result = self._run(
            small_dirty_dataset, WeightOrderScheduler(), candidates, matcher, engine
        )
        assert result.comparisons_executed == len(candidates) > 0
        assert calls == []
        assert engine.store._ordinal_profiles is None


@pytest.mark.parametrize("mode", KERNEL_MODES)
class TestTokenMajorScores:
    """``ProfileColumns.shared_with`` (one profile against many rows, through
    the transpose) against ``ProfileColumns.shared`` (row against row): the
    same sums, bit for bit (``==``).  ``score_against`` then divides by the
    query's exact norm where the pair kernel takes the row's summed one, so
    its set scores and its decisions are the pair kernel's."""

    @staticmethod
    def _setup(mode, seed=21):
        context = PipelineContext(_random_collection(seed))
        engine = MatchingEngine(_kernel_matcher(mode, context, 0.3), context=context)
        store = engine.store
        return context, engine, store, store.columns()

    def test_every_row_as_the_query(self, mode):
        context, engine, store, columns = self._setup(mode)
        size = context.num_descriptions
        rows = list(range(size)) + [3, 3, 0]  # repeated candidates too
        for query in range(size):
            token_major = columns.shared_with(store.ordinal_profile(query), rows)
            pair_kernel = columns.shared([query] * len(rows), rows)
            assert token_major.tolist() == pair_kernel.tolist()
            assert 0 in pair_kernel.tolist()  # candidates that share nothing
            scores = engine.score_against(context.description(query), rows)
            flags = engine.decide_ordinal_pairs([query] * len(rows), rows).tolist()
            assert [score >= 0.3 for score in scores] == flags
            if mode != "tfidf":
                assert scores == engine.score_ordinal_pairs([query] * len(rows), rows)

    def test_ids_beyond_the_stride_are_shared_with_no_row(self, mode):
        context, _engine, store, columns = self._setup(mode)
        rows = list(range(context.num_descriptions))
        for query in range(context.num_descriptions):
            known = store.ordinal_profile(query)
            extended = Profile(
                "outsider",
                array("q", list(known.token_ids) + [columns.stride, columns.stride + 3]),
                None if mode != "tfidf" else array("d", list(known.weights or ()) + [0.5, 2.0]),
            )
            assert columns.shared_with(extended, rows).tolist() == (
                columns.shared_with(known, rows).tolist()
            )

    def test_an_empty_query_and_no_candidates(self, mode):
        context, _engine, store, columns = self._setup(mode)
        empty = Profile("empty", array("q"))
        rows = list(range(context.num_descriptions))
        assert columns.shared_with(empty, rows).tolist() == [0] * len(rows)
        assert columns.shared_with(store.ordinal_profile(0), []).tolist() == []


class TestKernelMargin:
    """The vectorised cosine stays within the margin the code states."""

    tokens = st.sampled_from(VOCABULARY)
    values = st.lists(tokens, min_size=0, max_size=12).map(" ".join)
    collections = st.lists(
        st.dictionaries(st.sampled_from(["name", "city", "note"]), values, max_size=3),
        min_size=2,
        max_size=12,
    )

    @settings(max_examples=60, deadline=None)
    @given(attributes=collections, min_token_length=st.integers(min_value=1, max_value=3))
    def test_vectorised_minus_exact_is_within_the_margin(self, attributes, min_token_length):
        collection = EntityCollection(
            [EntityDescription(f"h{i}", values) for i, values in enumerate(attributes)]
        )
        context = PipelineContext(collection)
        # at threshold 0.0 only the pairs sharing nothing are refined (both
        # paths score them exactly 0.0): every other score that comes back
        # is the vectorised one
        matcher = ProfileSimilarityMatcher(
            threshold=0.0, vectorizer=context.fit_vectorizer(min_token_length)
        )
        engine = MatchingEngine(matcher, context=context)
        size = len(collection)
        first = [a for a in range(size) for b in range(size) if a != b]
        second = [b for a in range(size) for b in range(size) if a != b]
        import numpy as np

        rows_a = np.asarray(first, dtype=np.int64)
        rows_b = np.asarray(second, dtype=np.int64)
        columns = engine.store.columns()
        exact = engine.score_ordinal_pairs(first, second)
        margin = columns.margin()
        vectorised = engine._cosine_scores(
            columns.shared(rows_a, rows_b),
            columns.norms[rows_a] * columns.norms[rows_b],
            margin,
            exact.__getitem__,
        )
        assert 0.0 < margin < 1e-12
        assert max(abs(v - e) for v, e in zip(vectorised, exact)) <= margin


class TestGuards:
    def test_runner_rejects_engine_wrapping_a_different_matcher(self, tiny_collection):
        matcher_a = ProfileSimilarityMatcher(threshold=0.3)
        matcher_b = ProfileSimilarityMatcher(threshold=0.9)
        engine = MatchingEngine(matcher_a)
        with pytest.raises(ValueError, match="different matcher"):
            run_progressive(
                scheduler=WeightOrderScheduler(),
                matcher=matcher_b,
                data=tiny_collection,
                candidates=[Comparison("a1", "a2")],
                engine=engine,
            )

    @pytest.mark.parametrize("engine_name", ["batch", "pairwise"])
    def test_runner_counts_and_warns_on_unresolvable_comparisons(
        self, tiny_collection, engine_name
    ):
        comparisons = [
            Comparison("a1", "a2"),
            Comparison("a1", "ghost"),
            Comparison("b1", "b2"),
        ]
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        with pytest.warns(RuntimeWarning, match="skipped 1 comparison"):
            result = run_progressive(
                scheduler=WeightOrderScheduler(),
                matcher=matcher if engine_name == "batch" else readable(matcher),
                data=tiny_collection,
                candidates=comparisons,
            )
        assert result.skipped_comparisons == 1
        assert result.comparisons_executed == 2
