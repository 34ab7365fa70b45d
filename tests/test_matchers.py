"""Tests for pairwise matchers and the oracle."""

import pytest

from repro.datamodel.description import EntityDescription
from repro.datamodel.ground_truth import GroundTruth
from repro.datamodel.pairs import Comparison
from repro.matching.matchers import (
    AttributeWeightedMatcher,
    ProfileSimilarityMatcher,
    RuleBasedMatcher,
    ThresholdRule,
)
from repro.matching.oracle import OracleMatcher
from repro.text.vectorizer import TfIdfVectorizer


def alan_a():
    return EntityDescription("a1", {"name": "Alan Turing", "city": "London"})


def alan_b():
    return EntityDescription("a2", {"label": "Alan M Turing", "place": "London"})


def grace():
    return EntityDescription("g1", {"name": "Grace Hopper", "city": "New York"})


class TestProfileSimilarityMatcher:
    def test_jaccard_mode_scores_and_decides(self):
        matcher = ProfileSimilarityMatcher(threshold=0.4)
        assert matcher.similarity(alan_a(), alan_b()) > matcher.similarity(alan_a(), grace())
        assert matcher.match(alan_a(), alan_b())
        assert not matcher.match(alan_a(), grace())

    def test_tfidf_mode_uses_vectorizer(self):
        corpus = [alan_a(), alan_b(), grace()]
        vectorizer = TfIdfVectorizer().fit(corpus)
        matcher = ProfileSimilarityMatcher(threshold=0.3, vectorizer=vectorizer)
        assert matcher.similarity(alan_a(), alan_b()) > matcher.similarity(alan_a(), grace())

    def test_decision_carries_cost_and_comparison(self):
        matcher = ProfileSimilarityMatcher(threshold=0.4, cost=2.5)
        decision = matcher.decide(alan_a(), alan_b())
        decision_pair = decision.pair
        assert decision_pair == ("a1", "a2")
        assert decision.cost == 2.5
        assert 0.0 <= decision.similarity <= 1.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ProfileSimilarityMatcher(threshold=1.5)

    def test_decide_all_resolves_identifiers(self, tiny_collection):
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        comparisons = [Comparison("a1", "a2"), Comparison("a1", "missing")]
        with pytest.warns(RuntimeWarning, match="skipped 1 comparison"):
            decisions = matcher.decide_all(comparisons, tiny_collection)
        assert len(decisions) == 1  # the pair with a missing description is skipped
        assert decisions[0].comparison.pair == ("a1", "a2")
        # ... but the skip is counted and surfaced, not silent
        assert decisions.skipped == 1
        assert decisions.skipped_examples == [("a1", "missing")]

    def test_decide_all_without_skips_is_quiet(self, tiny_collection, recwarn):
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        decisions = matcher.decide_all([Comparison("a1", "a2")], tiny_collection)
        assert decisions.skipped == 0
        assert decisions.skipped_examples == []
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


class TestAttributeWeightedMatcher:
    def test_weight_normalisation_and_scoring(self):
        matcher = AttributeWeightedMatcher({"name": 2.0, "city": 1.0}, threshold=0.7)
        assert sum(matcher.attribute_weights.values()) == pytest.approx(1.0)
        assert matcher.match(
            EntityDescription("x", {"name": "Alan Turing", "city": "London"}),
            EntityDescription("y", {"name": "Alan Turing", "city": "London"}),
        )

    def test_missing_attribute_on_both_sides_redistributes_weight(self):
        matcher = AttributeWeightedMatcher({"name": 1.0, "city": 1.0}, threshold=0.9)
        first = EntityDescription("x", {"name": "Alan Turing"})
        second = EntityDescription("y", {"name": "Alan Turing"})
        assert matcher.similarity(first, second) == pytest.approx(1.0)

    def test_missing_attribute_on_one_side_scores_zero_for_it(self):
        matcher = AttributeWeightedMatcher({"name": 1.0, "city": 1.0}, threshold=0.9)
        first = EntityDescription("x", {"name": "Alan Turing", "city": "London"})
        second = EntityDescription("y", {"name": "Alan Turing"})
        assert matcher.similarity(first, second) == pytest.approx(0.5)

    def test_set_similarity_option(self):
        matcher = AttributeWeightedMatcher({"name": 1.0}, similarity_name="jaccard", threshold=0.5)
        assert matcher.similarity(
            EntityDescription("x", {"name": "alan turing"}),
            EntityDescription("y", {"name": "turing alan"}),
        ) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AttributeWeightedMatcher({})
        with pytest.raises(ValueError):
            AttributeWeightedMatcher({"name": 0.0})

    def test_empty_descriptions_score_zero(self):
        matcher = AttributeWeightedMatcher({"name": 1.0})
        assert matcher.similarity(EntityDescription("x"), EntityDescription("y")) == 0.0


class TestRuleBasedMatcher:
    def test_conjunction_and_disjunction(self):
        rules = [
            ThresholdRule("name", 0.9, "jaro_winkler"),
            ThresholdRule("city", 0.9, "jaro_winkler"),
        ]
        same = (
            EntityDescription("x", {"name": "Alan Turing", "city": "London"}),
            EntityDescription("y", {"name": "Alan Turing", "city": "Londn"}),
        )
        conjunction = RuleBasedMatcher(rules, require_all=True)
        disjunction = RuleBasedMatcher(rules, require_all=False)
        assert disjunction.match(*same)
        # the typo in the city may or may not pass 0.9; conjunction is at most as permissive
        assert conjunction.match(*same) <= disjunction.match(*same)

    def test_requires_rules(self):
        with pytest.raises(ValueError):
            RuleBasedMatcher([])

    def test_missing_attribute_fails_rule(self):
        matcher = RuleBasedMatcher([ThresholdRule("city", 0.5)])
        assert not matcher.match(
            EntityDescription("x", {"name": "Alan"}), EntityDescription("y", {"city": "London"})
        )


class TestOracleMatcher:
    def test_perfect_oracle_answers_from_ground_truth(self):
        truth = GroundTruth([["a1", "a2"]])
        oracle = OracleMatcher(truth)
        assert oracle.match(alan_a(), alan_b())
        assert not oracle.match(alan_a(), grace())
        assert oracle.calls == 2

    def test_noisy_oracle_rates(self):
        truth = GroundTruth([["a1", "a2"]])
        always_wrong = OracleMatcher(truth, false_negative_rate=0.999, seed=1)
        assert not always_wrong.match(alan_a(), alan_b())
        false_positive = OracleMatcher(truth, false_positive_rate=0.999, seed=2)
        assert false_positive.match(alan_a(), grace())

    def test_rate_validation(self):
        truth = GroundTruth()
        with pytest.raises(ValueError):
            OracleMatcher(truth, false_negative_rate=1.0)
        with pytest.raises(ValueError):
            OracleMatcher(truth, false_positive_rate=-0.1)

    def test_merged_identifiers_are_resolved(self):
        truth = GroundTruth([["a1", "a2", "a3"]])
        oracle = OracleMatcher(truth)
        merged = EntityDescription("a1+a2", {"name": "Alan"})
        other = EntityDescription("a3", {"name": "Alan T"})
        assert oracle.match(merged, other)

    def test_reset_clears_call_counter(self):
        truth = GroundTruth([["a1", "a2"]])
        oracle = OracleMatcher(truth)
        oracle.match(alan_a(), alan_b())
        oracle.reset()
        assert oracle.calls == 0


class TestAttributeValueCache:
    def test_repeated_values_are_normalised_once(self):
        matcher = AttributeWeightedMatcher({"name": 1.0}, similarity_name="jaccard", threshold=0.5)
        first = EntityDescription("x", {"name": "Alan Turing"})
        second = EntityDescription("y", {"name": "Alan Turing"})
        score = matcher.similarity(first, second)
        assert score == pytest.approx(1.0)
        # both sides share one raw value, so the cache holds a single entry...
        assert set(matcher._value_cache) == {"Alan Turing"}
        cached = matcher._value_cache["Alan Turing"]
        matcher.similarity(first, second)
        # ...and re-scoring reuses the very same normalised object
        assert matcher._value_cache["Alan Turing"] is cached

    def test_cache_does_not_change_scores(self):
        for name in ("jaccard", "jaro_winkler"):
            matcher = AttributeWeightedMatcher({"name": 1.0}, similarity_name=name)
            fresh = AttributeWeightedMatcher({"name": 1.0}, similarity_name=name)
            a = EntityDescription("x", {"name": "Alan M. Turing"})
            b = EntityDescription("y", {"name": "alan turing"})
            warmed = matcher.similarity(a, b)
            assert matcher.similarity(a, b) == warmed  # cache hit path
            assert fresh.similarity(a, b) == warmed  # cold path agrees


_BUILD_WITH_COST = {
    "profile": lambda cost: ProfileSimilarityMatcher(cost=cost),
    "attribute-weighted": lambda cost: AttributeWeightedMatcher({"name": 1.0}, cost=cost),
    "rule-based": lambda cost: RuleBasedMatcher([ThresholdRule("name", 0.9)], cost=cost),
    "oracle": lambda cost: OracleMatcher(GroundTruth([["a1", "a2"]]), cost=cost),
}


@pytest.mark.parametrize("cost", [float("nan"), -1, -0.5, float("inf"), "1", None])
@pytest.mark.parametrize("build", _BUILD_WITH_COST.values(), ids=_BUILD_WITH_COST.keys())
def test_cost_must_be_finite_and_non_negative(build, cost):
    """Rejected at construction, not at the first budget charge."""
    with pytest.raises(ValueError, match="cost must be a finite number >= 0, got "):
        build(cost)


@pytest.mark.parametrize("build", _BUILD_WITH_COST.values(), ids=_BUILD_WITH_COST.keys())
def test_zero_and_fractional_costs_are_accepted(build):
    assert build(0).cost == 0
    assert build(2.5).cost == 2.5


@pytest.mark.parametrize("threshold", [float("nan"), 7, -0.1])
def test_attribute_weighted_threshold_must_be_in_the_unit_interval(threshold):
    with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
        AttributeWeightedMatcher({"name": 1.0}, threshold=threshold)


@pytest.mark.parametrize("threshold", ["0.5", float("nan"), True, None, 1.5, -0.1])
def test_profile_similarity_threshold_is_checked_at_construction(threshold):
    with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\], got "):
        ProfileSimilarityMatcher(threshold=threshold)


@pytest.mark.parametrize("threshold", [float("nan"), 2.0, -0.1, "0.5", True])
def test_threshold_rule_threshold_is_checked_at_construction(threshold):
    """A threshold outside [0, 1] would never (or always) match."""
    with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\], got "):
        ThresholdRule("name", threshold)


def test_threshold_rule_similarity_is_resolved_at_construction():
    """An unknown similarity fails when the rule is built, not at its first
    evaluate; a known one is resolved once."""
    with pytest.raises(KeyError, match="unknown similarity 'nope'"):
        ThresholdRule("name", 0.5, "nope")
    rule = ThresholdRule("name", 0.5, "jaccard")
    assert rule == ThresholdRule("name", 0.5, "jaccard")
    assert repr(rule) == "ThresholdRule(attribute='name', threshold=0.5, similarity_name='jaccard')"
    assert rule.evaluate(alan_a(), grace()) == (False, 0.0)


@pytest.mark.parametrize(
    "weights",
    [
        {"name": 2.0, "city": -1.0},
        {"name": float("nan")},
        {"name": 1.0, "city": float("inf")},
        {"name": "1"},
    ],
)
def test_attribute_weights_must_be_finite_and_non_negative(weights):
    with pytest.raises(ValueError, match="must be a finite number >= 0, got "):
        AttributeWeightedMatcher(weights)


def test_zero_attribute_weights_are_accepted_beside_a_positive_one():
    matcher = AttributeWeightedMatcher({"name": 1.0, "city": 0})
    assert matcher.attribute_weights == {"name": 1.0, "city": 0.0}
