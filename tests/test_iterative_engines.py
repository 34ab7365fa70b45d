"""Array-vs-object equivalence for the iterative resolvers.

The four resolvers of :mod:`repro.iterative` -- R-Swoosh, the naive
pairwise fixpoint, collective ER and the attribute-only baseline -- pick
their path by the matcher's exact type.  The array paths batch similarity
scoring and keep cluster state in integer union--find structures; these
tests pin that every observable output (resolution order, matches, cluster
lists, comparison counts, rescue/requeue statistics, budget cutoffs) is
bit-identical to the per-pair object oracles, reached through a
``ReadableMatcher`` (a trivial subclass, so not the exact library type).
"""

from __future__ import annotations

import pytest
from conftest import ReadableMatcher

import repro.iterative
from repro.blocking.token_blocking import TokenBlocking
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datasets import DatasetConfig, generate_bibliographic_dataset, generate_dirty_dataset
from repro.iterative import AttributeOnlyER, CollectiveER, NaivePairwiseER, RSwoosh
from repro.matching.matchers import ProfileSimilarityMatcher


@pytest.fixture(scope="module")
def dirty_collection():
    return generate_dirty_dataset(
        DatasetConfig(num_entities=50, duplicates_per_entity=1.5, seed=7)
    ).collection


@pytest.fixture(scope="module")
def small_collection():
    return generate_dirty_dataset(
        DatasetConfig(num_entities=20, duplicates_per_entity=1.5, seed=11)
    ).collection


@pytest.fixture(scope="module")
def bibliographic_collection():
    return generate_bibliographic_dataset(
        num_authors=10, num_publications=20, duplicates_per_publication=1.0, seed=17
    ).collection


def relational_collection():
    return EntityCollection(
        [
            EntityDescription(
                "p1", {"title": "entity resolution on big data"}, relationships={"author": ["a1"]}
            ),
            EntityDescription(
                "p2", {"title": "entity resolution for big data"}, relationships={"author": ["a2"]}
            ),
            EntityDescription(
                "p3", {"title": "quantum chromodynamics on lattices"}, relationships={"author": ["a3"]}
            ),
            EntityDescription("a1", {"name": "j smith", "affiliation": "mit"}),
            EntityDescription("a2", {"name": "j smith", "office": "cambridge ma"}),
            EntityDescription("a3", {"name": "j smith"}),
        ]
    )


def _assert_swoosh_identical(cls, collection, **kwargs):
    array = cls(ProfileSimilarityMatcher(threshold=0.55), **kwargs)
    oracle = cls(ReadableMatcher(threshold=0.55), **kwargs)
    array_result = array.resolve(collection)
    oracle_result = oracle.resolve(collection)
    assert array.last_engine == "array"
    assert oracle.last_engine == "object"
    assert [d.identifier for d in array_result.resolved] == [
        d.identifier for d in oracle_result.resolved
    ]
    assert array_result.comparisons_executed == oracle_result.comparisons_executed
    assert array_result.merges == oracle_result.merges
    assert array_result.clusters == oracle_result.clusters


class TestMergingResolvers:
    @pytest.mark.parametrize("budget", (None, 0, 1, 17, 200, 10**9))
    def test_rswoosh_bit_identity(self, dirty_collection, budget):
        _assert_swoosh_identical(RSwoosh, dirty_collection, budget=budget)

    @pytest.mark.parametrize("budget", (None, 0, 1, 17, 300))
    def test_naive_pairwise_bit_identity(self, small_collection, budget):
        _assert_swoosh_identical(NaivePairwiseER, small_collection, budget=budget)

    @pytest.mark.parametrize("cls", (RSwoosh, NaivePairwiseER))
    def test_empty_and_single_collections(self, cls):
        _assert_swoosh_identical(cls, EntityCollection(name="empty"))
        _assert_swoosh_identical(
            cls, EntityCollection([EntityDescription("only", {"name": "alan"})])
        )

    @pytest.mark.parametrize("cls", (RSwoosh, NaivePairwiseER))
    def test_custom_matcher_falls_back_to_object(self, cls, small_collection):
        class CustomMatcher(ProfileSimilarityMatcher):
            pass

        resolver = cls(CustomMatcher(threshold=0.55))
        resolver.resolve(small_collection)
        assert resolver.last_engine == "object"

    @pytest.mark.parametrize("cls", (RSwoosh, NaivePairwiseER))
    def test_unknown_engine_rejected(self, cls):
        # the matcher's type is the only selector: there is no engine knob
        with pytest.raises(TypeError):
            cls(ProfileSimilarityMatcher(threshold=0.5), engine="turbo")

    def test_engine_names_exported(self):
        assert not [name for name in repro.iterative.__all__ if name.endswith("_ENGINES")]


def _assert_collective_identical(cls, collection, candidates=None, **kwargs):
    array = cls(attribute_matcher=ProfileSimilarityMatcher(threshold=1.0), **kwargs)
    oracle = cls(attribute_matcher=ReadableMatcher(threshold=1.0), **kwargs)
    array_result = array.resolve(collection, candidates)
    oracle_result = oracle.resolve(collection, candidates)
    assert array.last_engine == "array"
    assert oracle.last_engine == "object"
    for attribute in (
        "matches",
        "comparisons_executed",
        "relational_rescues",
        "requeue_events",
        "clusters",
    ):
        assert getattr(array_result, attribute) == getattr(oracle_result, attribute), attribute
    return array_result


class TestCollectiveResolvers:
    @pytest.mark.parametrize("budget", (None, 0, 5, 100, 10**9))
    @pytest.mark.parametrize("cls", (CollectiveER, AttributeOnlyER))
    def test_bit_identity_with_blocked_candidates(self, dirty_collection, cls, budget):
        blocks = TokenBlocking().build(dirty_collection)
        _assert_collective_identical(cls, dirty_collection, blocks, budget=budget)

    @pytest.mark.parametrize("cls", (CollectiveER, AttributeOnlyER))
    def test_bit_identity_with_default_candidates(self, small_collection, cls):
        _assert_collective_identical(cls, small_collection)

    @pytest.mark.parametrize("combination", ("boost", "weighted"))
    def test_relational_paths_bit_identity(self, combination):
        result = _assert_collective_identical(
            CollectiveER,
            relational_collection(),
            match_threshold=0.6,
            relationship_weight=0.5,
            candidate_threshold=0.0,
            combination=combination,
        )
        if combination == "boost":
            assert result.relational_rescues >= 1
            assert result.requeue_events >= 1

    def test_heavy_requeue_traffic_bit_identity(self, bibliographic_collection):
        result = _assert_collective_identical(
            CollectiveER,
            bibliographic_collection,
            match_threshold=0.65,
            relationship_weight=0.4,
            candidate_threshold=0.05,
        )
        assert result.requeue_events > 0

    @pytest.mark.parametrize("cls", (CollectiveER, AttributeOnlyER))
    def test_empty_collection(self, cls):
        result = _assert_collective_identical(cls, EntityCollection(name="empty"))
        assert result.matches == [] and result.clusters == []

    @pytest.mark.parametrize("cls", (CollectiveER, AttributeOnlyER))
    def test_custom_matcher_falls_back_to_object(self, cls, small_collection):
        class CustomMatcher(ProfileSimilarityMatcher):
            pass

        resolver = cls(attribute_matcher=CustomMatcher(threshold=1.0))
        resolver.resolve(small_collection)
        assert resolver.last_engine == "object"

    @pytest.mark.parametrize("cls", (CollectiveER, AttributeOnlyER))
    def test_unknown_engine_rejected(self, cls):
        with pytest.raises(TypeError):
            cls(engine="turbo")
