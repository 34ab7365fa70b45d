"""Tests for incremental (arrival-at-a-time) entity resolution."""

import pytest
from conftest import ReadableMatcher

from repro.datamodel.description import EntityDescription
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.evaluation import evaluate_matches
from repro.iterative import IncrementalIndex, IncrementalResolver
from repro.matching import OracleMatcher, ProfileSimilarityMatcher


def test_validation():
    with pytest.raises(ValueError):
        IncrementalResolver(ProfileSimilarityMatcher(), max_candidates=0)


@pytest.mark.parametrize("value", [2.5, "3", None, True, 0, -1])
@pytest.mark.parametrize(
    "build",
    [
        lambda value: IncrementalIndex(ProfileSimilarityMatcher(), max_candidates=value),
        lambda value: IncrementalResolver(ProfileSimilarityMatcher(), max_candidates=value),
        lambda value: IncrementalResolver(
            ReadableMatcher(threshold=0.5), max_candidates=value
        ),
    ],
    ids=["index", "resolver", "object-resolver"],
)
def test_max_candidates_must_be_a_positive_int(build, value):
    """Rejected at construction, before any arrival is interned."""
    with pytest.raises(ValueError, match=r"max_candidates must be a positive int, got "):
        build(value)


@pytest.mark.parametrize("value", [2.5, "2", -1, True, None])
@pytest.mark.parametrize(
    "build",
    [
        lambda value: ProfileSimilarityMatcher(min_token_length=value),
        lambda value: IncrementalIndex(ProfileSimilarityMatcher(), min_token_length=value),
        lambda value: IncrementalResolver(ProfileSimilarityMatcher(), min_token_length=value),
        lambda value: IncrementalResolver(
            ReadableMatcher(threshold=0.5), min_token_length=value
        ),
    ],
    ids=["matcher", "index", "resolver", "object-resolver"],
)
def test_min_token_length_must_be_a_non_negative_int(build, value):
    """Rejected at construction, before any arrival is interned."""
    with pytest.raises(ValueError, match=r"min_token_length must be an int >= 0, got "):
        build(value)


@pytest.mark.parametrize("value", [0, 3])
def test_an_accepted_min_token_length_survives_a_snapshot(tmp_path, value):
    index = IncrementalIndex(ProfileSimilarityMatcher(), min_token_length=value)
    index.add(EntityDescription("a", {"name": "alan turing"}))
    index.save(tmp_path)
    assert IncrementalIndex.load(tmp_path).min_token_length == value


def test_duplicate_identifiers_are_rejected():
    resolver = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5))
    resolver.add(EntityDescription("a", {"name": "alan turing"}))
    with pytest.raises(ValueError):
        resolver.add(EntityDescription("a", {"name": "alan turing"}))


def test_arrivals_join_existing_clusters():
    resolver = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5))
    first = resolver.add(EntityDescription("a1", {"name": "alan turing", "city": "london"}))
    assert first.is_new_entity
    second = resolver.add(EntityDescription("a2", {"label": "alan m turing", "place": "london"}))
    assert not second.is_new_entity
    assert resolver.cluster_of("a1") == {"a1", "a2"}
    assert resolver.num_clusters == 1
    # the merged representation accumulates both descriptions' values
    representation = resolver.representation_of("a1")
    assert "m" in representation.text() or "alan" in representation.text()


def test_bridging_arrival_joins_two_clusters():
    resolver = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5))
    resolver.add(EntityDescription("a", {"name": "alan turing", "city": "london"}))
    resolver.add(EntityDescription("b", {"name": "alan turing", "project": "enigma"}))
    # unrelated third entity
    resolver.add(EntityDescription("x", {"name": "grace hopper", "city": "new york"}))
    assert resolver.cluster_of("a") == {"a", "b"}
    # a later arrival that matches both existing clusters merges them transitively
    # (the overlap coefficient is robust to the bridge description being richer)
    resolver_2 = IncrementalResolver(
        ProfileSimilarityMatcher(threshold=0.6, similarity_name="overlap")
    )
    resolver_2.add(EntityDescription("a", {"name": "alan turing"}))
    resolver_2.add(EntityDescription("c", {"label": "enigma codebreaker bletchley"}))
    assert resolver_2.num_clusters == 2
    bridge = resolver_2.add(
        EntityDescription("b", {"name": "alan turing", "label": "enigma codebreaker bletchley"})
    )
    assert len(bridge.matched_clusters) == 2
    assert resolver_2.cluster_of("a") == {"a", "b", "c"}
    assert resolver_2.num_clusters == 1


def test_incremental_matches_batch_ground_truth():
    dataset = generate_dirty_dataset(DatasetConfig(num_entities=60, duplicates_per_entity=1.5, seed=41))
    truth = dataset.ground_truth
    resolver = IncrementalResolver(OracleMatcher(truth), max_candidates=30)
    results = resolver.add_all(dataset.collection)
    assert len(resolver) == len(dataset.collection)
    quality = evaluate_matches(
        [pair for cluster in resolver.non_trivial_clusters() for pair in _pairs(cluster)], truth
    )
    assert quality.precision == 1.0
    assert quality.recall > 0.95
    # the incremental process is far cheaper than the quadratic batch
    assert resolver.comparisons_executed < dataset.collection.total_comparisons() / 3
    # every arrival charged at most max_candidates comparisons
    assert all(result.comparisons <= 30 for result in results)


def test_as_collection_preserves_descriptions():
    resolver = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5))
    resolver.add(EntityDescription("a", {"name": "alan"}))
    resolver.add(EntityDescription("b", {"name": "grace"}))
    collection = resolver.as_collection()
    assert set(collection.identifiers) == {"a", "b"}


def _pairs(cluster):
    members = sorted(cluster)
    for i, first in enumerate(members):
        for second in members[i + 1 :]:
            yield (first, second)


# ----------------------------------------------------------------------
# oracle internals: merge re-pointing and comparison accounting
# ----------------------------------------------------------------------
def _expected_token_state(resolver):
    """Token index + reverse map recomputed from scratch (the slow way)."""
    token_index = {}
    root_tokens = {}
    for root, members in resolver._cluster_members.items():
        tokens = set()
        for member in members:
            tokens |= resolver._tokens_of(resolver._descriptions[member])
        root_tokens[root] = tokens
        for token in tokens:
            token_index.setdefault(token, set()).add(root)
    return token_index, root_tokens


def test_merge_repoints_only_absorbed_postings():
    """Regression: ``_merge_into`` walks the reverse map, not the whole index.

    The surgical re-pointing must leave the token index in exactly the state
    a full rebuild would produce -- after every arrival, remove and update
    of a seeded stream with plenty of merges.
    """
    dataset = generate_dirty_dataset(
        DatasetConfig(num_entities=25, duplicates_per_entity=2.0, seed=47)
    )
    resolver = IncrementalResolver(ReadableMatcher(threshold=0.45))
    descriptions = list(dataset.collection)
    for position, description in enumerate(descriptions):
        resolver.add(description)
        assert (resolver._token_index, resolver._root_tokens) == _expected_token_state(
            resolver
        )
        if position >= 8 and position % 6 == 0:
            resolver.remove(descriptions[position - 7].identifier)
            assert (
                resolver._token_index,
                resolver._root_tokens,
            ) == _expected_token_state(resolver)
        if position >= 9 and position % 9 == 0:
            resolver.update(descriptions[position - 3])
            assert (
                resolver._token_index,
                resolver._root_tokens,
            ) == _expected_token_state(resolver)


class _CountingMatcher(ProfileSimilarityMatcher):
    """Counts executed ``match`` calls (subclassing also forces the oracle)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def match(self, first, second):
        self.calls += 1
        return super().match(first, second)


def test_comparisons_executed_counts_matcher_calls():
    """``comparisons_executed`` equals executed matcher calls on both engines.

    The oracle is pinned directly against an instrumented matcher; the array
    engine (which scores through the batch engine, not ``match``) is pinned
    by producing the same count on the same stream -- closing the chain from
    the columnar counter to actual matcher invocations.
    """
    dataset = generate_dirty_dataset(
        DatasetConfig(num_entities=30, duplicates_per_entity=1.5, seed=53)
    )
    descriptions = list(dataset.collection)

    counting = _CountingMatcher(threshold=0.5)
    oracle = IncrementalResolver(counting)
    for description in descriptions:
        result = oracle.add(description)
        assert oracle.comparisons_executed == counting.calls
        assert result.comparisons <= oracle.max_candidates
    assert oracle.last_engine == "object"  # subclass type falls back
    replays = oracle.remove(descriptions[4].identifier)
    assert oracle.comparisons_executed == counting.calls
    assert sum(r.comparisons for r in replays) >= 0
    oracle.update(descriptions[9])
    assert oracle.comparisons_executed == counting.calls
    oracle.resolve(descriptions[12])  # read-only: must not move the counter
    total_calls = counting.calls
    assert oracle.comparisons_executed == total_calls

    array = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5))
    array.add_all(descriptions)
    assert array.last_engine == "array"
    array.remove(descriptions[4].identifier)
    array.update(descriptions[9])
    array.resolve(descriptions[12])
    assert array.comparisons_executed == total_calls


def test_oracle_remove_dissolves_and_reresolves():
    resolver = IncrementalResolver(ReadableMatcher(threshold=0.5))
    resolver.add(EntityDescription("a1", {"name": "alan turing", "city": "london"}))
    resolver.add(EntityDescription("a2", {"label": "alan m turing", "place": "london"}))
    resolver.add(EntityDescription("x", {"name": "grace hopper"}))
    assert resolver.cluster_of("a1") == {"a1", "a2"}
    replays = resolver.remove("a1")
    # the co-member re-resolves (as a singleton here: nothing else matches)
    assert [r.identifier for r in replays] == ["a2"]
    assert resolver.cluster_of("a1") == frozenset()
    assert resolver.cluster_of("a2") == {"a2"}
    assert len(resolver) == 2
    with pytest.raises(KeyError):
        resolver.remove("a1")


def test_oracle_update_changes_cluster_membership():
    resolver = IncrementalResolver(ReadableMatcher(threshold=0.5))
    resolver.add(EntityDescription("a1", {"name": "alan turing", "city": "london"}))
    resolver.add(EntityDescription("b1", {"name": "grace hopper", "city": "arlington"}))
    resolver.add(EntityDescription("m", {"name": "alan turing", "city": "london"}))
    assert resolver.cluster_of("m") == {"a1", "m"}
    result = resolver.update(
        EntityDescription("m", {"name": "grace hopper", "city": "arlington"})
    )
    assert not result.is_new_entity
    assert resolver.cluster_of("m") == {"b1", "m"}
    assert resolver.cluster_of("a1") == {"a1"}


def test_resolve_is_a_pure_query():
    resolver = IncrementalResolver(ReadableMatcher(threshold=0.5))
    resolver.add(EntityDescription("a1", {"name": "alan turing", "city": "london"}))
    before = resolver.comparisons_executed
    joined = resolver.resolve(
        EntityDescription("probe", {"label": "alan m turing", "place": "london"})
    )
    assert joined == {"a1"}
    assert resolver.resolve(EntityDescription("q", {"name": "unrelated zzz"})) == frozenset()
    # probing with a stored identifier is legal (e.g. just before an update)
    assert resolver.resolve(
        EntityDescription("a1", {"name": "alan turing", "city": "london"})
    ) == {"a1"}
    assert resolver.comparisons_executed == before
    assert len(resolver) == 1
