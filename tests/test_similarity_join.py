"""Tests for the prefix-filtering similarity-join blocking, including the
property that the join finds exactly the pairs a brute-force scan finds."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.similarity_join import SimilarityJoinBlocking
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.text.similarity import jaccard_similarity
from repro.text.tokenize import token_set


def brute_force_pairs(collection, threshold, builder):
    """All pairs whose Jaccard similarity over the builder's tokens reaches the threshold."""
    tokens = {
        d.identifier: token_set(
            d.values(), stop_words=builder.stop_words, min_length=builder.min_token_length
        )
        for d in collection
    }
    result = set()
    for first, second in itertools.combinations(sorted(tokens), 2):
        if jaccard_similarity(tokens[first], tokens[second]) >= threshold:
            result.add((first, second))
    return result


def test_threshold_validation():
    with pytest.raises(ValueError):
        SimilarityJoinBlocking(threshold=0.0)
    with pytest.raises(ValueError):
        SimilarityJoinBlocking(threshold=1.5)


def test_join_finds_expected_pairs_on_small_example():
    collection = EntityCollection(
        [
            EntityDescription("a", {"name": "alan mathison turing bletchley"}),
            EntityDescription("b", {"name": "alan turing bletchley park"}),
            EntityDescription("c", {"name": "grace brewster murray hopper"}),
            EntityDescription("d", {"name": "completely unrelated words here"}),
        ]
    )
    builder = SimilarityJoinBlocking(threshold=0.4)
    blocks = builder.build(collection)
    pairs = blocks.distinct_pairs()
    assert ("a", "b") in pairs
    assert ("c", "d") not in pairs
    assert builder.last_verified_count == len(pairs)
    assert builder.last_candidate_count >= builder.last_verified_count


def test_join_matches_brute_force_on_generated_data(small_dirty_dataset):
    collection = small_dirty_dataset.collection.sample(60, seed=1)
    builder = SimilarityJoinBlocking(threshold=0.5)
    join_pairs = builder.build(collection).distinct_pairs()
    expected = brute_force_pairs(collection, 0.5, builder)
    assert join_pairs == expected


def test_positional_filter_does_not_change_results(small_dirty_dataset):
    collection = small_dirty_dataset.collection.sample(50, seed=2)
    with_filter = SimilarityJoinBlocking(threshold=0.4, use_positional_filter=True)
    without_filter = SimilarityJoinBlocking(threshold=0.4, use_positional_filter=False)
    assert with_filter.build(collection).distinct_pairs() == without_filter.build(collection).distinct_pairs()
    assert with_filter.last_candidate_count <= without_filter.last_candidate_count


def test_clean_clean_join_only_returns_cross_pairs(small_clean_clean_dataset):
    task = small_clean_clean_dataset.task
    left = EntityCollection(list(task.left)[:30], name="l")
    right = EntityCollection(list(task.right)[:30], name="r")
    small_task = CleanCleanTask(left, right)
    blocks = SimilarityJoinBlocking(threshold=0.3).build(small_task)
    for first, second in blocks.distinct_pairs():
        assert small_task.is_valid_pair(first, second)


def test_join_pairs_returns_similarities():
    collection = EntityCollection(
        [
            EntityDescription("a", {"name": "alan turing"}),
            EntityDescription("b", {"name": "alan turing"}),
        ]
    )
    results = SimilarityJoinBlocking(threshold=0.5).join_pairs(collection)
    assert results == [("a", "b", 1.0)]
    # clean-clean: cross pairs only, in canonical order, each with its Jaccard
    left = EntityCollection(
        [
            EntityDescription("z-left", {"name": "alan turing bletchley"}),
            EntityDescription("l2", {"name": "grace hopper navy"}),
        ],
        name="left",
    )
    right = EntityCollection(
        [
            EntityDescription("a-right", {"name": "alan turing"}),
            EntityDescription("r2", {"name": "grace hopper navy"}),
            EntityDescription("r3", {"name": "grace hopper"}),
        ],
        name="right",
    )
    task = CleanCleanTask(left, right)
    builder = SimilarityJoinBlocking(threshold=0.5)
    results = builder.join_pairs(task)
    assert results == [
        ("a-right", "z-left", 2 / 3),
        ("l2", "r2", 1.0),
        ("l2", "r3", 2 / 3),
    ]
    assert [(first, second) for first, second, _ in results] == [
        pair for block in builder.build(task) for pair in block.pairs()
    ]
    assert builder.last_verified_count == len(results)


token_strategy = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]),
    min_size=1,
    max_size=5,
    unique=True,
)


@given(st.lists(token_strategy, min_size=2, max_size=12), st.sampled_from([0.3, 0.5, 0.7]))
@settings(max_examples=40, deadline=None)
def test_join_equals_brute_force_property(token_lists, threshold):
    collection = EntityCollection(
        [
            EntityDescription(f"r{i}", {"value": " ".join(tokens)})
            for i, tokens in enumerate(token_lists)
        ]
    )
    builder = SimilarityJoinBlocking(threshold=threshold, min_token_length=1, stop_words=None)
    join_pairs = builder.build(collection).distinct_pairs()
    expected = brute_force_pairs(collection, threshold, builder)
    assert join_pairs == expected


@pytest.mark.parametrize("threshold", ["0.5", float("nan"), True, None, 0.0, 1.5])
def test_threshold_is_checked_at_construction(threshold):
    with pytest.raises(ValueError, match=r"threshold must be a number in \(0, 1\]"):
        SimilarityJoinBlocking(threshold=threshold)
