"""Tests for token blocking, attribute-clustering blocking and URI-aware blocking."""

import pytest

from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
)
from repro.core.context import PipelineContext
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.evaluation.metrics import evaluate_blocks


def cluster_attributes(data, similarity_threshold, min_token_length=1, **kwargs):
    """The attribute clusters an ``AttributeClusteringBlocking`` build keys by."""
    builder = AttributeClusteringBlocking(
        similarity_threshold=similarity_threshold, min_token_length=min_token_length, **kwargs
    )
    return builder._clustered(PipelineContext(data))[0]


def make_heterogeneous_pair():
    """Two descriptions of the same person using different vocabularies."""
    return EntityCollection(
        [
            EntityDescription("x1", {"name": "Alan Turing", "city": "London"}),
            EntityDescription("x2", {"foaf:name": "Alan M. Turing", "location": "London"}),
            EntityDescription("y1", {"name": "Grace Hopper", "city": "New York"}),
        ]
    )


class TestTokenBlocking:
    def test_shared_token_places_descriptions_in_same_block(self):
        blocks = TokenBlocking().build(make_heterogeneous_pair())
        assert ("x1", "x2") in blocks.distinct_pairs()

    def test_block_keys_are_tokens(self):
        blocks = TokenBlocking().build(make_heterogeneous_pair())
        keys = {block.key for block in blocks}
        assert "turing" in keys and "london" in keys

    def test_min_token_length_and_stop_words(self):
        collection = EntityCollection(
            [
                EntityDescription("a", {"name": "a of x"}),
                EntityDescription("b", {"name": "a of y"}),
            ]
        )
        blocks = TokenBlocking(min_token_length=2).build(collection)
        assert len(blocks) == 0  # 'a' too short, 'of' is a stop word, x/y too short

    def test_max_block_fraction_drops_huge_blocks(self):
        descriptions = [
            EntityDescription(f"e{i}", {"name": f"common token{i}"}) for i in range(10)
        ]
        collection = EntityCollection(descriptions)
        unlimited = TokenBlocking().build(collection)
        limited = TokenBlocking(max_block_fraction=0.5).build(collection)
        assert any(block.key == "common" for block in unlimited)
        assert all(block.key != "common" for block in limited)

    def test_max_block_fraction_is_not_truncated_by_float_error(self):
        # 0.3 * 10 evaluates to 2.999...96: the limit must still be 3, so a
        # block holding exactly 3 of 10 descriptions survives (the old int()
        # truncation dropped it)
        descriptions = [EntityDescription(f"t{i}", {"name": f"trio filler{i}"}) for i in range(3)]
        descriptions += [EntityDescription(f"o{i}", {"name": f"other{i}"}) for i in range(7)]
        collection = EntityCollection(descriptions)
        limited = TokenBlocking(max_block_fraction=0.3).build(collection)
        assert any(block.key == "trio" for block in limited)

    def test_max_block_fraction_tiny_collections(self):
        # total <= 3: the limit never drops below 2, so minimal pair blocks
        # always survive even under an extreme fraction
        pair = EntityCollection(
            [
                EntityDescription("a", {"name": "shared token"}),
                EntityDescription("b", {"name": "shared value"}),
            ]
        )
        blocks = TokenBlocking(max_block_fraction=0.01).build(pair)
        assert any(block.key == "shared" for block in blocks)

        trio = EntityCollection(
            [EntityDescription(f"e{i}", {"name": "shared"}) for i in range(3)]
        )
        # fraction 1.0 admits the full 3-member block; a small fraction
        # clamps the limit to 2 and drops it
        assert len(TokenBlocking(max_block_fraction=1.0).build(trio)) == 1
        assert len(TokenBlocking(max_block_fraction=0.1).build(trio)) == 0

    def test_max_block_fraction_counts_both_sides_of_bilateral_blocks(self):
        # the documented bound is a fraction of *all* descriptions: for
        # clean-clean input the member count sums both sides, so 2 left + 2
        # right members exceed a limit of 3 even though each side is below it
        left = EntityCollection(
            [EntityDescription(f"l{i}", {"name": f"shared only{i}"}) for i in range(2)],
            name="left",
        )
        right = EntityCollection(
            [
                EntityDescription("r0", {"name": "shared"}),
                EntityDescription("r1", {"name": "shared"}),
                EntityDescription("r2", {"name": "unrelated"}),
                EntityDescription("r3", {"name": "unmatched"}),
                EntityDescription("r4", {"name": "solo"}),
                EntityDescription("r5", {"name": "lonely"}),
            ],
            name="right",
        )
        task = CleanCleanTask(left, right)  # 8 descriptions in total
        unlimited = TokenBlocking().build(task)
        assert any(block.key == "shared" and len(block) == 4 for block in unlimited)
        limited = TokenBlocking(max_block_fraction=3 / 8).build(task)
        assert all(block.key != "shared" for block in limited)

    def test_clean_clean_blocks_are_bilateral(self, small_clean_clean_dataset):
        task = small_clean_clean_dataset.task
        blocks = TokenBlocking().build(task)
        assert all(block.is_bilateral for block in blocks)
        for first, second in list(blocks.distinct_pairs())[:50]:
            assert task.is_valid_pair(first, second)

    def test_full_recall_on_generated_dirty_data(self, small_dirty_dataset):
        blocks = TokenBlocking().build(small_dirty_dataset.collection)
        quality = evaluate_blocks(blocks, small_dirty_dataset.ground_truth, small_dirty_dataset.collection)
        assert quality.pair_completeness >= 0.95
        assert quality.reduction_ratio > 0.0


class TestAttributeClustering:
    def test_cluster_attributes_groups_synonymous_attributes(self):
        collection = EntityCollection(
            [
                EntityDescription("a1", {"name": "Alan Turing", "city": "London"}),
                EntityDescription("a2", {"label": "Alan Turing", "place": "London"}),
                EntityDescription("a3", {"name": "Grace Hopper", "city": "New York"}),
                EntityDescription("a4", {"label": "Grace Hopper", "place": "New York"}),
            ]
        )
        clusters = cluster_attributes(collection, similarity_threshold=0.3)
        assert clusters["name"] == clusters["label"]
        assert clusters["city"] == clusters["place"]
        assert clusters["name"] != clusters["city"]

    def test_attribute_clustering_never_loses_more_recall_than_it_saves_comparisons(
        self, small_dirty_dataset
    ):
        token = TokenBlocking().build(small_dirty_dataset.collection)
        clustered = AttributeClusteringBlocking().build(small_dirty_dataset.collection)
        token_quality = evaluate_blocks(token, small_dirty_dataset.ground_truth, small_dirty_dataset.collection)
        clustered_quality = evaluate_blocks(
            clustered, small_dirty_dataset.ground_truth, small_dirty_dataset.collection
        )
        assert clustered_quality.pair_completeness >= token_quality.pair_completeness - 0.05
        assert clustered_quality.num_comparisons <= token_quality.num_comparisons * 1.5

    def test_blocks_are_scoped_by_cluster(self):
        blocks = AttributeClusteringBlocking().build(make_heterogeneous_pair())
        assert all("#" in block.key for block in blocks)

    def test_clean_clean_profiles_are_pooled_across_both_collections(self):
        # 'name' only appears on the left, 'label' only on the right; they
        # can cluster together only if the profiles pool both collections
        left = EntityCollection(
            [
                EntityDescription("l1", {"name": "Alan Turing", "city": "London"}),
                EntityDescription("l2", {"name": "Grace Hopper", "city": "New York"}),
            ],
            name="left",
        )
        right = EntityCollection(
            [
                EntityDescription("r1", {"label": "Alan Turing", "place": "London"}),
                EntityDescription("r2", {"label": "Grace Hopper", "place": "New York"}),
            ],
            name="right",
        )
        task = CleanCleanTask(left, right)
        clusters = cluster_attributes(task, similarity_threshold=0.3)
        assert clusters["name"] == clusters["label"]
        assert clusters["city"] == clusters["place"]
        assert clusters["name"] != clusters["city"]
        # ...and the blocking built on those clusters links across collections
        blocks = AttributeClusteringBlocking(similarity_threshold=0.3).build(task)
        assert ("l1", "r1") in blocks.distinct_pairs()

    def test_clustering_profiles_honour_min_token_length(self):
        # attribute 'c' overlaps 'b' only through one-char tokens: with
        # min_token_length=1 that noise is clustering evidence and pulls 'c'
        # into the a/b cluster, with min_token_length=2 'c' has no long
        # shared token and must end up in the glue cluster instead
        collection = EntityCollection(
            [
                EntityDescription(
                    "d1", {"a": "solar panel", "b": "solar panel x y", "c": "x y lunar"}
                )
            ]
        )
        with_noise = cluster_attributes(collection, similarity_threshold=0.3, min_token_length=1)
        without_noise = cluster_attributes(collection, similarity_threshold=0.3, min_token_length=2)
        assert with_noise["c"] == with_noise["a"]
        assert without_noise["a"] == without_noise["b"]
        assert without_noise["c"] == 0  # glue cluster
        assert without_noise["c"] != without_noise["a"]

    def test_clustering_and_keys_use_the_same_tokenisation(self):
        """Regression: the builder passes min_token_length to the clustering.

        Under the old mismatched tokenisation the clustering stage saw the
        one-char tokens the key stage drops, so 'c' clustered with 'a'/'b'
        and its keys carried the wrong cluster id.
        """
        collection = EntityCollection(
            [
                EntityDescription(
                    "d1", {"a": "solar panel", "b": "solar panel x y", "c": "x y lunar"}
                ),
                EntityDescription(
                    "d2", {"a": "solar array", "b": "solar array x y", "c": "x y lunar"}
                ),
            ]
        )
        builder = AttributeClusteringBlocking(similarity_threshold=0.3, min_token_length=2)
        keys = {block.key for block in builder.build(collection)}
        expected = cluster_attributes(
            collection,
            similarity_threshold=0.3,
            stop_words=builder.stop_words,
            min_token_length=2,
        )
        # the key stage must scope 'lunar' by the same (glue) cluster the
        # clustering stage assigns to 'c'
        assert expected["c"] == 0 and expected["a"] == expected["b"] != 0
        assert f"c{expected['c']}#lunar" in keys
        assert f"c{expected['a']}#solar" in keys
        assert f"c{expected['a']}#lunar" not in keys


class TestPrefixInfixSuffix:
    def test_uri_infix_tokens_create_blocks(self):
        collection = EntityCollection(
            [
                EntityDescription("http://kb1.org/resource/Berlin_Wall", {"type": "monument"}),
                EntityDescription("http://kb2.org/page/Berlin_Wall", {"kind": "landmark"}),
            ]
        )
        plain = TokenBlocking().build(collection)
        uri_aware = PrefixInfixSuffixBlocking().build(collection)
        pair = ("http://kb1.org/resource/Berlin_Wall", "http://kb2.org/page/Berlin_Wall")
        assert pair not in plain.distinct_pairs()
        assert pair in uri_aware.distinct_pairs()
