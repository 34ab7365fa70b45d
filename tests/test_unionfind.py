"""Tests for the shared union--find structures and their consumers.

Besides the unit behaviour of :class:`UnionFind` / :class:`IntUnionFind`,
this module pins the cluster output of every call site that used to carry a
hand-rolled ``parent``-dict union--find (clustering, evaluation, iterative
blocking, collective ER, incremental ER, attribute clustering), so the
deduplication onto :mod:`repro.core.unionfind` provably kept the public
behaviour of each module.
"""

import pytest

from repro.core.unionfind import IntUnionFind, UnionFind


class TestUnionFind:
    def test_find_registers_singletons(self):
        links = UnionFind()
        assert links.find("a") == "a"
        assert "a" in links
        assert "b" not in links
        assert len(links) == 1

    def test_union_first_root_wins(self):
        links = UnionFind()
        assert links.union("a", "b") is True
        assert links.find("b") == "a"
        assert links.union("a", "b") is False  # already joined

    def test_transitive_union_keeps_winner_root(self):
        links = UnionFind()
        links.union("a", "b")
        links.union("c", "d")
        links.union("b", "d")  # joins {a,b} and {c,d}; a's root wins
        assert {links.find(x) for x in "abcd"} == {"a"}
        assert links.connected("b", "c")
        assert not links.connected("a", "z")  # registers z as a singleton
        assert "z" in links

    def test_groups_preserve_first_touch_order(self):
        links = UnionFind()
        links.union("m", "n")
        links.union("x", "y")
        links.union("m", "x")
        groups = links.groups()
        assert list(groups) == ["m"]
        assert groups["m"] == ["m", "n", "x", "y"]

    def test_pre_seeded_keys_enumerate_in_seed_order(self):
        links = UnionFind(["c", "a", "b"])
        links.union("b", "a")
        assert [sorted(cluster) for cluster in links.clusters()] == [["c"], ["a", "b"]]
        assert links.clusters(min_size=2) == [frozenset({"a", "b"})]

    def test_deterministic_across_runs(self):
        """Insertion-ordered groups do not depend on string hashing."""
        links = UnionFind()
        for first, second in [("u2", "u9"), ("u5", "u2"), ("u7", "u8")]:
            links.union(first, second)
        assert links.clusters() == [
            frozenset({"u2", "u9", "u5"}),
            frozenset({"u7", "u8"}),
        ]


class TestIntUnionFind:
    def test_union_and_find(self):
        links = IntUnionFind(5)
        assert links.union(0, 3)
        assert links.union(3, 4)
        assert links.find(4) == 0
        assert not links.union(0, 4)
        assert links.connected(3, 4)
        assert not links.connected(1, 2)

    def test_grow_adds_singletons(self):
        links = IntUnionFind(2)
        links.union(0, 1)
        links.grow(4)
        assert len(links) == 4
        assert links.find(3) == 3
        assert links.find(1) == 0

    def test_mirrors_keyed_union_find(self):
        """Same union sequence => same set representatives as UnionFind."""
        import random

        rng = random.Random(41)
        keyed = UnionFind(str(i) for i in range(50))
        coded = IntUnionFind(50)
        for _ in range(80):
            a, b = rng.randrange(50), rng.randrange(50)
            if a == b:
                continue
            keyed.union(str(a), str(b))
            coded.union(a, b)
        for i in range(50):
            assert keyed.find(str(i)) == str(coded.find(i))

    def test_roots_equal_find_after_random_unions(self):
        import random

        rng = random.Random(7)
        links = IntUnionFind(200)
        for step in range(150):
            links.union(rng.randrange(200), rng.randrange(200))
            if step % 50 == 49:
                ordinals = [rng.randrange(200) for _ in range(120)]
                parent = list(links.parent)
                roots = links.roots(ordinals).tolist()
                assert list(links.parent) == parent  # read only
                assert roots == [links.find(ordinal) for ordinal in ordinals]
        assert list(links.roots([])) == []
        links.grow(210)  # no buffer export outlives the call
        assert links.roots([205])[0] == 205


class TestConsumerRegressions:
    """Pin the cluster output of every module that migrated to UnionFind."""

    def test_connected_components_cluster_order(self):
        from repro.datamodel.pairs import Comparison
        from repro.matching.clustering import ConnectedComponentsClustering
        from repro.matching.matchers import MatchDecision

        decisions = [
            MatchDecision(Comparison("d", "e"), 0.9, True),
            MatchDecision(Comparison("a", "b"), 0.8, True),
            MatchDecision(Comparison("b", "e"), 0.7, True),
            MatchDecision(Comparison("x", "y"), 0.6, True),
        ]
        # clusters enumerate in first-touch order of their first member
        assert ConnectedComponentsClustering().cluster(decisions) == [
            frozenset({"d", "e", "a", "b"}),
            frozenset({"x", "y"}),
        ]

    def test_merge_center_cluster_order_is_deterministic(self):
        from repro.datamodel.pairs import Comparison
        from repro.matching.clustering import MergeCenterClustering
        from repro.matching.matchers import MatchDecision

        decisions = [
            MatchDecision(Comparison("c", "d"), 0.8, True),
            MatchDecision(Comparison("a", "b"), 0.9, True),
            MatchDecision(Comparison("a", "c"), 0.7, True),
            MatchDecision(Comparison("x", "y"), 0.5, True),
        ]
        # heaviest-first scan assigns a,b then c,d then merges both centers
        assert MergeCenterClustering().cluster(decisions) == [
            frozenset({"a", "b", "c", "d"}),
            frozenset({"x", "y"}),
        ]

    def test_evaluate_matches_counts_as_pair_sets_did(self):
        from repro.datamodel.ground_truth import GroundTruth
        from repro.evaluation.metrics import evaluate_matches

        truth = GroundTruth([["a", "b", "c"], ["d", "e"]])
        quality = evaluate_matches([("a", "b"), ("b", "c"), ("d", "x")], truth)
        # closure declares {a,b,c} (3 pairs, all correct) and {d,x} (1 pair, wrong)
        assert quality.num_declared == 4
        assert quality.num_correct == 3
        assert quality.precision == pytest.approx(3 / 4)
        assert quality.recall == pytest.approx(3 / 4)

    def test_independent_block_processing_clusters(self):
        from repro.blocking.base import Block, BlockCollection
        from repro.datamodel.collection import EntityCollection
        from repro.datamodel.description import EntityDescription
        from repro.iterative.iterative_blocking import IndependentBlockProcessing
        from repro.matching.matchers import ProfileSimilarityMatcher

        collection = EntityCollection(
            [
                EntityDescription("1", {"name": "anna lee"}),
                EntityDescription("2", {"name": "anna lee"}),
                EntityDescription("3", {"name": "bob ray"}),
            ]
        )
        blocks = BlockCollection([Block("anna", members=["1", "2"]), Block("ray", members=["3"])])
        result = IndependentBlockProcessing(
            ProfileSimilarityMatcher(threshold=0.9)
        ).resolve(collection, blocks)
        assert result.clusters == [frozenset({"1", "2"})]

    def test_collective_resolver_cluster_order(self):
        from repro.datamodel.collection import EntityCollection
        from repro.datamodel.description import EntityDescription
        from repro.iterative.collective import AttributeOnlyER

        collection = EntityCollection(
            [
                EntityDescription("p1", {"name": "carla jones", "city": "athens"}),
                EntityDescription("p2", {"name": "carla jones", "city": "athens"}),
                EntityDescription("p3", {"name": "mia wong", "city": "oslo"}),
                EntityDescription("p4", {"name": "mia wong", "city": "oslo"}),
            ]
        )
        result = AttributeOnlyER(match_threshold=0.9).resolve(collection)
        assert sorted(sorted(c) for c in result.clusters) == [["p1", "p2"], ["p3", "p4"]]

    def test_incremental_resolver_clusters_via_shared_links(self):
        from repro.datamodel.description import EntityDescription
        from repro.iterative.incremental import IncrementalResolver
        from repro.matching.matchers import ProfileSimilarityMatcher

        resolver = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.8))
        resolver.add(EntityDescription("a", {"name": "john maynard keynes"}))
        resolver.add(EntityDescription("b", {"name": "ludwig mies rohe"}))
        arrival = resolver.add(EntityDescription("c", {"name": "john maynard keynes"}))
        assert arrival.matched_clusters == ["a"]
        assert resolver.cluster_of("a") == frozenset({"a", "c"})
        assert resolver.cluster_of("c") == frozenset({"a", "c"})
        assert resolver.cluster_of("unknown") == frozenset()
        assert resolver.representation_of("unknown") is None
        assert resolver.non_trivial_clusters() == [frozenset({"a", "c"})]

    def test_cluster_attribute_profiles_ids(self):
        from repro.blocking.token_blocking import cluster_attribute_profiles

        profiles = {
            "name": {"anna", "bob", "carla"},
            "full_name": {"anna", "bob", "carla", "dan"},
            "year": {"1999", "2001"},
            "date": {"1999", "2001", "2003"},
            "isolated": {"zzz"},
        }
        clusters = cluster_attribute_profiles(profiles, similarity_threshold=0.5)
        assert clusters["name"] == clusters["full_name"]
        assert clusters["year"] == clusters["date"]
        assert clusters["name"] != clusters["year"]
        assert clusters["isolated"] == 0  # glue cluster
