"""Tests for budgets, progressive schedulers and the progressive runner."""

import pytest
from conftest import readable

from repro.blocking.base import Block, BlockCollection
from repro.blocking.token_blocking import TokenBlocking
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison
from repro.matching.matchers import MatchDecision, ProfileSimilarityMatcher
from repro.matching.oracle import OracleMatcher
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.budget import Budget
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.progressive.psnm import ProgressiveBlockScheduler, ProgressiveSortedNeighborhood
from repro.progressive.runner import run_progressive
from repro.progressive.scheduler import CostBenefitScheduler
from repro.progressive.schedulers import (
    RandomOrderScheduler,
    StaticOrderScheduler,
    WeightOrderScheduler,
    candidate_comparisons,
)
from repro.progressive.sorted_list import SortedListScheduler


class TestBudget:
    def test_charge_and_exhaustion(self):
        budget = Budget(3)
        assert budget.charge() and budget.charge() and budget.charge()
        assert not budget.charge()
        assert budget.exhausted
        assert budget.remaining == 0.0
        assert budget.fraction_used() == 1.0

    def test_unlimited_budget(self):
        budget = Budget(None)
        for _ in range(100):
            assert budget.charge(5.0)
        assert not budget.exhausted
        assert budget.remaining is None
        assert budget.fraction_used() == 0.0

    def test_validation_and_reset(self):
        with pytest.raises(ValueError):
            Budget(-1)
        budget = Budget(10)
        budget.charge(4)
        with pytest.raises(ValueError):
            budget.charge(-1)
        budget.reset()
        assert budget.spent == 0.0

    @pytest.mark.parametrize("total", [-1, -0.5, float("nan"), float("inf"), float("-inf")])
    def test_rejects_totals_that_are_not_finite_and_non_negative(self, total):
        with pytest.raises(ValueError, match="finite non-negative"):
            Budget(total)

    def test_cannot_overcharge_partially(self):
        budget = Budget(5)
        assert budget.charge(4)
        assert not budget.charge(2)  # would exceed: nothing is charged
        assert budget.spent == 4


class TestBatchedAccounting:
    """Charging and recording many comparisons at once leaves the very
    state the per-comparison loop leaves, bit for bit."""

    CASES = [(0.3, 10), (1.0, 40_000), (0.1, 1.0), (0.0, 5), (2.5, None)]

    @pytest.mark.parametrize("cost, total", CASES)
    def test_charge_many_equals_the_charge_loop(self, cost, total):
        batched, looped = Budget(total), Budget(total)
        for count in (1, 7, 512, 0, 50_000 if total else 100):
            charged = batched.charge_many(cost, count)
            expected = 0
            while expected < count and looped.charge(cost):
                expected += 1
            assert charged == expected
            assert batched.spent == looped.spent  # exact: accumulated, not multiplied
            assert batched.exhausted == looped.exhausted
        with pytest.raises(ValueError):
            batched.charge_many(-1.0, 3)

    def test_charge_many_does_not_multiply(self):
        budget = Budget(None)
        budget.charge_many(0.1, 10)
        assert budget.spent == sum([0.1] * 10) != 0.1 * 10

    @pytest.mark.parametrize("cost, budget", [(0.3, 10), (1.0, 40_000)])
    def test_runner_batches_equal_the_per_comparison_loop(self, small_dirty_dataset, cost, budget):
        from repro.core.context import PipelineContext
        from repro.matching.engine import MatchingEngine

        data, truth = small_dirty_dataset.collection, small_dirty_dataset.ground_truth
        context = PipelineContext(data)
        blocks = TokenBlocking().build(data)
        matcher = ProfileSimilarityMatcher(
            threshold=0.5, vectorizer=context.fit_vectorizer(), cost=cost
        )
        runs = [
            run_progressive(
                WeightOrderScheduler(), component, data, blocks, budget=budget,
                ground_truth=truth, engine=engine, batch_size=64,
            )
            for component, engine in (
                (matcher, MatchingEngine(matcher, context=context)),  # columnar drain
                (readable(matcher), None),  # one charge and one record per comparison
            )
        ]
        batched, looped = runs
        assert batched.budget_spent == looped.budget_spent
        assert batched.comparisons_executed == looped.comparisons_executed > 0
        assert batched.curve.history() == looped.curve.history()
        assert batched.curve.auc() == looped.curve.auc()
        assert batched.declared_matches == looped.declared_matches
        if budget == 10:
            assert batched.comparisons_executed == 33


class TestBaselineSchedulers:
    def test_candidate_comparisons_deduplicates(self):
        comparisons = [Comparison("a", "b"), Comparison("b", "a"), Comparison("a", "c")]
        assert len(candidate_comparisons(comparisons)) == 2

    def test_random_order_is_seeded_permutation(self, small_dirty_dataset):
        blocks = TokenBlocking().build(small_dirty_dataset.collection)
        first = list(RandomOrderScheduler(seed=1).schedule(small_dirty_dataset.collection, blocks))
        second = list(RandomOrderScheduler(seed=1).schedule(small_dirty_dataset.collection, blocks))
        assert [c.pair for c in first] == [c.pair for c in second]
        assert {c.pair for c in first} == blocks.distinct_pairs()

    def test_weight_order_descending(self):
        comparisons = [
            Comparison("a", "b", weight=0.2),
            Comparison("c", "d", weight=0.9),
            Comparison("e", "f"),
        ]
        ordered = list(WeightOrderScheduler().schedule(None, comparisons))
        assert ordered[0].pair == ("c", "d")
        assert ordered[-1].pair == ("e", "f")  # unweighted last

    def test_static_order(self):
        order = [Comparison("a", "b"), Comparison("c", "d")]
        assert list(StaticOrderScheduler(order).schedule(None, [])) == order


class TestOrderedSchedulers:
    def make_sorted_collection(self):
        return EntityCollection(
            [
                EntityDescription("e1", {"name": "alpha one"}),
                EntityDescription("e2", {"name": "alpha one extra"}),
                EntityDescription("e3", {"name": "beta two"}),
                EntityDescription("e4", {"name": "beta two extra"}),
                EntityDescription("e5", {"name": "omega"}),
            ]
        )

    def test_sorted_list_emits_adjacent_pairs_first(self):
        collection = self.make_sorted_collection()
        scheduler = SortedListScheduler(restrict_to_candidates=False)
        ordered = [c.pair for c in scheduler.schedule(collection, None)]
        assert ordered[0] == ("e1", "e2")
        # distance-1 pairs come before any distance-2 pair
        assert ordered.index(("e1", "e2")) < ordered.index(("e1", "e3"))
        # no duplicates
        assert len(ordered) == len(set(ordered))

    def test_sorted_list_respects_candidate_restriction(self):
        collection = self.make_sorted_collection()
        allowed = [Comparison("e1", "e2")]
        scheduler = SortedListScheduler(restrict_to_candidates=True)
        ordered = [c.pair for c in scheduler.schedule(collection, allowed)]
        assert ordered == [("e1", "e2")]

    def test_sorted_list_max_distance(self):
        collection = self.make_sorted_collection()
        scheduler = SortedListScheduler(max_distance=1, restrict_to_candidates=False)
        ordered = [c.pair for c in scheduler.schedule(collection, None)]
        assert len(ordered) == 4  # only adjacent pairs

    def test_hierarchy_validation(self):
        with pytest.raises(ValueError):
            PartitionHierarchyScheduler(max_prefix=0)
        with pytest.raises(ValueError):
            PartitionHierarchyScheduler(step=0)

    def test_hierarchy_emits_tight_partitions_first(self):
        collection = EntityCollection(
            [
                EntityDescription("e1", {"name": "alpha one"}),
                EntityDescription("e2", {"name": "alpha one extra"}),
                EntityDescription("e3", {"name": "alpha zeta"}),
                EntityDescription("e4", {"name": "beta two"}),
            ]
        )
        scheduler = PartitionHierarchyScheduler(max_prefix=8, step=4, restrict_to_candidates=False)
        ordered = [c.pair for c in scheduler.schedule(collection, None)]
        # (e1, e2) share an 8-character prefix and are emitted at the deepest level,
        # before (e1, e3) which only share the 4-character prefix "alph"
        assert ordered.index(("e1", "e2")) < ordered.index(("e1", "e3"))
        # descriptions that share no prefix at any level are never emitted
        assert ("e1", "e4") not in ordered
        assert len(ordered) == len(set(ordered))

    def test_psnm_lookahead_promotes_neighbouring_pairs(self):
        collection = self.make_sorted_collection()
        scheduler = ProgressiveSortedNeighborhood()
        generator = scheduler.schedule(collection, None)
        first = next(generator)
        assert first.pair == ("e1", "e2")
        # report a match: the lookahead should enqueue (e2, e3) next-ish
        scheduler.feedback(MatchDecision(first, similarity=1.0, is_match=True))
        second = next(generator)
        assert second.pair in {("e2", "e3"), ("e1", "e3")}

    def test_psnm_without_matches_follows_the_sorted_list_order(self):
        collection = self.make_sorted_collection()
        psnm = ProgressiveSortedNeighborhood()
        sorted_list = SortedListScheduler(restrict_to_candidates=False)
        assert [c.pair for c in psnm.schedule(collection, None)] == [
            c.pair for c in sorted_list.schedule(collection, None)
        ]

    def test_progressive_block_scheduler_keeps_blocks_that_share_a_key(self):
        blocks = BlockCollection(
            [Block("k", members=["a", "b"]), Block("k", members=["c", "d", "e"])]
        )
        scheduler = ProgressiveBlockScheduler()
        emitted = []
        for comparison in scheduler.schedule(None, blocks):
            emitted.append(comparison.pair)
            scheduler.feedback(MatchDecision(comparison, similarity=1.0, is_match=True))
        assert emitted == [("a", "b"), ("c", "d"), ("c", "e"), ("d", "e")]

    def test_progressive_block_scheduler_breaks_cardinality_ties_on_the_key(self):
        blocks = BlockCollection(
            [
                Block("z", members=["a", "b"]),
                Block("m", members=["c", "d", "e"]),
                Block("b", members=["f", "g"]),
            ]
        )
        emitted = [c.pair for c in ProgressiveBlockScheduler().schedule(None, blocks)]
        assert emitted == [("f", "g"), ("a", "b"), ("c", "d"), ("c", "e"), ("d", "e")]

    def test_progressive_block_scheduler_visits_smaller_blocks_first(self, small_dirty_dataset):
        collection = small_dirty_dataset.collection
        blocks = TokenBlocking().build(collection)
        smallest = {}
        for block in blocks:
            for pair in block.pairs():
                size = block.num_comparisons()
                smallest[pair] = min(smallest.get(pair, size), size)
        emitted = [c.pair for c in ProgressiveBlockScheduler().schedule(collection, blocks)]
        assert sorted(emitted) == sorted(smallest)  # every distinct pair once
        sizes = [smallest[pair] for pair in emitted]
        assert sizes == sorted(sizes)


class TestCostBenefitScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostBenefitScheduler(window_size=0)
        with pytest.raises(ValueError):
            CostBenefitScheduler(influence_weight=-1)

    def test_emits_every_candidate_exactly_once(self, small_dirty_dataset):
        blocks = TokenBlocking().build(small_dirty_dataset.collection.sample(50, seed=1))
        weighted = MetaBlocking("CBS", "CNP").weighted_comparisons(blocks)
        scheduler = CostBenefitScheduler(window_size=10)
        emitted = [c.pair for c in scheduler.schedule(small_dirty_dataset.collection, weighted)]
        assert len(emitted) == len(set(emitted)) == len(weighted)
        assert scheduler.windows_executed >= 1

    def test_influence_promotes_related_pairs(self):
        # three descriptions of the same entity: once (a,b) matches, (a,c) and (b,c)
        # should be scheduled before the unrelated pair (x,y)
        comparisons = [
            Comparison("a", "b", weight=1.0),
            Comparison("a", "c", weight=0.1),
            Comparison("b", "c", weight=0.1),
            Comparison("x", "y", weight=0.5),
        ]
        collection = EntityCollection(
            [EntityDescription(i, {"name": i}) for i in ["a", "b", "c", "x", "y"]]
        )
        scheduler = CostBenefitScheduler(window_size=1, influence_weight=1.0)
        generator = scheduler.schedule(collection, comparisons)
        first = next(generator)
        assert first.pair == ("a", "b")
        scheduler.feedback(MatchDecision(first, similarity=1.0, is_match=True))
        second = next(generator)
        assert second.pair in {("a", "c"), ("b", "c")}


class TestRunner:
    def test_budget_and_curve(self, small_dirty_dataset):
        blocks = TokenBlocking().build(small_dirty_dataset.collection)
        oracle = OracleMatcher(small_dirty_dataset.ground_truth)
        result = run_progressive(
            SortedListScheduler(),
            oracle,
            small_dirty_dataset.collection,
            blocks,
            budget=200,
            ground_truth=small_dirty_dataset.ground_truth,
        )
        assert result.comparisons_executed <= 200
        assert result.curve is not None
        assert 0.0 <= result.auc <= 1.0
        assert result.true_matches_found == len(result.declared_matches)  # perfect oracle

    def test_unlimited_budget_exhausts_candidates(self, tiny_collection, tiny_ground_truth):
        blocks = TokenBlocking().build(tiny_collection)
        result = run_progressive(
            RandomOrderScheduler(),
            ProfileSimilarityMatcher(threshold=0.3),
            tiny_collection,
            blocks,
            budget=None,
            ground_truth=tiny_ground_truth,
            keep_decisions=True,
        )
        assert result.comparisons_executed == blocks.num_distinct_comparisons()
        assert len(result.decisions) == result.comparisons_executed

    def test_progressive_schedulers_beat_random_order(self, small_dirty_dataset):
        collection = small_dirty_dataset.collection
        truth = small_dirty_dataset.ground_truth
        blocks = TokenBlocking().build(collection)
        budget = 1500

        def auc_of(scheduler):
            return run_progressive(
                scheduler, OracleMatcher(truth), collection, blocks, budget=budget, ground_truth=truth
            ).auc

        random_auc = auc_of(RandomOrderScheduler(seed=2))
        assert auc_of(SortedListScheduler()) > random_auc
        assert auc_of(ProgressiveSortedNeighborhood()) > random_auc
        assert auc_of(ProgressiveBlockScheduler()) > random_auc
