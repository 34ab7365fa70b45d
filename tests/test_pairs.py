"""Tests for comparisons and the comparison counter."""

import numpy as np
import pytest

from repro.datamodel.pairs import (
    Comparison,
    ComparisonCounter,
    canonical_pair,
    heaviest_first,
    identifier_ranks,
)


def test_canonical_pair_orders_lexicographically():
    assert canonical_pair("b", "a") == ("a", "b")
    assert canonical_pair("a", "b") == ("a", "b")


def test_canonical_pair_rejects_self_pairs():
    with pytest.raises(ValueError):
        canonical_pair("a", "a")


def test_comparison_is_canonicalised_and_hashable():
    first = Comparison("b", "a")
    second = Comparison("a", "b")
    assert first.pair == ("a", "b")
    assert first == second
    assert len({first, second}) == 1


def test_comparison_weight_and_block_do_not_affect_equality():
    assert Comparison("a", "b", weight=0.3) == Comparison("a", "b", weight=0.9, block_id="t")


def test_comparison_other_and_involves():
    comparison = Comparison("a", "b")
    assert comparison.involves("a") and comparison.involves("b")
    assert not comparison.involves("c")
    assert comparison.other("a") == "b"
    with pytest.raises(KeyError):
        comparison.other("c")


def test_with_weight_preserves_pair_and_block():
    comparison = Comparison("a", "b", block_id="blk")
    weighted = comparison.with_weight(0.7)
    assert weighted.pair == ("a", "b")
    assert weighted.weight == 0.7
    assert weighted.block_id == "blk"


class TestComparisonCounter:
    def test_counts_per_stage_and_total(self):
        counter = ComparisonCounter()
        counter.record("blocking", 10)
        counter.record("matching")
        counter.record("matching", 4)
        assert counter.count("blocking") == 10
        assert counter.count("matching") == 5
        assert counter.total == 15
        assert counter.per_stage() == {"blocking": 10, "matching": 5}

    def test_reset(self):
        counter = ComparisonCounter()
        counter.record()
        counter.reset()
        assert counter.total == 0


class TestDecisionColumns:
    def _columns(self):
        from repro.datamodel.pairs import DecisionColumns, OrdinalInterner

        intern = OrdinalInterner()
        columns = DecisionColumns(intern.ids, cost=2.0)
        columns.append(intern("b"), intern("a"), 0.9, True)
        columns.append(intern("a"), intern("c"), 0.2, False)
        return columns

    def test_lazy_decisions_bridge(self):
        from repro.matching.matchers import MatchDecision

        columns = self._columns()
        assert len(columns) == 2
        first = columns[0]
        assert isinstance(first, MatchDecision)
        assert first.pair == ("a", "b")  # canonicalised like Comparison
        assert first.similarity == 0.9
        assert first.is_match is True
        assert first.cost == 2.0
        assert [d.is_match for d in columns] == [True, False]
        with pytest.raises(TypeError):
            columns[0:1]

    def test_pairs_and_matched_pairs(self):
        columns = self._columns()
        assert columns.pair(0) == ("a", "b")
        assert columns.pairs() == {("a", "b"), ("a", "c")}
        assert columns.matched_pairs() == [("a", "b")]
        assert columns.num_matches == 1

    def test_from_decisions_round_trip(self):
        from repro.datamodel.pairs import Comparison, DecisionColumns
        from repro.matching.matchers import MatchDecision

        decisions = [
            MatchDecision(Comparison("x", "m"), 0.7, True),
            MatchDecision(Comparison("m", "n"), 0.1, False),
        ]
        columns = DecisionColumns.from_decisions(decisions)
        assert list(columns) == decisions

    def test_from_match_pairs_canonicalises_and_rejects_self_pairs(self):
        from repro.datamodel.pairs import DecisionColumns

        columns = DecisionColumns.from_match_pairs([("b", "a"), ("a", "c")])
        assert [columns.pair(i) for i in range(len(columns))] == [("a", "b"), ("a", "c")]
        assert all(columns.is_match)
        assert all(s == 1.0 for s in columns.similarity)
        with pytest.raises(ValueError):
            DecisionColumns.from_match_pairs([("a", "a")])

    def test_misaligned_columns_rejected(self):
        from array import array

        from repro.datamodel.pairs import DecisionColumns

        with pytest.raises(ValueError):
            DecisionColumns(["a", "b"], first=array("q", [0]), second=array("q", []))


@pytest.mark.parametrize("weighted", (True, False))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_heaviest_first_equals_the_three_key_lexsort(seed, weighted):
    """Same permutation as ``lexsort`` -- weight ties, pair ties and whole
    duplicate rows (which keep their input order) included."""
    rng = np.random.default_rng(seed)
    size, rows = 40, 500
    rank = rng.permutation(size)
    first = rng.integers(0, size, rows)
    second = rng.integers(0, size, rows)
    weights = rng.integers(0, 4, rows).astype(float)  # few distinct weights: many ties
    copies = rng.integers(100, rows, 100)
    first[:100], second[:100], weights[:100] = first[copies], second[copies], weights[copies]
    if weighted:
        expected = np.lexsort((rank[second], rank[first], -weights))
    else:
        expected = np.lexsort((rank[second], rank[first]))
        weights = None
    assert np.array_equal(heaviest_first(rank, first, second, weights), expected)


class TestIdentifierRanks:
    def test_one_computation_per_default_run(self, monkeypatch):
        from repro.core.workflow import default_workflow
        from repro.datamodel import pairs
        from repro.datasets import DatasetConfig, generate_dirty_dataset

        computed = []
        compute = pairs._rank_table

        def counting(ids):
            computed.append(len(ids))
            return compute(ids)

        monkeypatch.setattr(pairs, "_rank_table", counting)
        generated = generate_dirty_dataset(
            DatasetConfig(num_entities=200, domain="publication", seed=5)
        )
        result = default_workflow().run(generated.collection, generated.ground_truth)
        assert result.clusters and result.blocking_quality is not None
        # the index engine, the weight sort and clustering share one table
        assert computed == [len(generated.collection)]

    def test_a_grown_table_gets_fresh_ranks(self):
        table = ["b", "a"]
        ranks = identifier_ranks(table)
        assert ranks.tolist() == [1, 0] and not ranks.flags.writeable
        assert identifier_ranks(table) is ranks
        table.append("0")
        assert identifier_ranks(table).tolist() == [2, 1, 0]
        # an equal table that is another object is ranked on its own
        twin = list(table)
        assert identifier_ranks(twin) is not identifier_ranks(table)
        assert identifier_ranks(twin).tolist() == [2, 1, 0]
