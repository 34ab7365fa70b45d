"""Seeded equivalence suite: array vs object scheduling paths.

The object path (every scheduler's own ``schedule`` generator, reached by a
trivial subclass of the scheduler) is the oracle.  For each seeded dataset,
candidate shape, scheduler and budget, the array path must reproduce the
oracle *bit for bit*: the
same comparisons in the same order (including order under weight ties), the
same declared matches, the same progressive recall curve and the same budget
accounting.
"""

import random

import pytest
from conftest import ReadableMatcher, ReadableScheduler, readable

from repro.blocking.base import Block, BlockCollection
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core.context import PipelineContext
from repro.datamodel.pairs import Comparison, ComparisonColumns, first_occurrences
from repro.datasets import (
    DatasetConfig,
    generate_clean_clean_task,
    generate_dirty_dataset,
)
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.engine import SchedulingEngine, _columns_from_blocks
from repro.progressive.psnm import (
    ProgressiveBlockScheduler,
    ProgressiveSortedNeighborhood,
)
from repro.progressive.runner import run_progressive
from repro.progressive.schedulers import (
    RandomOrderScheduler,
    StaticOrderScheduler,
    WeightOrderScheduler,
)
from repro.progressive.sorted_list import SortedListScheduler
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.text.vectorizer import TfIdfVectorizer


def _dataset(kind: str, seed: int):
    config = DatasetConfig(
        num_entities=60, duplicates_per_entity=1.4, domain="person", seed=seed
    )
    if kind == "dirty":
        dataset = generate_dirty_dataset(config)
        return dataset.collection, dataset.ground_truth
    dataset = generate_clean_clean_task(config)
    return dataset.task, dataset.ground_truth


def _blocks(data):
    engine = BlockingEngine(TokenBlocking())
    return engine.clean(
        engine.build(data), purging=BlockPurging(), filtering=BlockFiltering(0.8)
    )


def _candidates(data, shape: str):
    blocks = _blocks(data)
    if shape == "blocks":
        return blocks
    return MetaBlocking("CBS", "WNP").weighted_columns(blocks)


def _matcher(data, mode: str):
    if mode == "tfidf":
        return ProfileSimilarityMatcher(
            threshold=0.55, vectorizer=TfIdfVectorizer().fit(iter(data))
        )
    return ProfileSimilarityMatcher(threshold=0.3)


def _schedulers():
    return [
        WeightOrderScheduler(),
        RandomOrderScheduler(seed=5),
        SortedListScheduler(),
        SortedListScheduler(restrict_to_candidates=False, max_distance=7),
        ProgressiveBlockScheduler(promote_on_match=False),
    ]


def _trace(result):
    return (
        [(d.pair, d.similarity, d.is_match) for d in result.decisions],
        result.declared_matches,
        result.comparisons_executed,
        result.budget_spent,
        result.skipped_comparisons,
        result.curve.history() if result.curve is not None else None,
    )


def _run(scheduler, matcher, data, candidates, scheduling, **kwargs):
    return run_progressive(
        scheduler=scheduler,
        matcher=matcher,
        data=data,
        candidates=candidates,
        keep_decisions=True,
        scheduling=scheduling,
        **kwargs,
    )


class TestSeededEquivalence:
    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    @pytest.mark.parametrize("shape", ["columns", "blocks"])
    @pytest.mark.parametrize("budget", [None, 40])
    def test_all_feedback_free_schedulers(self, kind, shape, budget):
        """Array and object paths execute identical schedules end to end."""
        data, ground_truth = _dataset(kind, seed=11)
        candidates = _candidates(data, shape)
        matcher = _matcher(data, "tfidf")
        for scheduler in _schedulers():
            if (
                isinstance(scheduler, ProgressiveBlockScheduler)
                and shape != "blocks"
            ):
                continue  # its array path only exists for block input
            scheduled = SchedulingEngine(scheduler).schedule(data, candidates)
            assert [(c.pair, c.weight) for c in scheduled] == [
                (c.pair, c.weight) for c in scheduler.schedule(data, candidates)
            ]
            results = {}
            for path, component in (("array", scheduler), ("object", readable(scheduler))):
                scheduling = SchedulingEngine(component)
                results[path] = _trace(
                    _run(
                        component,
                        matcher,
                        data,
                        candidates,
                        scheduling,
                        budget=budget,
                        ground_truth=ground_truth,
                    )
                )
                assert scheduling.last_engine == path
            assert results["array"] == results["object"], (
                kind,
                shape,
                budget,
                scheduler.name,
            )

    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    def test_matches_historical_runner_path(self, kind):
        """`scheduling=None` (the default engine) runs the oracle's schedule."""
        data, ground_truth = _dataset(kind, seed=23)
        candidates = _candidates(data, "columns")
        matcher = _matcher(data, "set")
        for scheduler in (WeightOrderScheduler(), RandomOrderScheduler(seed=2)):
            oracle = readable(scheduler)
            baseline = _trace(
                _run(oracle, matcher, data, candidates, None, ground_truth=ground_truth)
            )
            arrayed = _trace(
                _run(scheduler, matcher, data, candidates, None, ground_truth=ground_truth)
            )
            assert arrayed == baseline

    def test_pairwise_matching_engine_consumes_array_schedule(self):
        """The array schedule also feeds the per-pair matching path unchanged."""
        data, ground_truth = _dataset("dirty", seed=31)
        candidates = _candidates(data, "columns")
        matcher = _matcher(data, "set")
        results = [
            _trace(
                _run(scheduler, component, data, candidates, None, ground_truth=ground_truth)
            )
            for scheduler in (WeightOrderScheduler(), ReadableScheduler())
            for component in (matcher, ReadableMatcher(threshold=matcher.threshold))
        ]
        assert all(result == results[0] for result in results[1:])

    @pytest.mark.parametrize("engine", ["array", "object"])
    def test_static_order_runs_verbatim(self, engine):
        data, _ = _dataset("dirty", seed=7)
        candidates = _candidates(data, "columns")
        order = list(candidates)[:50]
        random.Random(3).shuffle(order)
        order = order + order[:5]  # duplicates must be preserved verbatim
        scheduler = StaticOrderScheduler(order)
        if engine == "object":
            scheduler = readable(scheduler)
        scheduling = SchedulingEngine(scheduler)
        result = _run(scheduler, _matcher(data, "set"), data, candidates, scheduling)
        assert scheduling.last_engine == engine
        assert [d.pair for d in result.decisions] == [c.pair for c in order]


class TestWeightTies:
    def test_tie_order_matches_object_sort(self):
        """At equal weights the array order breaks ties on the identifier pair."""
        identifiers = [f"id{i:02d}" for i in range(12)]
        rng = random.Random(9)
        rows = []
        for i in range(len(identifiers)):
            for j in range(i + 1, len(identifiers)):
                rows.append((identifiers[i], identifiers[j], rng.choice([0.25, 0.5])))
        rng.shuffle(rows)
        comparisons = [Comparison(a, b, weight=w) for a, b, w in rows]

        from array import array

        ids = sorted({x for a, b, _ in rows for x in (a, b)}, key=lambda x: rng.random())
        ordinal = {identifier: o for o, identifier in enumerate(ids)}
        columns = ComparisonColumns(
            ids,
            array("q", (ordinal[min(a, b)] for a, b, _ in rows)),
            array("q", (ordinal[max(a, b)] for a, b, _ in rows)),
            array("d", (w for _, _, w in rows)),
        )
        scheduler = WeightOrderScheduler()
        expected = list(scheduler.schedule(None, comparisons))
        got = list(SchedulingEngine(scheduler).schedule(None, columns))
        assert [(c.pair, c.weight) for c in got] == [
            (c.pair, c.weight) for c in expected
        ]

    def test_weight_sorted_equals_the_object_sort(self):
        data, _ = _dataset("dirty", seed=13)
        columns = _candidates(data, "columns")
        # rebuild from a shuffled row list (drops the pre-sorted marker, so
        # the columns actually sort)
        rng = random.Random(1)
        order = list(range(len(columns)))
        rng.shuffle(order)
        from array import array

        shuffled = ComparisonColumns(
            columns.ids,
            array("q", (columns.first[i] for i in order)),
            array("q", (columns.second[i] for i in order)),
            array("d", (columns.weights[i] for i in order)),
        )
        got = list(shuffled.weight_sorted())
        expected = sorted(
            list(shuffled), key=lambda c: (-c.weight, c.first, c.second)
        )
        assert [(c.pair, c.weight) for c in got] == [
            (c.pair, c.weight) for c in expected
        ]


class TestFallback:
    def test_adaptive_schedulers_fall_back(self):
        data, ground_truth = _dataset("dirty", seed=17)
        candidates = _candidates(data, "blocks")
        for scheduler in (
            ProgressiveSortedNeighborhood(),
            ProgressiveBlockScheduler(),  # promotion enabled => adaptive
        ):
            engine = SchedulingEngine(scheduler)
            assert not engine.array_applicable(candidates)
            assert engine.schedule_rows(data, candidates) is None
            assert engine.last_engine == "object"
            assert not SchedulingEngine(ProgressiveBlockScheduler()).feedback_free
            # and the run is the one the scheduler's own schedule drives
            matcher = _matcher(data, "set")
            via_engine = _trace(
                _run(scheduler, matcher, data, candidates, engine, ground_truth=ground_truth)
            )
            oracle = readable(scheduler)
            plain = _trace(
                _run(oracle, matcher, data, candidates, None, ground_truth=ground_truth)
            )
            assert via_engine == plain

    def test_feedback_free_non_native_scheduler_falls_back(self):
        data, _ = _dataset("dirty", seed=19)
        candidates = _candidates(data, "columns")
        scheduler = PartitionHierarchyScheduler()
        engine = SchedulingEngine(scheduler)
        assert engine.feedback_free
        assert engine.schedule_rows(data, candidates) is None
        assert engine.last_engine == "object"

    def test_subclasses_fall_back(self):
        class TweakedWeightOrder(WeightOrderScheduler):
            def schedule(self, data, candidates):
                yield from reversed(list(super().schedule(data, candidates)))

        data, _ = _dataset("dirty", seed=3)
        candidates = _candidates(data, "columns")
        engine = SchedulingEngine(TweakedWeightOrder())
        assert engine.schedule_rows(data, candidates) is None
        scheduled = list(engine.schedule(data, candidates))
        assert engine.last_engine == "object"
        expected = list(TweakedWeightOrder().schedule(data, candidates))
        assert [c.pair for c in scheduled] == [c.pair for c in expected]

    def test_object_engine_forces_fallback(self):
        data, _ = _dataset("dirty", seed=3)
        candidates = _candidates(data, "columns")
        engine = SchedulingEngine(ReadableScheduler())
        assert engine.schedule_rows(data, candidates) is None
        assert engine.last_engine == "object"

    def test_mismatched_engine_wrapper_rejected(self):
        data, _ = _dataset("dirty", seed=3)
        candidates = _candidates(data, "columns")
        with pytest.raises(ValueError):
            run_progressive(
                scheduler=WeightOrderScheduler(),
                matcher=_matcher(data, "set"),
                data=data,
                candidates=candidates,
                scheduling=SchedulingEngine(WeightOrderScheduler()),
            )


class TestBudgetSlicing:
    def test_budget_draws_only_the_affordable_prefix(self):
        """The array path never schedules past the budget slice."""
        data, ground_truth = _dataset("dirty", seed=29)
        candidates = _candidates(data, "columns")
        drawn = []
        scheduler = WeightOrderScheduler()
        engine = SchedulingEngine(scheduler)
        rows = engine.schedule_rows(data, candidates)
        original = rows.rows

        def counting_rows():
            for row in original:
                drawn.append(row)
                yield row

        rows.rows = counting_rows()
        matcher = _matcher(data, "tfidf")
        result = run_progressive(
            scheduler=scheduler,
            matcher=matcher,
            data=data,
            candidates=candidates,
            budget=25,
            ground_truth=ground_truth,
            scheduling=engine_with_rows(engine, rows),
        )
        assert result.comparisons_executed == 25
        assert result.budget_spent == 25
        # one batched draw: budget + 1 rows at most (the draw-size guard)
        assert len(drawn) <= 26


def engine_with_rows(engine, rows):
    """A SchedulingEngine stub returning a pre-built (instrumented) schedule."""

    class _Stub(SchedulingEngine):
        def schedule_rows(self, data, candidates):
            self.last_engine = "array"
            return rows

    return _Stub(engine.scheduler)


class TestBlockPairKernel:
    """``_columns_from_blocks`` against the Block loop
    (``distinct_comparisons``) -- the same rows, in the same order."""

    @staticmethod
    def _rows(columns):
        return [columns.pair(index) for index in range(len(columns))]

    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    def test_column_backed_blocks(self, kind):
        data, _ = _dataset(kind, seed=31)
        context = PipelineContext(data)
        blocks = BlockingEngine(TokenBlocking(), context=context).build(data)
        columns = _columns_from_blocks(blocks)
        # the table is the context's own and no Block was materialised
        assert columns.ids is context.ids and blocks._columns is not None
        expected = [comparison.pair for comparison in blocks.distinct_comparisons()]
        assert blocks.total_comparisons() > len(expected)  # pairs repeat across blocks
        assert self._rows(columns) == expected
        # the blocks are objects now: interned afresh, the same rows
        assert self._rows(_columns_from_blocks(blocks)) == expected

    def test_mixed_blocks_whose_table_is_not_in_identifier_order(self):
        blocks = BlockCollection(
            [
                Block("k1", members=["m", "c", "x", "a"]),
                Block("k2", left_members=["x", "b"], right_members=["a", "z"]),
                Block("k3", members=["a", "c", "z"]),
            ]
        )
        columns = _columns_from_blocks(blocks)
        assert columns.ids == ["m", "c", "x", "a", "b", "z"]  # first seen
        expected = [comparison.pair for comparison in blocks.distinct_comparisons()]
        assert len(expected) == 11  # (a, c) and (a, x) repeat
        assert self._rows(columns) == expected
        assert columns.distinct and columns.weights is None

    def test_one_description_on_both_sides_raises(self):
        blocks = BlockCollection([Block("k", left_members=["a", "b"], right_members=["c", "a"])])
        with pytest.raises(ValueError, match="'a' twice"):
            _columns_from_blocks(blocks)

    def test_first_occurrences_keeps_the_rows_deduplicated_keeps(self):
        import numpy as np
        from array import array

        rng = random.Random(5)
        ids = [f"i{k:02d}" for k in rng.sample(range(30), 30)]
        rows = [rng.sample(range(30), 2) for _ in range(300)]  # both orientations repeat
        first = array("q", (a for a, _ in rows))
        second = array("q", (b for _, b in rows))
        deduplicated = ComparisonColumns(ids, first, second).deduplicated()
        keep = first_occurrences(np.asarray(first), np.asarray(second), len(ids))
        assert len(deduplicated) == len(keep) < len(rows)
        assert deduplicated.first.tolist() == np.asarray(first)[keep].tolist()
        assert deduplicated.second.tolist() == np.asarray(second)[keep].tolist()
