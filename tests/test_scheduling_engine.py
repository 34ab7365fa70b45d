"""Scheduling fixtures and the scheduling stage.

The feedback-free library schedulers have one body each, their ``rows``;
``schedule`` is its materialisation.  ``tests/fixtures/scheduling/seeded.json``
freezes, for seeded dirty and clean--clean inputs (meta-blocking columns,
cleaned blocks and a shuffled ``Comparison`` list with repeats and missing
weights), what the earlier per-pair ``schedule`` generators produced: the
row count, the first rows, a digest of all rows and a digest of the
``run_progressive`` trace at two budgets.  Both the rows and the runs must
reproduce it exactly, whichever route the runner takes.  Regenerating the
fixture (only when a schedule changes on purpose): run this module as a
script::

    PYTHONPATH=src python tests/test_scheduling_engine.py
"""

import functools
import hashlib
import json
import random
from array import array
from pathlib import Path

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
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.engine import SchedulingEngine
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.progressive.psnm import (
    ProgressiveBlockScheduler,
    ProgressiveSortedNeighborhood,
)
from repro.progressive.runner import run_progressive
from repro.progressive.scheduler import CostBenefitScheduler
from repro.progressive.schedulers import (
    ProgressiveScheduler,
    RandomOrderScheduler,
    ScheduledRows,
    StaticOrderScheduler,
    WeightOrderScheduler,
    candidate_columns,
)
from repro.progressive.sorted_list import SortedListScheduler
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


FIXTURE = Path(__file__).parent / "fixtures" / "scheduling" / "seeded.json"

KINDS = ("dirty", "clean_clean")
SHAPES = ("columns", "blocks", "list")
BUDGETS = (None, 40)
#: leading rows of every schedule kept verbatim in the fixture
HEAD = 20


def _comparison_list(columns):
    """The columns as a shuffled ``Comparison`` list: about a fifth of the
    pairs lose their weight, and a tenth recur later, built in reverse
    orientation with another weight (the first occurrence must win)."""
    rng = random.Random(41)
    comparisons = [
        Comparison(c.first, c.second, weight=None if rng.random() < 0.2 else c.weight)
        for c in columns
    ]
    repeats = [
        Comparison(c.second, c.first, weight=rng.choice([None, 0.5, 9.0]))
        for c in rng.sample(comparisons, len(comparisons) // 10)
    ]
    comparisons += repeats
    rng.shuffle(comparisons)
    return comparisons


def _seeded_input(kind: str, shape: str):
    """``(data, ground truth, candidates)`` of one seeded fixture input."""
    data, ground_truth = _dataset(kind, seed=11)
    if shape == "list":
        return data, ground_truth, _comparison_list(_candidates(data, "columns"))
    return data, ground_truth, _candidates(data, shape)


def _fixture_schedulers(candidates):
    """label -> scheduler; the static order is the input's own comparisons."""
    if isinstance(candidates, BlockCollection):
        order = list(candidates.distinct_comparisons())
    else:
        order = list(candidates)
    return {
        "weight_order": WeightOrderScheduler(),
        "random_order": RandomOrderScheduler(seed=5),
        "sorted_list": SortedListScheduler(),
        "sorted_list_unrestricted": SortedListScheduler(
            restrict_to_candidates=False, max_distance=7
        ),
        "static_order": StaticOrderScheduler(order),
    }


def _plain(value):
    """``value`` as JSON-ready lists, every float as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(_plain(value)).encode("utf-8")).hexdigest()


def _schedule_rows(comparisons):
    return [(c.first, c.second, c.weight) for c in comparisons]


def _trace_digest(scheduler, matcher, data, candidates, ground_truth, budget):
    result = _run(
        scheduler, matcher, data, candidates, None, budget=budget, ground_truth=ground_truth
    )
    return _sha256(_trace(result))


def _freeze_fixture() -> None:
    cases = {}
    for kind in KINDS:
        for shape in SHAPES:
            data, ground_truth, candidates = _seeded_input(kind, shape)
            matcher = _matcher(data, "tfidf")
            for label, scheduler in _fixture_schedulers(candidates).items():
                rows = _schedule_rows(scheduler.schedule(data, candidates))
                cases[f"{kind}/{shape}/{label}"] = {
                    "count": len(rows),
                    "head": _plain(rows[:HEAD]),
                    "sha256": _sha256(rows),
                    "trace": {
                        str(budget): _trace_digest(
                            scheduler, matcher, data, candidates, ground_truth, budget
                        )
                        for budget in BUDGETS
                    },
                }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"froze {len(cases)} schedules to {FIXTURE}")


@functools.lru_cache(maxsize=None)
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


class TestSeededEquivalence:
    """The schedules and the runs reproduce the frozen fixture."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_schedules_reproduce_the_fixture(self, kind, shape):
        data, _, candidates = _seeded_input(kind, shape)
        for label, scheduler in _fixture_schedulers(candidates).items():
            case = _fixture()[f"{kind}/{shape}/{label}"]
            scheduling = SchedulingEngine(scheduler)
            for schedule in (
                _schedule_rows(scheduler.schedule(data, candidates)),
                _schedule_rows(scheduling.schedule(data, candidates)),
            ):
                assert len(schedule) == case["count"], label
                assert _plain(schedule[:HEAD]) == case["head"], label
                assert _sha256(schedule) == case["sha256"], label
            assert scheduling.last_engine == "array"

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_runs_reproduce_the_fixture(self, kind, shape, budget):
        """The batched row drain and the scheduler's own generator (a
        subclass overriding ``schedule``) run the frozen trace."""
        data, ground_truth, candidates = _seeded_input(kind, shape)
        matcher = _matcher(data, "tfidf")
        for label, scheduler in _fixture_schedulers(candidates).items():
            expected = _fixture()[f"{kind}/{shape}/{label}"]["trace"][str(budget)]
            for component in (scheduler, readable(scheduler)):
                digest = _trace_digest(
                    component, matcher, data, candidates, ground_truth, budget
                )
                assert digest == expected, (label, type(component).__name__)

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
        ids = sorted({x for a, b, _ in rows for x in (a, b)}, key=lambda x: rng.random())
        ordinal = {identifier: o for o, identifier in enumerate(ids)}
        columns = ComparisonColumns(
            ids,
            array("q", (ordinal[min(a, b)] for a, b, _ in rows)),
            array("q", (ordinal[max(a, b)] for a, b, _ in rows)),
            array("d", (w for _, _, w in rows)),
        )
        expected = sorted(comparisons, key=lambda c: (-c.weight, c.first, c.second))
        scheduler = WeightOrderScheduler()
        for candidates in (columns, comparisons):
            got = list(SchedulingEngine(scheduler).schedule(None, candidates))
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

    def test_a_missing_weight_ties_with_minus_infinity(self):
        comparisons = [
            Comparison("c", "d"),
            Comparison("a", "c", weight=float("-inf")),
            Comparison("b", "c", weight=0.5),
            Comparison("a", "b"),
        ]
        got = list(WeightOrderScheduler().schedule(None, comparisons))
        assert [(c.pair, c.weight) for c in got] == [
            (("b", "c"), 0.5),
            (("a", "b"), None),
            (("a", "c"), float("-inf")),
            (("c", "d"), None),
        ]


class TestFixedOrderSchedulers:
    """Progressive blocking and the partition hierarchy have one body, their
    ``rows``: the stage runs them on the array path, and the column drain
    runs the same trace as the per-row loop (a matcher the batch engine
    does not implement)."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", ["blocks", "columns"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_column_drain_equals_the_per_row_drain(self, kind, shape, budget):
        data, ground_truth = _dataset(kind, seed=17)
        candidates = _candidates(data, shape)
        matcher = _matcher(data, "set")
        for scheduler in (ProgressiveBlockScheduler(), PartitionHierarchyScheduler()):
            engine = SchedulingEngine(scheduler)
            assert engine.feedback_free
            assert engine.schedule_rows(data, candidates) is not None
            assert engine.last_engine == "array"
            column_drain, per_row = (
                _trace(
                    _run(
                        scheduler, component, data, candidates, None,
                        budget=budget, ground_truth=ground_truth,
                    )
                )
                for component in (matcher, ReadableMatcher(threshold=matcher.threshold))
            )
            assert column_drain == per_row, type(scheduler).__name__
            assert column_drain[2] == (40 if budget else len(column_drain[0])) > 0


class TestFallback:
    def test_adaptive_schedulers_fall_back(self):
        data, ground_truth = _dataset("dirty", seed=17)
        for scheduler, shape in (
            (ProgressiveSortedNeighborhood(), "blocks"),
            (CostBenefitScheduler(), "columns"),
        ):
            candidates = _candidates(data, shape)
            engine = SchedulingEngine(scheduler)
            assert not engine.feedback_free
            assert engine.schedule_rows(data, candidates) is None
            assert engine.last_engine == "object"
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

    def test_feedback_free_custom_scheduler_falls_back(self):
        """A scheduler of its own that implements only ``schedule`` runs it."""

        class Reversed(ProgressiveScheduler):
            def schedule(self, data, candidates):
                yield from reversed(candidate_columns(candidates))

        data, _ = _dataset("dirty", seed=19)
        candidates = _candidates(data, "columns")
        engine = SchedulingEngine(Reversed())
        assert engine.feedback_free
        assert engine.schedule_rows(data, candidates) is None
        assert engine.last_engine == "object"
        result = _run(Reversed(), _matcher(data, "set"), data, candidates, None)
        assert [d.pair for d in result.decisions] == [c.pair for c in candidates][::-1]

    def test_overriding_subclass_runs_its_own_schedule(self):
        """A subclass overriding ``schedule`` runs that generator, on the
        stage and in the runner; one that does not runs the rows."""

        class Reversed(WeightOrderScheduler):
            def schedule(self, data, candidates):
                yield from reversed(list(super().schedule(data, candidates)))

        class Trivial(WeightOrderScheduler):
            pass

        data, _ = _dataset("dirty", seed=3)
        candidates = _candidates(data, "columns")
        forward = [c.pair for c in WeightOrderScheduler().schedule(data, candidates)]
        engine = SchedulingEngine(Reversed())
        assert engine.schedule_rows(data, candidates) is None
        assert [c.pair for c in engine.schedule(data, candidates)] == forward[::-1]
        assert engine.last_engine == "object"
        result = _run(Reversed(), _matcher(data, "set"), data, candidates, None)
        assert [d.pair for d in result.decisions] == forward[::-1]

        engine = SchedulingEngine(Trivial())
        rows = engine.schedule_rows(data, candidates)
        assert engine.last_engine == "array"
        assert [c.pair for c in rows.comparisons()] == forward

    def test_a_scheduler_without_rows_or_schedule_raises(self):
        class Empty(ProgressiveScheduler):
            pass

        with pytest.raises(NotImplementedError, match="neither rows"):
            list(Empty().schedule(None, []))

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
    @pytest.mark.parametrize("source", ["columns", "generator"])
    def test_budget_draws_only_the_affordable_prefix(self, source):
        """The column drain never schedules past the budget slice, whether
        the schedule hands out column slices or a generator's rows."""
        data, ground_truth = _dataset("dirty", seed=29)
        candidates = _candidates(data, "columns")
        drawn = []
        scheduler = WeightOrderScheduler()
        engine = SchedulingEngine(scheduler)
        rows = engine.schedule_rows(data, candidates)
        if source == "generator":
            original = rows.rows

            def counting_rows():
                for row in original:
                    drawn.append(row)
                    yield row

            rows = ScheduledRows(rows.ids, counting_rows())
        matcher = _matcher(data, "tfidf")
        result = run_progressive(
            scheduler=scheduler,
            matcher=matcher,
            data=data,
            candidates=candidates,
            budget=25,
            ground_truth=ground_truth,
            engine=MatchingEngine(matcher, context=PipelineContext(data)),
            scheduling=engine_with_rows(engine, rows),
        )
        assert result.comparisons_executed == 25
        assert result.budget_spent == 25
        if source == "columns":
            # what the drain did not take is still there
            drawn = len(candidates) - len(list(rows.rows))
        else:
            drawn = len(drawn)
        # one batched draw: budget + 1 rows at most (the draw-size guard)
        assert drawn <= 26


def engine_with_rows(engine, rows):
    """A SchedulingEngine stub returning a pre-built (instrumented) schedule."""

    class _Stub(SchedulingEngine):
        def schedule_rows(self, data, candidates):
            self.last_engine = "array"
            return rows

    return _Stub(engine.scheduler)


class TestBlockPairKernel:
    """``candidate_columns`` over blocks against the Block loop
    (``distinct_comparisons``) -- the same rows, in the same order."""

    @staticmethod
    def _rows(columns):
        return [columns.pair(index) for index in range(len(columns))]

    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    def test_column_backed_blocks(self, kind):
        data, _ = _dataset(kind, seed=31)
        context = PipelineContext(data)
        blocks = BlockingEngine(TokenBlocking(), context=context).build(data)
        columns = candidate_columns(blocks)
        # the table is the context's own and no Block was materialised
        assert columns.ids is context.ids and blocks._columns is not None
        expected = [comparison.pair for comparison in blocks.distinct_comparisons()]
        assert blocks.total_comparisons() > len(expected)  # pairs repeat across blocks
        assert self._rows(columns) == expected
        # the blocks are objects now: interned afresh, the same rows
        assert self._rows(candidate_columns(blocks)) == expected

    def test_mixed_blocks_whose_table_is_not_in_identifier_order(self):
        blocks = BlockCollection(
            [
                Block("k1", members=["m", "c", "x", "a"]),
                Block("k2", left_members=["x", "b"], right_members=["a", "z"]),
                Block("k3", members=["a", "c", "z"]),
            ]
        )
        columns = candidate_columns(blocks)
        assert columns.ids == ["m", "c", "x", "a", "b", "z"]  # first seen
        expected = [comparison.pair for comparison in blocks.distinct_comparisons()]
        assert len(expected) == 11  # (a, c) and (a, x) repeat
        assert self._rows(columns) == expected
        assert columns.distinct and columns.weights is None

    def test_one_description_on_both_sides_raises(self):
        blocks = BlockCollection([Block("k", left_members=["a", "b"], right_members=["c", "a"])])
        with pytest.raises(ValueError, match="'a' twice"):
            candidate_columns(blocks)

    def test_first_occurrences_keeps_the_rows_deduplicated_keeps(self):
        """``deduplicated`` (the :func:`first_occurrences` kernel) keeps the
        rows a first-seen loop over unordered pairs keeps, weights aligned."""
        import numpy as np

        rng = random.Random(5)
        ids = [f"i{k:02d}" for k in rng.sample(range(30), 30)]
        rows = [rng.sample(range(30), 2) for _ in range(300)]  # both orientations repeat
        weights = [rng.random() for _ in rows]
        seen, expected = set(), []
        for (a, b), weight in zip(rows, weights):
            if frozenset((a, b)) not in seen:
                seen.add(frozenset((a, b)))
                expected.append((a, b, weight))
        first = array("q", (a for a, _ in rows))
        second = array("q", (b for _, b in rows))
        deduplicated = ComparisonColumns(ids, first, second, array("d", weights)).deduplicated()
        assert len(expected) < len(rows)
        assert list(zip(deduplicated.first, deduplicated.second, deduplicated.weights)) == expected
        keep = first_occurrences(np.asarray(first), np.asarray(second), len(ids))
        assert deduplicated.first.tolist() == np.asarray(first)[keep].tolist()

if __name__ == "__main__":
    _freeze_fixture()
