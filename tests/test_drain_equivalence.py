"""The progressive runner's drain against its frozen results.

``tests/fixtures/progressive/drain.json`` freezes, per case, what
``run_progressive`` returned when the drain still walked the schedule row by
row: the executed and skipped comparisons, ``budget_spent``, the declared
matches (count, first pairs, digest) and a digest of the declared matches,
the recall-curve history and -- with ``keep_decisions`` -- every decision.
The cases cross every feedback-free library scheduler (weight order over
meta-blocking columns and over blocks, random order, sorted list, and a
static order holding identifiers the data lacks) with budgets ``None``, 0,
1, exactly one batch and mid-batch, at cost 1 and cost 0.3, with and
without ``keep_decisions``.  Each case must come out the same through the
column drain on an engine over a shared context, at a small batch size, one
row at a time, and on no engine (the runner's own, over a private context).
Regenerating the fixture (only when the drain's output changes on purpose):
run this module as a script::

    PYTHONPATH=src python tests/test_drain_equivalence.py
"""

import functools
import hashlib
import json
import warnings
from pathlib import Path

import pytest

from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core.context import PipelineContext
from repro.datamodel.pairs import Comparison
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.runner import DEFAULT_BATCH_SIZE, run_progressive
from repro.progressive.schedulers import (
    RandomOrderScheduler,
    StaticOrderScheduler,
    WeightOrderScheduler,
)
from repro.progressive.sorted_list import SortedListScheduler
from conftest import readable

FIXTURE = Path(__file__).parent / "fixtures" / "progressive" / "drain.json"

SCHEDULES = ("weight_columns", "weight_blocks", "random", "sorted_list", "static_ghosts")
#: (cost, budgets): None, nothing, one comparison's worth, exactly one
#: default batch and the middle of the second batch
COSTS = {
    "1": (1.0, (None, 0, 1, DEFAULT_BATCH_SIZE, 700)),
    "0.3": (0.3, (None, 0, 1, DEFAULT_BATCH_SIZE * 0.3, 210)),
}
KEEP = (False, True)
#: leading declared matches kept verbatim in the fixture
HEAD = 10


@functools.lru_cache(maxsize=None)
def _inputs():
    """``(data, ground truth, context, cleaned blocks, meta-blocking columns)``."""
    dataset = generate_dirty_dataset(
        DatasetConfig(num_entities=100, duplicates_per_entity=1.4, domain="person", seed=11)
    )
    data = dataset.collection
    context = PipelineContext(data)
    engine = BlockingEngine(TokenBlocking(), context=context)
    blocks = engine.clean(
        engine.build(data), purging=BlockPurging(), filtering=BlockFiltering(0.8)
    )
    columns = MetaBlocking("CBS", "WNP").weighted_columns(blocks, context=context)
    return data, dataset.ground_truth, context, blocks, columns


def _schedule(label: str):
    """``(scheduler, candidates)`` of one schedule label."""
    data, _, _, blocks, columns = _inputs()
    if label == "weight_columns":
        return WeightOrderScheduler(), columns
    if label == "weight_blocks":
        return WeightOrderScheduler(), blocks
    if label == "random":
        return RandomOrderScheduler(seed=5), columns
    if label == "sorted_list":
        return SortedListScheduler(), blocks
    # the meta-blocking order with a pair the data lacks every 25 rows,
    # and each of the first 40 pairs once more in reverse orientation
    order = []
    for index, comparison in enumerate(columns):
        if index % 25 == 3:
            order.append(Comparison(f"ghost{index}", comparison.second))
        order.append(comparison)
    order += [Comparison(c.second, c.first) for c in list(columns)[:40]]
    return StaticOrderScheduler(order), columns


def _matcher(cost: float, context: PipelineContext):
    return ProfileSimilarityMatcher(
        threshold=0.5, vectorizer=context.fit_vectorizer(), cost=cost
    )


def _plain(value):
    """``value`` as JSON-ready lists, every float as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(_plain(value)).encode("utf-8")).hexdigest()


#: route -> batch size; every route but ``no_engine`` runs on an engine over
#: the shared context
ROUTES = {
    "columns": DEFAULT_BATCH_SIZE,
    "small_batches": 7,
    "single_rows": 1,
    "no_engine": DEFAULT_BATCH_SIZE,
}


def _run(label: str, cost_label: str, budget, keep: bool, route: str) -> dict:
    """One run's frozen form through one of the :data:`ROUTES`."""
    data, truth, context, _, _ = _inputs()
    scheduler, candidates = _schedule(label)
    matcher = _matcher(COSTS[cost_label][0], context)
    engine = None if route == "no_engine" else MatchingEngine(matcher, context=context)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the ghosts' skip summary
        result = run_progressive(
            scheduler,
            matcher,
            data,
            candidates,
            budget=budget,
            ground_truth=truth,
            keep_decisions=keep,
            engine=engine,
            batch_size=ROUTES[route],
        )
    matches = [list(pair) for pair in result.declared_matches]
    decisions = [(d.pair, d.similarity, d.is_match) for d in result.decisions]
    return {
        "comparisons": result.comparisons_executed,
        "skipped": result.skipped_comparisons,
        "true_matches": result.true_matches_found,
        "budget_spent": result.budget_spent.hex(),
        "matches": len(matches),
        "head": matches[:HEAD],
        "sha256": _sha256([matches, result.curve.history(), decisions]),
    }


def _cases():
    for label in SCHEDULES:
        for cost_label, (_, budgets) in COSTS.items():
            for budget in budgets:
                for keep in KEEP:
                    yield label, cost_label, budget, keep


def _key(label, cost_label, budget, keep) -> str:
    return f"{label}/cost={cost_label}/budget={budget}/keep={keep}"


def _freeze_fixture() -> None:
    cases = {}
    for case in _cases():
        frozen = _run(*case, route="columns")
        for route in list(ROUTES)[1:]:
            assert _run(*case, route=route) == frozen, (case, route)
        cases[_key(*case)] = frozen
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"froze {len(cases)} runs to {FIXTURE}")


@functools.lru_cache(maxsize=None)
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("label", SCHEDULES)
def test_drain_reproduces_the_fixture(label, route):
    for case in _cases():
        if case[0] != label:
            continue
        assert _run(*case, route=route) == _fixture()[_key(*case)], case


def test_the_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("batch_size", [2.5, True, 0, -1, "8", None])
def test_batch_size_is_checked_before_anything_runs(batch_size):
    data, _, context, _, columns = _inputs()
    with pytest.raises(ValueError, match="batch_size must be an int >= 1"):
        run_progressive(
            WeightOrderScheduler(),
            _matcher(1.0, context),
            data,
            columns,
            batch_size=batch_size,
        )


#: budget -> (executed, skipped) of the schedule r, r, ghost, ghost, r, ghost
#: at cost 1: a ghost is counted up to the first row the budget cannot cover
BOUNDARY = {None: (3, 3), 0: (0, 0), 1: (1, 0), 2: (2, 2), 3: (3, 3)}


@pytest.mark.parametrize("budget", BOUNDARY)
@pytest.mark.parametrize("batch_size", [1, 2, 3, DEFAULT_BATCH_SIZE])
def test_skips_at_the_budget_boundary_do_not_depend_on_the_batch_size(batch_size, budget):
    """Once the budget cannot cover one more comparison, the column drain
    still draws the next row, so the ghosts (identifiers the data lacks)
    before it are counted as the per-row loop of a pairwise matcher counts
    them."""
    data, _, context, _, columns = _inputs()
    first, second, third = list(columns)[:3]
    order = [first, second, Comparison("ghost0", "x"), Comparison("ghost1", "x"), third]
    order.append(Comparison("ghost2", "x"))
    matcher = _matcher(1.0, context)
    results = []
    for component, engine in (
        (matcher, MatchingEngine(matcher, context=context)),
        (readable(matcher), None),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_progressive(
                StaticOrderScheduler(order),
                component,
                data,
                None,
                budget=budget,
                engine=engine,
                batch_size=batch_size,
            )
        results.append((result.comparisons_executed, result.skipped_comparisons))
    assert results == [BOUNDARY[budget]] * 2


def test_matches_are_context_ordinals_on_the_column_drain():
    """The declared matches stay ordinal columns over the context's table;
    ``declared_matches`` reads them as canonical identifier pairs."""
    data, _, context, _, _ = _inputs()
    for label in SCHEDULES:
        scheduler, candidates = _schedule(label)
        matcher = _matcher(1.0, context)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_progressive(
                scheduler,
                matcher,
                data,
                candidates,
                engine=MatchingEngine(matcher, context=context),
            )
        columns = result.match_columns
        assert columns.ids is context.ids, label
        assert len(columns) == columns.num_matches > 0
        ids = context.ids
        assert result.declared_matches == [
            tuple(sorted((ids[f], ids[s]))) for f, s in zip(columns.first, columns.second)
        ]


if __name__ == "__main__":
    _freeze_fixture()
