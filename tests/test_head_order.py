"""A budgeted weight-order drain orders only the head it can reach.

:meth:`ComparisonColumns.weight_sorted` defers its order; a budgeted drain
of :class:`WeightOrderScheduler` orders the heaviest rows its budget can
reach (:func:`~repro.datamodel.pairs.heaviest_rows`, then
:func:`~repro.datamodel.pairs.heaviest_first`) and, should skips carry it
past them, the rest.  Whatever the budget, cost or skips, the executed rows
must be those of a drain over the fully ordered columns, and every other
reader must see the full order.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.datamodel.pairs import ComparisonColumns, identifier_ranks
from repro.evaluation.metrics import evaluate_comparisons
from repro.matching.engine import MatchingEngine
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.runner import run_progressive
from repro.progressive.schedulers import RandomOrderScheduler, WeightOrderScheduler
from test_drain_equivalence import _inputs, _matcher

#: the retained rows of the drain inputs: 311 rows weigh 3 to 9, rows
#: 312-782 tie at weight 2 and 127 weigh 1; at cost 1 and 0.5 a budget of
#: 350 reaches into the tie run
ROWS = 909
BUDGETS = (0, 1, 350, ROWS, ROWS + 91)
COSTS = (1.0, 0.5)


def _pending() -> ComparisonColumns:
    """Meta-blocking's columns with their weight order still pending."""
    _data, _truth, context, blocks, _columns = _inputs()
    return MetaBlocking("CBS", "WNP").weighted_columns(blocks, context=context)


def _settled(columns: ComparisonColumns) -> ComparisonColumns:
    columns.first  # reading a column completes the order
    return columns


def _with_ghosts(columns: ComparisonColumns) -> ComparisonColumns:
    """The rows plus 40 pairs over identifiers the data lacks, weighted into
    the head: a drain skips them and has to go past it."""
    ids = list(columns.ids) + [f"ghost{i:02d}" for i in range(40)]
    first, second, weights = columns.first, columns.second, columns.weights
    # "ghostNN" sorts before every "kb:..." identifier: canonical rows
    ghosts = np.arange(len(columns.ids), len(ids))
    return ComparisonColumns(
        ids,
        np.concatenate((first, ghosts)),
        np.concatenate((second, np.arange(40))),
        np.concatenate((weights, np.linspace(9.0, 2.0, 40))),
        distinct=True,
    ).weight_sorted()


def _drain(columns: ComparisonColumns, budget, cost: float):
    data, truth, context, _, _ = _inputs()
    matcher = _matcher(cost, context)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the ghosts' skip summary
        result = run_progressive(
            WeightOrderScheduler(),
            matcher,
            data,
            columns,
            budget=budget,
            ground_truth=truth,
            keep_decisions=True,
            engine=MatchingEngine(matcher, context=context),
        )
    return (
        [decision.pair for decision in result.decisions],
        result.skipped_comparisons,
        result.curve.history(),
    )


def test_the_inputs_hold_the_documented_tie_run():
    weights = _settled(_pending()).weights
    assert len(weights) == ROWS
    assert np.flatnonzero(weights == 2.0).tolist() == list(range(311, 782))


@pytest.mark.parametrize("cost", COSTS)
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("ghosts", [False, True], ids=["plain", "ghosts"])
def test_a_budgeted_drain_executes_the_full_order_rows(budget, cost, ghosts):
    shape = _with_ghosts if ghosts else (lambda columns: columns)
    head = shape(_pending())
    assert _drain(head, budget, cost) == _drain(_settled(shape(_pending())), budget, cost)
    # whatever the drain ordered, every row now reads in the full order
    assert_full_order(head)


@pytest.mark.parametrize("cost", COSTS)
def test_the_head_is_all_a_drain_inside_the_tie_run_orders(cost):
    columns = _pending()
    _drain(columns, 350, cost)
    reach = int(350 / cost) + 1
    # white-box: the rows whose order is known are the head, no more
    assert len(columns._order) == reach < ROWS


def assert_full_order(columns: ComparisonColumns) -> None:
    """The rows read in ``(-weight, first, second)`` order by identifier."""
    ids = columns.ids
    rows = list(zip(columns.weights.tolist(), columns.first.tolist(), columns.second.tolist()))
    assert rows == sorted(rows, key=lambda row: (-row[0], ids[row[1]], ids[row[2]]))


def test_every_other_reader_sees_the_full_order():
    data, _truth, context, blocks, _ = _inputs()
    settled = _settled(_pending())
    expected = list(settled)
    assert list(_pending()) == expected
    assert MetaBlocking("CBS", "WNP").weighted_comparisons(blocks) == expected
    assert [_pending()[i] for i in range(len(expected))] == expected
    shuffled = RandomOrderScheduler(seed=5).rows(data, _pending())
    reference = RandomOrderScheduler(seed=5).rows(data, settled)
    assert list(shuffled.comparisons()) == list(reference.comparisons())
    assert_full_order(_pending())


def test_order_insensitive_reads_leave_the_order_pending():
    data, truth, _, _, _ = _inputs()
    columns = _pending()
    assert len(columns) == ROWS
    assert len(columns.pairs()) == ROWS
    quality = evaluate_comparisons(columns, truth, data)
    assert quality == evaluate_comparisons(_settled(_pending()), truth, data)
    assert columns.weight_sorted() is columns
    assert len(columns._order) == 0
    rank = identifier_ranks(columns.ids)
    first, second = columns.unordered()
    assert (rank[first] < rank[second]).all()
