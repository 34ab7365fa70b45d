"""Frozen traces of the progressive block scheduler.

``tests/fixtures/scheduling/progressive_blocks.json`` freezes, for seeded
dirty and clean--clean inputs (cleaned token blocks, whose keys are unique),
what :class:`~repro.progressive.psnm.ProgressiveBlockScheduler` emitted in
three runs, each drained to the end:

* ``static`` -- no feedback at all;
* ``oracle`` -- every emitted comparison is answered with its ground-truth
  decision (a match promotes the rest of the comparison's block);
* ``hints`` -- as ``oracle``, and every seventh step also reports a match on
  the next true pair not emitted yet, which promotes that pair's block ahead
  of the cardinality order.

Per run the fixture keeps the row count, the first rows ``(first, second,
block id, match)``, a SHA-256 of every row and the number of steps whose
pair differs from the static order's pair at that step (what the promotions
moved).  The scheduler must reproduce each trace on blocks built through a
private context, through a shared one, and interned from ``Block`` objects.

Regenerating the fixture (only when the schedule changes on purpose)::

    PYTHONPATH=src python tests/test_progressive_block_trace.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.blocking.base import BlockCollection
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.core.context import PipelineContext
from repro.datamodel.pairs import Comparison
from repro.datasets import DatasetConfig, generate_clean_clean_task, generate_dirty_dataset
from repro.matching.matchers import MatchDecision
from repro.progressive.psnm import ProgressiveBlockScheduler

FIXTURE = Path(__file__).parent / "fixtures" / "scheduling" / "progressive_blocks.json"
INPUTS = (("dirty", 17), ("dirty", 23), ("clean_clean", 17))
MODES = ("static", "oracle", "hints")
ROUTES = ("private", "shared", "objects")
#: leading rows of every trace kept verbatim in the fixture
HEAD = 30
#: every HINT_EVERY-th step of a ``hints`` run reports a true pair ahead of time
HINT_EVERY = 7


def _dataset(kind: str, seed: int):
    config = DatasetConfig(num_entities=60, duplicates_per_entity=1.4, domain="person", seed=seed)
    if kind == "dirty":
        dataset = generate_dirty_dataset(config)
        return dataset.collection, dataset.ground_truth
    dataset = generate_clean_clean_task(config)
    return dataset.task, dataset.ground_truth


def _blocks(data, route: str):
    context = PipelineContext(data) if route == "shared" else None
    engine = BlockingEngine(context=context)
    blocks = engine.clean(
        engine.build(data), purging=BlockPurging(), filtering=BlockFiltering(0.8)
    )
    return BlockCollection(list(blocks), name=blocks.name) if route == "objects" else blocks


def trace(data, truth, blocks, mode: str):
    """The rows ``(first, second, block id, match)`` of one full drain."""
    scheduler = ProgressiveBlockScheduler()
    hints = sorted(pair for pair in blocks.distinct_pairs() if truth.are_matches(*pair))
    emitted, rows = set(), []
    for step, comparison in enumerate(scheduler.schedule(data, blocks)):
        is_match = truth.are_matches(*comparison.pair)
        rows.append([comparison.first, comparison.second, comparison.block_id, is_match])
        emitted.add(comparison.pair)
        if mode == "static":
            continue
        scheduler.feedback(MatchDecision(comparison, similarity=1.0, is_match=is_match))
        if mode == "hints" and step % HINT_EVERY == 0:
            ahead = next((pair for pair in hints if pair not in emitted), None)
            if ahead is not None:
                hint = Comparison(*ahead)
                scheduler.feedback(MatchDecision(hint, similarity=1.0, is_match=True))
    return rows


def record(rows, static_rows) -> dict:
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    moved = sum(row[:2] != other[:2] for row, other in zip(rows, static_rows))
    return {"count": len(rows), "head": rows[:HEAD], "moved": moved, "sha256": digest}


def records(kind: str, seed: int, route: str) -> dict:
    data, truth = _dataset(kind, seed)
    blocks = _blocks(data, route)
    static_rows = trace(data, truth, blocks, "static")
    return {
        f"{kind}/{seed}/{mode}": record(trace(data, truth, blocks, mode), static_rows)
        for mode in MODES
    }


def _freeze_fixture() -> None:
    cases = {}
    for kind, seed in INPUTS:
        cases.update(records(kind, seed, "private"))
    compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    lines = [f" {json.dumps(name)}: {compact(case)}" for name, case in sorted(cases.items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"froze {len(cases)} cases to {FIXTURE}")


@functools.lru_cache(maxsize=None)
def fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("kind, seed", INPUTS)
def test_traces_reproduce_the_fixture(kind, seed, route):
    got = records(kind, seed, route)
    assert got == {name: fixture()[name] for name in got}


def test_the_fixture_covers_every_case_and_the_hints_move_the_order():
    assert set(fixture()) == {f"{kind}/{seed}/{mode}" for kind, seed in INPUTS for mode in MODES}
    for kind, seed in INPUTS:
        assert fixture()[f"{kind}/{seed}/hints"]["moved"] > 0
        assert fixture()[f"{kind}/{seed}/static"]["moved"] == 0


if __name__ == "__main__":
    _freeze_fixture()
