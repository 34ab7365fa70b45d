"""Frozen traces of the progressive block scheduler.

``tests/fixtures/scheduling/progressive_blocks.json`` freezes, for seeded
dirty and clean--clean inputs (cleaned token blocks, whose keys are unique),
what :class:`~repro.progressive.psnm.ProgressiveBlockScheduler` emitted in
two runs, each drained to the end:

* ``static`` -- no feedback at all;
* ``oracle`` -- every emitted comparison is answered with its ground-truth
  decision.  The fixture was frozen while a match still promoted the rest
  of the comparison's block; the promotion never moved a row, so both runs
  are the same drain.

Per run the fixture keeps the row count, the first rows ``(first, second,
block, match)``, a SHA-256 of every row and the number of steps whose pair
differs from the static order's pair at that step.  A row's block is the
``(cardinality, key)``-least block holding its pair, worked out here by a
loop over the blocks.  The scheduler must reproduce each trace on blocks
built through a private context, through a shared one, and interned from
``Block`` objects.

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
from repro.datasets import DatasetConfig, generate_clean_clean_task, generate_dirty_dataset
from repro.matching.matchers import MatchDecision
from repro.progressive.psnm import ProgressiveBlockScheduler

FIXTURE = Path(__file__).parent / "fixtures" / "scheduling" / "progressive_blocks.json"
INPUTS = (("dirty", 17), ("dirty", 23), ("clean_clean", 17))
MODES = ("static", "oracle")
ROUTES = ("private", "shared", "objects")
#: leading rows of every trace kept verbatim in the fixture
HEAD = 30


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


def first_blocks(blocks) -> dict:
    """pair -> key of the ``(cardinality, key)``-least block holding it."""
    first = {}
    for block in sorted(blocks, key=lambda block: (block.num_comparisons(), block.key)):
        for pair in block.pairs():
            first.setdefault(pair, block.key)
    return first


def trace(data, truth, blocks, mode: str):
    """The rows ``(first, second, block, match)`` of one full drain."""
    scheduler = ProgressiveBlockScheduler()
    block_of = first_blocks(blocks)
    rows = []
    for comparison in scheduler.schedule(data, blocks):
        is_match = truth.are_matches(*comparison.pair)
        rows.append([comparison.first, comparison.second, block_of[comparison.pair], is_match])
        if mode == "oracle":
            scheduler.feedback(MatchDecision(comparison, similarity=1.0, is_match=is_match))
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


def test_the_fixture_covers_every_case_and_feedback_moves_nothing():
    assert set(fixture()) == {f"{kind}/{seed}/{mode}" for kind, seed in INPUTS for mode in MODES}
    for kind, seed in INPUTS:
        assert fixture()[f"{kind}/{seed}/oracle"] == fixture()[f"{kind}/{seed}/static"]
        assert fixture()[f"{kind}/{seed}/static"]["moved"] == 0


if __name__ == "__main__":
    _freeze_fixture()
