"""Frozen drains of the partition hierarchy scheduler.

``tests/fixtures/scheduling/hierarchy.json`` freezes, for seeded dirty and
clean--clean inputs, what
:class:`~repro.progressive.hierarchy.PartitionHierarchyScheduler` emitted
when drained to the end: over cleaned token blocks and over meta-blocking's
:class:`~repro.datamodel.pairs.ComparisonColumns`, with
``restrict_to_candidates`` on and off, at the default levels and at a
coarser ladder whose last level is appended.  Per drain the fixture keeps
the row count, the first rows ``(first, second)`` and a SHA-256 of every
row.  The scheduler's ``schedule`` and the scheduling stage must both
reproduce each drain.

Regenerating the fixture (only when the schedule changes on purpose)::

    PYTHONPATH=src python tests/test_hierarchy_trace.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.datasets import DatasetConfig, generate_clean_clean_task, generate_dirty_dataset
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.engine import SchedulingEngine
from repro.progressive.hierarchy import PartitionHierarchyScheduler

FIXTURE = Path(__file__).parent / "fixtures" / "scheduling" / "hierarchy.json"
INPUTS = (("dirty", 17), ("dirty", 23), ("clean_clean", 17))
SHAPES = ("blocks", "columns")
RESTRICT = ("restricted", "unrestricted")
#: level ladders: the default one, and one whose top level (1) is appended
LEVELS = {"default": {}, "coarse": {"max_prefix": 8, "step": 3}}
#: leading rows of every drain kept verbatim in the fixture
HEAD = 30


def _dataset(kind: str, seed: int):
    config = DatasetConfig(num_entities=60, duplicates_per_entity=1.4, domain="person", seed=seed)
    if kind == "dirty":
        return generate_dirty_dataset(config).collection
    return generate_clean_clean_task(config).task


@functools.lru_cache(maxsize=None)
def _input(kind: str, seed: int, shape: str):
    data = _dataset(kind, seed)
    engine = BlockingEngine()
    blocks = engine.clean(
        engine.build(data), purging=BlockPurging(), filtering=BlockFiltering(0.8)
    )
    if shape == "columns":
        return data, MetaBlocking("CBS", "WNP").weighted_columns(blocks)
    return data, blocks


def _scheduler(restrict: str, levels: str) -> PartitionHierarchyScheduler:
    return PartitionHierarchyScheduler(
        restrict_to_candidates=restrict == "restricted", **LEVELS[levels]
    )


def record(rows) -> dict:
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    return {"count": len(rows), "head": rows[:HEAD], "sha256": digest}


def records(kind: str, seed: int, shape: str, drain) -> dict:
    """Every drain of one input, ``drain(scheduler, data, candidates)``
    giving the scheduled comparisons."""
    data, candidates = _input(kind, seed, shape)
    return {
        f"{kind}/{seed}/{shape}/{restrict}/{levels}": record(
            [[c.first, c.second] for c in drain(_scheduler(restrict, levels), data, candidates)]
        )
        for restrict in RESTRICT
        for levels in LEVELS
    }


def _own_schedule(scheduler, data, candidates):
    return scheduler.schedule(data, candidates)


def _stage_schedule(scheduler, data, candidates):
    return SchedulingEngine(scheduler).schedule(data, candidates)


def _freeze_fixture() -> None:
    cases = {}
    for kind, seed in INPUTS:
        for shape in SHAPES:
            cases.update(records(kind, seed, shape, _own_schedule))
    compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    lines = [f" {json.dumps(name)}: {compact(case)}" for name, case in sorted(cases.items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"froze {len(cases)} cases to {FIXTURE}")


@functools.lru_cache(maxsize=None)
def fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("drain", [_own_schedule, _stage_schedule], ids=["schedule", "stage"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind, seed", INPUTS)
def test_drains_reproduce_the_fixture(kind, seed, shape, drain):
    got = records(kind, seed, shape, drain)
    assert got == {name: fixture()[name] for name in got}


def test_the_fixture_covers_every_case():
    assert set(fixture()) == {
        f"{kind}/{seed}/{shape}/{restrict}/{levels}"
        for kind, seed in INPUTS
        for shape in SHAPES
        for restrict in RESTRICT
        for levels in LEVELS
    }
    for name, case in fixture().items():
        assert case["count"] > 0, name
    # the candidates restrict the drain: fewer rows than the unrestricted one
    for kind, seed in INPUTS:
        for shape in SHAPES:
            prefix = f"{kind}/{seed}/{shape}"
            restricted = fixture()[f"{prefix}/restricted/default"]["count"]
            assert restricted < fixture()[f"{prefix}/unrestricted/default"]["count"]


if __name__ == "__main__":
    _freeze_fixture()
