"""Frozen progressive recall curves.

``tests/fixtures/progressive/curves.json`` freezes what
:class:`~repro.evaluation.curves.ProgressiveRecallCurve` answered for curves
recorded by ``run_progressive`` on the seeded inputs of
``tests/test_drain_equivalence.py`` (weight order over meta-blocking columns
and random order, at budgets ``None``, 40 and 1,000), for curves built by a
seeded mix of ``record`` / ``record_batch`` / ``record_many`` calls (batches
of zero comparisons and more true matches than the ground truth holds
included), and for an empty curve.  Per curve the fixture keeps a SHA-256 of
``history()``, ``auc()`` and ``auc(max_comparisons=...)`` at two
denominators (as ``float.hex``), ``recall_at`` at 20 points,
``comparisons_for_recall`` at 0.1, 0.5 and 0.9, and ``sampled(20)``.

Regenerating the fixture (only when the curve changes on purpose)::

    PYTHONPATH=src python tests/test_curve_trace.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.datamodel.ground_truth import GroundTruth
from repro.evaluation.curves import ProgressiveRecallCurve
from repro.matching.engine import MatchingEngine
from repro.progressive.runner import run_progressive
from repro.progressive.schedulers import (
    RandomOrderScheduler,
    WeightOrderScheduler,
)
from test_drain_equivalence import _inputs, _matcher

FIXTURE = Path(__file__).parent / "fixtures" / "progressive" / "curves.json"
SCHEDULERS = {"weight": WeightOrderScheduler, "random": lambda: RandomOrderScheduler(seed=5)}
BUDGETS = (None, 40, 1000)
#: (seed, budget the curve is created with) of the call mixes
MIXES = {"mix/7": (7, None), "mix/8/budget=150": (8, 150)}
TARGETS = (0.1, 0.5, 0.9)


def _run_curve(label: str, budget) -> ProgressiveRecallCurve:
    data, truth, context, _, columns = _inputs()
    matcher = _matcher(1.0, context)
    result = run_progressive(
        SCHEDULERS[label](),
        matcher,
        data,
        columns,
        budget=budget,
        ground_truth=truth,
        engine=MatchingEngine(matcher, context=context),
    )
    return result.curve


def _mix_curve(seed: int, budget) -> ProgressiveRecallCurve:
    """A curve built by a seeded mix of the three recording calls against a
    ground truth of 30 matching pairs; more true matches are recorded than
    it holds, so recall is capped."""
    truth = GroundTruth([[f"e{i}", f"e{i}'"] for i in range(30)])
    curve = ProgressiveRecallCurve(truth, budget=budget)
    rng = random.Random(seed)
    for _ in range(60):
        call = rng.randrange(4)
        if call == 0:
            curve.record(None, is_match=rng.random() < 0.2)
        elif call == 1:
            size = rng.choice((0, 1, 5, 17))
            curve.record_batch(size, rng.randrange(0, 3) if rng.random() < 0.5 else 0)
        else:
            size = rng.randrange(0, 12)
            curve.record_many(bytearray(int(rng.random() < 0.15) for _ in range(size)))
    return curve


@functools.lru_cache(maxsize=None)
def _curves() -> dict:
    curves = {"empty": ProgressiveRecallCurve(GroundTruth([["a", "b"]]))}
    for label in SCHEDULERS:
        for budget in BUDGETS:
            curves[f"{label}/budget={budget}"] = _run_curve(label, budget)
    for key, (seed, budget) in MIXES.items():
        curves[key] = _mix_curve(seed, budget)
    return curves


def record(curve: ProgressiveRecallCurve) -> dict:
    """The frozen answers of one curve."""
    executed = curve.num_comparisons
    history = json.dumps([list(point) for point in curve.history()])
    denominators = (max(1, executed // 2), 2 * executed + 1)
    points = [round(i * (executed + 6) / 19) - 2 for i in range(20)]
    return {
        "comparisons": executed,
        "matches_found": curve.num_matches_found,
        "history_points": len(curve.history()),
        "history_sha256": hashlib.sha256(history.encode("utf-8")).hexdigest(),
        "auc": curve.auc().hex(),
        "auc_at": {str(d): curve.auc(max_comparisons=d).hex() for d in denominators},
        "recall_at": [[x, curve.recall_at(x).hex()] for x in points],
        "comparisons_for_recall": [curve.comparisons_for_recall(t) for t in TARGETS],
        "sampled": [[x, y.hex()] for x, y in curve.sampled(20)],
    }


@functools.lru_cache(maxsize=None)
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_the_fixture_covers_every_curve():
    assert sorted(_fixture()) == sorted(_curves())


@pytest.mark.parametrize("key", sorted(_fixture()) if FIXTURE.exists() else [])
def test_curve_reproduces_the_fixture(key):
    assert record(_curves()[key]) == _fixture()[key]


def _freeze_fixture() -> None:
    cases = {key: record(curve) for key, curve in _curves().items()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"froze {len(cases)} curves to {FIXTURE}")


if __name__ == "__main__":
    _freeze_fixture()
