"""Golden regression fixtures for the end-to-end workflow.

``tests/fixtures/workflow/*.json`` freezes what the seed implementation's
object pipeline produced on three seeded inputs: oracle blocking/cleaning,
graph meta-blocking, per-pair matching, the schedulers' own generators and
one token store per stage.  The files were recorded at the last commit that
could still select that pipeline (7363af8, through the ``*_engine`` /
``shared_context`` options it had); the workflow's one remaining path must
keep reproducing them exactly -- ordered matches, comparison counts,
iteration counts, the progressive recall curve and the cluster list -- on one
process and on a worker pool.

Regenerating the fixtures (only when the workflow's semantics change on
purpose) records the current output instead: run this module as a script::

    PYTHONPATH=src python tests/test_workflow_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import WorkflowConfig
from repro.core.workflow import ERWorkflow
from repro.datasets import DatasetConfig, generate_clean_clean_task, generate_dirty_dataset

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "workflow"

#: name -> (generator, dataset configuration, workflow options, pass ground truth)
CASES = {
    "dirty_person": (
        generate_dirty_dataset,
        DatasetConfig(num_entities=300, duplicates_per_entity=1.2, domain="person", seed=101),
        {},
        True,
    ),
    "cleanclean_iterate": (
        generate_clean_clean_task,
        DatasetConfig(num_entities=160, missing_in_right=0.1, domain="person", seed=205),
        # at this threshold the update phase finds a match the pairwise phase
        # missed and runs a second round
        {"enable_metablocking": False, "iterate_merges": True, "match_threshold": 0.45},
        False,
    ),
    "dirty_budget": (
        generate_dirty_dataset,
        DatasetConfig(num_entities=250, duplicates_per_entity=1.5, domain="person", seed=303),
        {"budget": 1200},
        True,
    ),
}


def case_input(name: str):
    """``(data, ground truth or None, workflow options)`` of one golden case."""
    generate, dataset_config, options, with_truth = CASES[name]
    dataset = generate(dataset_config)
    data = dataset.task if dataset.collection is None else dataset.collection
    return data, (dataset.ground_truth if with_truth else None), dict(options)


def summarise(result) -> dict:
    """The frozen view of a :class:`~repro.core.results.WorkflowResult`."""
    return {
        "matches": [list(pair) for pair in result.matches],
        "comparisons_executed": result.comparisons_executed,
        "iterations": result.iterations,
        "curve": (
            None
            if result.curve is None
            else [list(point) for point in result.curve.history()]
        ),
        "clusters": [sorted(cluster) for cluster in result.clusters],
    }


def write_fixture(name: str, summary: dict) -> None:
    """One top-level key per line: compact, but a changed key diffs alone."""
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(
        f" {json.dumps(key)}: {json.dumps(summary[key], separators=(',', ':'))}"
        for key in sorted(summary)
    )
    (FIXTURES_DIR / f"{name}.json").write_text("{\n" + lines + "\n}\n", encoding="utf-8")


@pytest.mark.parametrize("num_workers", (1, 2))
@pytest.mark.parametrize("name", sorted(CASES))
def test_workflow_reproduces_golden_output(name, num_workers):
    data, ground_truth, options = case_input(name)
    result = ERWorkflow(WorkflowConfig(num_workers=num_workers, **options)).run(
        data, ground_truth
    )
    frozen = json.loads((FIXTURES_DIR / f"{name}.json").read_text(encoding="utf-8"))
    actual = summarise(result)
    for key in sorted(frozen):
        assert actual[key] == frozen[key], f"{name}: {key} changed (workers={num_workers})"
    assert set(actual) == set(frozen)


def test_golden_cases_exercise_what_they_claim():
    """Guards the fixtures themselves: a case that stopped iterating, or whose
    budget stopped binding, would freeze nothing of interest."""
    fixtures = {
        name: json.loads((FIXTURES_DIR / f"{name}.json").read_text(encoding="utf-8"))
        for name in CASES
    }
    assert fixtures["cleanclean_iterate"]["iterations"] >= 2
    assert fixtures["cleanclean_iterate"]["curve"] is None
    assert fixtures["dirty_budget"]["comparisons_executed"] == CASES["dirty_budget"][2]["budget"]
    assert len(fixtures["dirty_budget"]["curve"]) == fixtures["dirty_budget"]["comparisons_executed"] + 1
    assert all(fixture["matches"] and fixture["clusters"] for fixture in fixtures.values())


def _regenerate() -> None:
    for name in CASES:
        data, ground_truth, options = case_input(name)
        result = ERWorkflow(WorkflowConfig(**options)).run(data, ground_truth)
        write_fixture(name, summarise(result))
        print(f"wrote {FIXTURES_DIR / f'{name}.json'}")


if __name__ == "__main__":
    _regenerate()
