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

The fourth case, ``web_of_data``, is a hand-built collection in the shape of
the Linked Data the tutorial is about (``web_of_data_input.json``: accented
and CJK values, multi-valued attributes, DBpedia / Wikidata URIs sharing
their prefixes, its ground truth under ``"clusters"``), resolved with
prefix--infix--suffix blocking.  It holds the accent-stripping branch of the
tokeniser and the URI-infix keys end to end; its output was recorded from
the workflow's one path, and the readable per-component methods (a trivial
subclass of the builder, the scheduler and the matcher) produce the same.

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
from repro.datamodel.ground_truth import GroundTruth
from repro.datasets import (
    DatasetConfig,
    generate_clean_clean_task,
    generate_dirty_dataset,
    load_collection_json,
)

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "workflow"
WEB_OF_DATA = FIXTURES_DIR / "web_of_data_input.json"


def generated(generate, config: DatasetConfig):
    """An input maker for a seeded generator: ``() -> (data, ground truth)``."""

    def make():
        dataset = generate(config)
        data = dataset.task if dataset.collection is None else dataset.collection
        return data, dataset.ground_truth

    return make


def web_of_data():
    """The hand-built Web-of-data collection and its ground truth."""
    clusters = json.loads(WEB_OF_DATA.read_text(encoding="utf-8"))["clusters"]
    return load_collection_json(WEB_OF_DATA), GroundTruth(clusters)


#: name -> (input maker, workflow options, pass ground truth)
CASES = {
    "dirty_person": (
        generated(
            generate_dirty_dataset,
            DatasetConfig(num_entities=300, duplicates_per_entity=1.2, domain="person", seed=101),
        ),
        {},
        True,
    ),
    "cleanclean_iterate": (
        generated(
            generate_clean_clean_task,
            DatasetConfig(num_entities=160, missing_in_right=0.1, domain="person", seed=205),
        ),
        # at this threshold the update phase finds a match the pairwise phase
        # missed and runs a second round
        {"enable_metablocking": False, "iterate_merges": True, "match_threshold": 0.45},
        False,
    ),
    "dirty_budget": (
        generated(
            generate_dirty_dataset,
            DatasetConfig(num_entities=250, duplicates_per_entity=1.5, domain="person", seed=303),
        ),
        {"budget": 1200},
        True,
    ),
    "web_of_data": (
        web_of_data,
        # purging would drop most of the few blocks of so small an input
        {"blocking": "prefix_infix_suffix", "enable_purging": False, "match_threshold": 0.4},
        True,
    ),
}


def case_input(name: str):
    """``(data, ground truth or None, workflow options)`` of one golden case."""
    make_input, options, with_truth = CASES[name]
    data, ground_truth = make_input()
    return data, (ground_truth if with_truth else None), dict(options)


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
        f" {json.dumps(key)}: "
        + json.dumps(summary[key], separators=(",", ":"), ensure_ascii=False)
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
    """Guards the fixtures themselves: a case that stopped iterating, whose
    budget stopped binding, or that no longer matches across accents and
    scripts would freeze nothing of interest."""
    fixtures = {
        name: json.loads((FIXTURES_DIR / f"{name}.json").read_text(encoding="utf-8"))
        for name in CASES
    }
    assert fixtures["cleanclean_iterate"]["iterations"] >= 2
    assert fixtures["cleanclean_iterate"]["curve"] is None
    assert fixtures["dirty_budget"]["comparisons_executed"] == CASES["dirty_budget"][1]["budget"]
    assert len(fixtures["dirty_budget"]["curve"]) == fixtures["dirty_budget"]["comparisons_executed"] + 1
    assert all(fixture["matches"] and fixture["clusters"] for fixture in fixtures.values())
    web_matches = fixtures["web_of_data"]["matches"]
    dbpedia = "http://dbpedia.org/resource/"
    # "Zürich" and "Zurich" share their name token only once the accent is stripped
    assert [dbpedia + "Zürich", "http://fr.dbpedia.org/resource/Zurich"] in web_matches
    # a description named in Japanese joins its cluster through its Latin-script values
    assert [dbpedia + "Tokyo", "http://ja.dbpedia.org/resource/東京都"] in web_matches


def _regenerate() -> None:
    for name in CASES:
        data, ground_truth, options = case_input(name)
        result = ERWorkflow(WorkflowConfig(**options)).run(data, ground_truth)
        write_fixture(name, summarise(result))
        print(f"wrote {FIXTURES_DIR / f'{name}.json'}")


if __name__ == "__main__":
    _regenerate()
