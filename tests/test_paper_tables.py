"""The tutorial's comparative tables, frozen.

``benchmarks/paper_tables.py`` builds the blocking, meta-blocking,
progressive and iterative comparisons from seeded generators.  This module
regenerates them and compares the rendered text with
``tests/fixtures/paper_tables.txt`` byte for byte, then checks the shape each
table has to show, so that a deliberate re-freeze cannot silently lose a
result of the paper.  The README quotes the fixture whole.

Refresh the fixture (only when a result changes on purpose) with::

    python benchmarks/paper_tables.py > tests/fixtures/paper_tables.txt

and paste it over the tables in the README.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "fixtures" / "paper_tables.txt"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "paper_tables", ROOT / "benchmarks" / "paper_tables.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def built(script):
    return script.build_tables()


@pytest.fixture(scope="module")
def tables(built):
    return {name: rows for name, (_title, rows) in built.items()}


def _by(rows, *keys):
    """``rows`` keyed by the value of ``keys`` (a tuple of values for several)."""
    if len(keys) == 1:
        return {row[keys[0]]: row for row in rows}
    return {tuple(row[key] for key in keys): row for row in rows}


def test_output_is_the_frozen_fixture(script, built):
    assert script.render(built).encode("utf-8") == FIXTURE.read_bytes()


def test_readme_quotes_the_frozen_tables():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "```text\n" + FIXTURE.read_text(encoding="utf-8") + "```\n" in readme


def test_fixture_covers_every_family_and_named_scheme(script, tables):
    assert set(tables) == {
        "blocking_dirty",
        "blocking_clean_clean",
        "block_cleaning",
        "metablocking",
        "progressive",
        "influence",
        "swoosh",
        "collective",
        "iterative_blocking",
    }
    for name in ("blocking_dirty", "blocking_clean_clean"):
        assert [row["scheme"] for row in tables[name]] == list(script.BLOCKING_SCHEMES)
    combinations = {(row["weighting"], row["pruning"]) for row in tables["metablocking"][1:]}
    assert combinations == {
        (weighting, pruning)
        for weighting in script.WEIGHTING_SCHEMES
        for pruning in script.PRUNING_SCHEMES
    }
    assert set(script.SCHEDULERS) < {row["scheduler"] for row in tables["progressive"]}


def test_schema_agnostic_blocking_keeps_the_matches(tables):
    for name in ("blocking_dirty", "blocking_clean_clean"):
        schemes = _by(tables[name], "scheme")
        for agnostic in ("token", "prefix_infix_suffix", "attribute_clustering"):
            assert schemes[agnostic]["PC"] > 0.95, (name, agnostic)
        # the schema-aware baseline misses matches, badly across vocabularies
        assert schemes["standard"]["PC"] < schemes["token"]["PC"]
        for row in tables[name]:
            assert row["cleaned comparisons"] <= row["comparisons"], (name, row["scheme"])
    assert _by(tables["blocking_clean_clean"], "scheme")["standard"]["PC"] < 0.9
    token = _by(tables["blocking_dirty"], "scheme")["token"]
    assert token["cleaned RR"] > token["RR"]
    assert token["cleaned PC"] > 0.9


def test_block_cleaning_trades_little_recall_for_comparisons(tables):
    results = _by(tables["block_cleaning"], "purging", "filtering ratio")
    ratios = (1.0, 0.8, 0.6, 0.4)
    assert results[("on", 1.0)]["PC"] >= results[("off", 1.0)]["PC"]
    assert results[("on", 1.0)]["comparisons"] < results[("off", 1.0)]["comparisons"]
    for purging in ("off", "on"):
        comparisons = [results[(purging, ratio)]["comparisons"] for ratio in ratios]
        assert comparisons == sorted(comparisons, reverse=True)
    assert results[("on", 0.8)]["PC"] > 0.95


def test_metablocking_prunes_most_comparisons_and_keeps_recall(script, tables):
    source, *rows = tables["metablocking"]
    for row in rows:
        assert row["retained"] < source["retained"], row
        assert row["PC"] >= 0.55, row
        assert row["PQ"] >= source["PQ"], row
    results = _by(rows, "weighting", "pruning")
    for weighting in script.WEIGHTING_SCHEMES:
        # node-centric pruning keeps more recall than edge-centric pruning
        assert results[(weighting, "CNP")]["PC"] >= results[(weighting, "CEP")]["PC"]
        # the reciprocal variants are stricter and more precise
        for plain in ("WNP", "CNP"):
            reciprocal = results[(weighting, "Reciprocal" + plain)]
            assert reciprocal["retained"] <= results[(weighting, plain)]["retained"]
            assert reciprocal["PQ"] >= results[(weighting, plain)]["PQ"]


def test_every_scheduler_beats_random_order(tables):
    results = _by(tables["progressive"], "scheduler")
    baseline = results.pop("random")
    for name, row in results.items():
        assert row["AUC"] > baseline["AUC"], name
        assert row["recall@25%"] >= baseline["recall@25%"], name
    lookahead, plain = results["psnm"], results["psnm (no lookahead)"]
    assert lookahead["AUC"] >= plain["AUC"] - 0.02
    assert lookahead["matches found"] >= plain["matches found"]


def test_influence_updates_help_under_tight_budgets(tables):
    found = {}
    for row in tables["influence"]:
        found.setdefault(row["scheduler"], []).append(row["matches found"])
    static, influence = found["static (no updates)"], found["influence 0.5"]
    assert all(updated >= fixed for updated, fixed in zip(influence, static))
    assert sum(influence) > sum(static)
    # an excessive influence weight over-promotes unpromising pairs
    assert sum(found["influence 1.0"]) < sum(influence)


def test_rswoosh_reaches_the_naive_fixpoint_with_fewer_comparisons(tables):
    rows = tables["swoosh"]
    for row in rows:
        assert row["same partition"] is True
        assert row["R-Swoosh comparisons"] < row["naive comparisons"]
        assert row["R-Swoosh recall"] == 1.0
    assert rows[-1]["saving factor"] > 3.0
    assert rows[-1]["saving factor"] >= rows[0]["saving factor"]


def test_collective_er_rescues_matches_attributes_miss(tables):
    results = _by(tables["collective"], "threshold", "method")
    for threshold in (0.5, 0.6, 0.7):
        attribute_only = results[(threshold, "attribute-only")]
        collective = results[(threshold, "collective")]
        assert collective["rescues"] > 0, threshold
        assert collective["recall"] > attribute_only["recall"], threshold
        if threshold >= 0.6:
            assert collective["f1"] > attribute_only["f1"], threshold
            assert collective["precision"] >= attribute_only["precision"] - 0.10, threshold


def test_iterative_blocking_saves_comparisons_at_little_recall(tables):
    results = _by(tables["iterative_blocking"], "matcher", "method")
    for matcher, recall_slack in (("oracle", 0.0), ("overlap 0.7", 0.05)):
        independent = results[(matcher, "independent blocks")]
        iterative = results[(matcher, "iterative blocking")]
        assert iterative["comparisons"] < 0.25 * independent["comparisons"], matcher
        assert iterative["recall"] >= independent["recall"] - recall_slack, matcher
        assert iterative["precision"] >= independent["precision"] - 0.02, matcher
