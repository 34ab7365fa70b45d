"""Golden regression fixtures for meta-blocking.

``tests/fixtures/metablocking/*.json`` freezes the retained-edge output of the
legacy graph engine on the builtin datasets (token blocking, every weighting x
pruning combination).  Both engines must keep reproducing these exact results,
so future optimisations of either engine cannot silently change what
meta-blocking retains.

Regenerating the fixtures (only when the meta-blocking semantics change on
purpose): run this module as a script::

    PYTHONPATH=src python tests/test_metablocking_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from conftest import graph_retained

from repro.blocking.token_blocking import TokenBlocking
from repro.core.context import PipelineContext
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datasets.builtin import load_census, load_restaurants
from repro.metablocking import MetaBlocking

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "metablocking"

WEIGHTING_SCHEMES = ("CBS", "ECBS", "JS", "EJS", "ARCS")
PRUNING_SCHEMES = ("WEP", "CEP", "WNP", "CNP", "ReciprocalWNP", "ReciprocalCNP")
DATASETS = {"restaurants": load_restaurants, "census": load_census}


def _blocks(dataset_name: str):
    return TokenBlocking().build(DATASETS[dataset_name]().collection)


def _fixture(dataset_name: str) -> dict:
    path = FIXTURES_DIR / f"{dataset_name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_fixture_covers_all_combos(dataset_name):
    fixture = _fixture(dataset_name)
    expected = {f"{w}+{p}" for w in WEIGHTING_SCHEMES for p in PRUNING_SCHEMES}
    assert set(fixture["combos"]) == expected


@pytest.mark.parametrize("engine", ("graph", "index"))
@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_engines_reproduce_golden_output(dataset_name, engine):
    blocks = _blocks(dataset_name)
    fixture = _fixture(dataset_name)
    for combo, frozen in fixture["combos"].items():
        weighting, pruning = combo.split("+")
        if engine == "graph":
            edges, graph = graph_retained(blocks, weighting, pruning)
            graph_edges = graph.num_edges
        else:
            metablocking = MetaBlocking(weighting, pruning)
            edges = metablocking.retained_edges(blocks)
            graph_edges = metablocking.last_graph_edges
        assert graph_edges == frozen["graph_edges"], combo
        # bit for bit: the frozen weights are what both engines compute
        actual = sorted([edge.first, edge.second, edge.weight] for edge in edges)
        assert actual == frozen["retained"], f"{dataset_name}/{combo}/{engine}"


def _padded(collection) -> EntityCollection:
    """``collection`` plus as many descriptions again that no block will contain.

    Sorting before and after every real identifier, so they shift both the
    ordinals and the identifier ranks of the blocked descriptions.
    """
    size = len(collection)
    return EntityCollection(
        [EntityDescription(f"!unblocked:{i}") for i in range(size // 2)]
        + list(collection)
        + [EntityDescription(f"~unblocked:{i}") for i in range(size - size // 2)]
    )


@pytest.mark.parametrize("context_kind", ("collection", "padded", None))
@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_weighted_columns_reproduce_golden_rows(dataset_name, context_kind):
    """The columnar output is the frozen rows in ``(-weight, first, second)`` order.

    Whatever the identifier table: the engine's own, the context's, or a
    context that also holds descriptions outside every block (as purging,
    filtering or unique tokens leave them) -- those are no graph nodes and
    must not move the CNP default ``k``.
    """
    collection = DATASETS[dataset_name]().collection
    blocks = TokenBlocking().build(collection)
    with_context = context_kind is not None
    context = None
    if with_context:
        context = PipelineContext(_padded(collection) if context_kind == "padded" else collection)
    for combo, frozen in _fixture(dataset_name)["combos"].items():
        weighting, pruning = combo.split("+")
        metablocking = MetaBlocking(weighting, pruning)
        columns = metablocking.weighted_columns(blocks, context=context)
        assert metablocking.last_engine == "index"
        assert metablocking.last_graph_edges == frozen["graph_edges"], combo
        assert metablocking.last_retained_edges == len(frozen["retained"]), combo
        assert columns.weight_ordered and columns.distinct
        if with_context:
            assert columns.ids is context.ids
        rows = [
            [columns.ids[f], columns.ids[s], w]
            for f, s, w in zip(columns.first, columns.second, columns.weights)
        ]
        expected = sorted(frozen["retained"], key=lambda row: (-row[2], row[0], row[1]))
        assert rows == expected, f"{dataset_name}/{combo}"


def _regenerate() -> None:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for dataset_name in DATASETS:
        blocks = _blocks(dataset_name)
        combos = {}
        for weighting in WEIGHTING_SCHEMES:
            for pruning in PRUNING_SCHEMES:
                edges, graph = graph_retained(blocks, weighting, pruning)
                combos[f"{weighting}+{pruning}"] = {
                    "graph_edges": graph.num_edges,
                    "retained": sorted([e.first, e.second, e.weight] for e in edges),
                }
        payload = {
            "dataset": dataset_name,
            "blocking": "token",
            "note": (
                "frozen output of the legacy graph engine; regenerate only if "
                "the meta-blocking semantics intentionally change"
            ),
            "combos": combos,
        }
        path = FIXTURES_DIR / f"{dataset_name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
