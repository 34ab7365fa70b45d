"""The long-tail blocking families against their frozen output.

Minhash/LSH, canopy, the three sorted-neighbourhood variants, the similarity
self-join and a multidimensional aggregate must reproduce
``tests/fixtures/blocking/seeded.json`` (see ``test_blocking_equivalence``)
on seeded dirty and clean--clean collections and on degenerate inputs,
interning privately and reading a shared context alike.  Equality is
structural: key order, member order, bilateral splits and ties.

The golden half of the suite freezes the builders' output on the builtin
datasets into ``tests/fixtures/blocking/families_*.json``; regenerate (only
on intentional semantic changes) with::

    PYTHONPATH=src python tests/test_scheme_family_engines.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.blocking import (
    AttributeClusteringBlocking,
    CanopyClusteringBlocking,
    ExtendedSortedNeighborhoodBlocking,
    MinHashLSHBlocking,
    MultiPassSortedNeighborhoodBlocking,
    PrefixInfixSuffixBlocking,
    SimilarityJoinBlocking,
    SortedNeighborhoodBlocking,
    TokenBlocking,
)
from repro.blocking.engine import BlockingEngine
from repro.blocking.sorted_neighborhood import sorting_key_from_attributes
from repro.core.context import PipelineContext
from repro.datasets.builtin import load_census, load_restaurants
from test_blocking_equivalence import (
    FAMILY_BUILDERS,
    assert_case,
    random_dirty_collection,
    seeded_cases,
    snapshot,
)

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "blocking"


def _cases(prefix: str):
    return [
        pytest.param(name, *spec, id=name[len(prefix) :])
        for name, spec in seeded_cases()
        if name.startswith(prefix)
    ]


@pytest.mark.parametrize("name, make, factory, cleaning", _cases("family/dirty/"))
def test_dirty_cases_reproduce_the_fixture(name, make, factory, cleaning):
    assert_case(name, make, factory, cleaning)


@pytest.mark.parametrize("name, make, factory, cleaning", _cases("family/clean_clean/"))
def test_clean_clean_cases_reproduce_the_fixture(name, make, factory, cleaning):
    assert_case(name, make, factory, cleaning)


@pytest.mark.parametrize("name, make, factory, cleaning", _cases("degenerate/"))
def test_degenerate_cases_reproduce_the_fixture(name, make, factory, cleaning):
    assert_case(name, make, factory, cleaning)


def test_multidimensional_blocking_interns_its_input_once(monkeypatch):
    """Every dimension reads the one context the aggregate builds."""
    interned = []
    original = PipelineContext.__init__

    def counting(self, data):
        interned.append(data)
        original(self, data)

    monkeypatch.setattr(PipelineContext, "__init__", counting)
    data = random_dirty_collection(3, size=20)
    FAMILY_BUILDERS["multidimensional"]().build(data)
    assert interned == [data]
    shared = PipelineContext(data)
    FAMILY_BUILDERS["multidimensional"]().build(data, shared)
    assert interned == [data, data]


class TestTrivialSubclasses:
    """A subclass that overrides nothing is the library type: same output."""

    @pytest.mark.parametrize("builder_name", sorted(FAMILY_BUILDERS))
    def test_trivial_subclass_gives_the_library_output(self, builder_name):
        library = FAMILY_BUILDERS[builder_name]()
        subclass = type(f"Readable{type(library).__name__}", (type(library),), {})
        readable = FAMILY_BUILDERS[builder_name]()
        readable.__class__ = subclass
        data = random_dirty_collection(3, size=20)
        assert snapshot(BlockingEngine(readable).build(data)) == snapshot(library.build(data))


# ----------------------------------------------------------------------
# parameters are checked when a builder is constructed
# ----------------------------------------------------------------------
TOKEN_READERS = {
    "token": TokenBlocking,
    "prefix_infix_suffix": PrefixInfixSuffixBlocking,
    "attribute_clustering": AttributeClusteringBlocking,
    "minhash_lsh": MinHashLSHBlocking,
    "canopy": CanopyClusteringBlocking,
    "similarity_join": SimilarityJoinBlocking,
}
WINDOWED = {
    "sorted_neighborhood": SortedNeighborhoodBlocking,
    "extended_sorted_neighborhood": ExtendedSortedNeighborhoodBlocking,
    "multipass_sorted_neighborhood": MultiPassSortedNeighborhoodBlocking,
}
FRACTIONED = {
    "token": TokenBlocking,
    "prefix_infix_suffix": PrefixInfixSuffixBlocking,
    "attribute_clustering": AttributeClusteringBlocking,
}

BAD_PARAMETERS = [
    *(
        pytest.param(cls, "min_token_length", value, id=f"{name}-min_token_length={value!r}")
        for name, cls in TOKEN_READERS.items()
        for value in (2.5, -1, "2", True, None)
    ),
    *(
        pytest.param(cls, "max_block_fraction", value, id=f"{name}-max_block_fraction={value!r}")
        for name, cls in FRACTIONED.items()
        for value in (math.nan, -0.5, 0.0, 1.5, math.inf, "0.5", True)
    ),
    *(
        pytest.param(CanopyClusteringBlocking, name, value, id=f"canopy-{name}={value!r}")
        for name in ("loose_threshold", "tight_threshold")
        for value in (math.nan, -0.1, 1.5, math.inf, "0.5")
    ),
    *(
        pytest.param(cls, "window_size", value, id=f"{name}-window_size={value!r}")
        for name, cls in WINDOWED.items()
        for value in (2.5, "3", True, 0)
    ),
]


@pytest.mark.parametrize("builder_type, parameter, value", BAD_PARAMETERS)
def test_a_bad_parameter_is_rejected_at_construction(builder_type, parameter, value):
    with pytest.raises(ValueError, match=parameter):
        builder_type(**{parameter: value})


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(lambda: TokenBlocking(min_token_length=0, max_block_fraction=1), id="token"),
        pytest.param(lambda: TokenBlocking(max_block_fraction=1e-9), id="token-tiny_fraction"),
        pytest.param(
            lambda: CanopyClusteringBlocking(loose_threshold=0, tight_threshold=1), id="canopy"
        ),
        pytest.param(lambda: SortedNeighborhoodBlocking(window_size=2), id="sorted_neighborhood"),
        pytest.param(
            lambda: ExtendedSortedNeighborhoodBlocking(window_size=1),
            id="extended_sorted_neighborhood",
        ),
    ],
)
def test_boundary_parameters_are_accepted(factory):
    assert len(factory().build(random_dirty_collection(3, size=10))) >= 0


# ----------------------------------------------------------------------
# golden fixtures (frozen on the builtin datasets)
# ----------------------------------------------------------------------
DATASETS = {"census": load_census, "restaurants": load_restaurants}

GOLDEN_BUILDERS = {
    "minhash_lsh": lambda: MinHashLSHBlocking(num_bands=8, rows_per_band=2),
    "canopy": lambda: CanopyClusteringBlocking(),
    "sorted_neighborhood": lambda: SortedNeighborhoodBlocking(window_size=3),
    "extended_sorted_neighborhood": lambda: ExtendedSortedNeighborhoodBlocking(
        window_size=2
    ),
    "multipass_sorted_neighborhood": lambda: MultiPassSortedNeighborhoodBlocking(
        window_size=3, sorting_keys=(None, sorting_key_from_attributes(["city"]))
    ),
    "similarity_join": lambda: SimilarityJoinBlocking(threshold=0.4),
}


def _serialise(blocks) -> list:
    return [
        [block.key, list(block.left_members), list(block.right_members)]
        if block.is_bilateral
        else [block.key, list(block.members)]
        for block in blocks
    ]


def _fixture(dataset_name: str) -> dict:
    path = FIXTURES_DIR / f"families_{dataset_name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_golden_fixture_covers_all_families(dataset_name):
    assert set(_fixture(dataset_name)["builders"]) == set(GOLDEN_BUILDERS)


@pytest.mark.parametrize("shared", (False, True), ids=("private", "shared-context"))
@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_builders_reproduce_family_golden_output(dataset_name, shared):
    collection = DATASETS[dataset_name]().collection
    fixture = _fixture(dataset_name)
    context = PipelineContext(collection) if shared else None
    for builder_name, frozen in fixture["builders"].items():
        blocks = BlockingEngine(GOLDEN_BUILDERS[builder_name](), context=context).build(collection)
        assert _serialise(blocks) == frozen["blocks"], (
            f"{dataset_name}/{builder_name}: block collection changed"
        )


def _regenerate() -> None:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for dataset_name, loader in DATASETS.items():
        collection = loader().collection
        builders = {}
        for builder_name, factory in GOLDEN_BUILDERS.items():
            builders[builder_name] = {"blocks": _serialise(factory().build(collection))}
        payload = {
            "dataset": dataset_name,
            "note": (
                "frozen output of the legacy (oracle) long-tail builders; "
                "regenerate only if the blocking semantics intentionally change"
            ),
            "builders": builders,
        }
        path = FIXTURES_DIR / f"families_{dataset_name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
