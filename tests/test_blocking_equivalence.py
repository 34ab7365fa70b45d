"""Seeded blocking fixtures: every builder x cleaning case, frozen.

``tests/fixtures/blocking/seeded.json`` freezes, for seeded random
collections -- dirty and clean--clean -- and a handful of degenerate inputs,
what every builder x cleaning case produced when each scheme still had a
separate object body beside its column body (both agreed on every case):
per case the block count, the first blocks serialised and a SHA-256 of the
whole serialised collection (key order, member order, the left/right split
of bilateral blocks and the first-block-wins orientation of propagated pair
blocks).  Each builder's ``build`` and each cleaner's ``process`` is now the
one body of its algorithm, and must keep reproducing the fixture whether it
interns the input privately or reads a shared context that owns it.

The random collections deliberately use identifiers whose lexicographic
order differs from their insertion order (so canonical-pair handling is
exercised for real), URI-like identifiers (so prefix--infix--suffix keys
appear), accented and stop-word-heavy values, multi-valued attributes and
heterogeneous attribute names (so attribute clustering has real work to do).

Regenerating the fixture (only when a scheme's output changes on purpose):
run this module as a script::

    PYTHONPATH=src python tests/test_blocking_equivalence.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.blocking import (
    BlockFiltering,
    BlockPurging,
    CanopyClusteringBlocking,
    ExtendedSortedNeighborhoodBlocking,
    MinHashLSHBlocking,
    MultidimensionalBlocking,
    MultiPassSortedNeighborhoodBlocking,
    SimilarityJoinBlocking,
    SortedNeighborhoodBlocking,
    clean_blocks,
)
from repro.blocking.sorted_neighborhood import sorting_key_from_attributes
from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
)
from repro.core.context import PipelineContext
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription

SEEDS = (3, 11, 42, 97, 1234)

_VOCABULARY = (
    "alan turing grace hopper ada lovelace edsger dijkstra london paris "
    "new york cafe café münchen zürich the of at by a x kb mathematician "
    "scientist monument wall bridge tower 1912 1952 42 7 st ave"
).split()

_ATTRIBUTES = ("name", "label", "title", "city", "place", "venue", "note")


def _value(rng: random.Random) -> str:
    return " ".join(rng.choice(_VOCABULARY) for _ in range(rng.randint(1, 4)))


def _description(rng: random.Random, index: int, prefix: str) -> EntityDescription:
    letters = "zyxwvutsrqponmlkjihgfedcba"
    if rng.random() < 0.4:  # URI-like identifier, exercising the infix keys
        local = "_".join(rng.choice(_VOCABULARY) for _ in range(rng.randint(1, 2)))
        identifier = f"http://{prefix}kb{rng.choice(letters)}.org/resource/{local}:{index}"
    else:
        identifier = f"{prefix}{rng.choice(letters)}{rng.choice(letters)}:{index}"
    attributes = {}
    for attribute in rng.sample(_ATTRIBUTES, rng.randint(1, 4)):
        if rng.random() < 0.25:  # multi-valued attribute
            attributes[attribute] = [_value(rng), _value(rng)]
        else:
            attributes[attribute] = _value(rng)
    return EntityDescription(identifier, attributes)


def random_dirty_collection(seed: int, size: int = 40) -> EntityCollection:
    rng = random.Random(seed)
    return EntityCollection(
        [_description(rng, i, "") for i in range(size)], name=f"dirty-{seed}"
    )


def random_clean_clean_task(seed: int, per_side: int = 25) -> CleanCleanTask:
    rng = random.Random(seed)
    left = EntityCollection([_description(rng, i, "L") for i in range(per_side)], name="left")
    right = EntityCollection([_description(rng, i, "R") for i in range(per_side)], name="right")
    return CleanCleanTask(left, right)


def degenerate_inputs():
    """label -> input: empty, single, token-free, all-ties and one-sided tasks."""
    return {
        "empty": EntityCollection(name="empty"),
        "single": EntityCollection([EntityDescription("only", {"name": "alan turing"})]),
        # stop words and sub-minimum tokens only: every token column is empty
        "blank-tokens": EntityCollection(
            [
                EntityDescription("b1", {"name": "the of a"}),
                EntityDescription("b2", {"name": "x y z"}),
                EntityDescription("b3", {}),
            ]
        ),
        # identical values: every sort key, signature and similarity ties
        "all-ties": EntityCollection(
            [EntityDescription(f"t{i}", {"name": "grace hopper"}) for i in range(5)]
        ),
        "empty-task": CleanCleanTask(EntityCollection(name="l"), EntityCollection(name="r")),
        "one-sided-task": CleanCleanTask(
            EntityCollection([EntityDescription("L1", {"name": "alan"})], name="l"),
            EntityCollection(name="r"),
        ),
    }


#: the token family, built and cleaned on every seed
BUILDERS = {
    "token": lambda: TokenBlocking(),
    "token-limited": lambda: TokenBlocking(max_block_fraction=0.25),
    "token-custom": lambda: TokenBlocking(stop_words=("the", "of"), min_token_length=1),
    "prefix_infix_suffix": lambda: PrefixInfixSuffixBlocking(),
    "attribute_clustering": lambda: AttributeClusteringBlocking(),
    "attribute_clustering-loose": lambda: AttributeClusteringBlocking(
        similarity_threshold=0.1, min_token_length=1
    ),
}

#: the long-tail families (and a multidimensional aggregate of three builders)
FAMILY_BUILDERS = {
    "minhash_lsh": lambda: MinHashLSHBlocking(num_bands=8, rows_per_band=2),
    "minhash_lsh-default": lambda: MinHashLSHBlocking(),
    "canopy": lambda: CanopyClusteringBlocking(),
    "canopy-tight": lambda: CanopyClusteringBlocking(
        loose_threshold=0.1, tight_threshold=0.3, seed=5
    ),
    "sorted_neighborhood": lambda: SortedNeighborhoodBlocking(window_size=3),
    "extended_sorted_neighborhood": lambda: ExtendedSortedNeighborhoodBlocking(
        window_size=2
    ),
    "multipass_sorted_neighborhood": lambda: MultiPassSortedNeighborhoodBlocking(
        window_size=3,
        sorting_keys=(None, sorting_key_from_attributes(["name", "city"])),
    ),
    "similarity_join": lambda: SimilarityJoinBlocking(threshold=0.4),
    "similarity_join-no-positional": lambda: SimilarityJoinBlocking(
        threshold=0.6, use_positional_filter=False
    ),
    "multidimensional": lambda: MultidimensionalBlocking(
        [
            TokenBlocking(),
            PrefixInfixSuffixBlocking(),
            MinHashLSHBlocking(num_bands=8, rows_per_band=2),
        ],
        min_shared_dimensions=2,
    ),
}

ALL_BUILDERS = {**BUILDERS, **FAMILY_BUILDERS}

CLEANING = {
    "none": {},
    "purge": {"purging": BlockPurging()},
    "filter": {"filtering": BlockFiltering(0.6)},
    "propagate": {"propagate": True},
    "all": {"purging": BlockPurging(), "filtering": BlockFiltering(0.8), "propagate": True},
}

#: the cleanings the long-tail families and the degenerate inputs run
FAMILY_CLEANING = ("none", "all")

FILTER_RATIOS = (0.3, 0.5, 1.0)
BLOCK_FRACTIONS = (0.05, 0.1, 0.3, 0.9)
FRACTION_BUILDERS = {
    "token": lambda fraction: TokenBlocking(max_block_fraction=fraction),
    "attribute_clustering": lambda fraction: AttributeClusteringBlocking(
        max_block_fraction=fraction
    ),
}

FIXTURE = Path(__file__).parent / "fixtures" / "blocking" / "seeded.json"
#: leading blocks of every case kept verbatim in the fixture
HEAD = 20


def snapshot(blocks) -> List[Tuple]:
    """Full structural snapshot: key order, member order, bilateral split."""
    return [
        (block.key, block.left_members, block.right_members)
        if block.is_bilateral
        else (block.key, block.members)
        for block in blocks
    ]


def serialise(blocks) -> list:
    return [
        [block.key, list(block.left_members), list(block.right_members)]
        if block.is_bilateral
        else [block.key, list(block.members)]
        for block in blocks
    ]


def record(blocks) -> dict:
    """What the fixture keeps of one block collection."""
    serialised = serialise(blocks)
    digest = hashlib.sha256(json.dumps(serialised).encode("utf-8")).hexdigest()
    return {"count": len(serialised), "head": serialised[:HEAD], "sha256": digest}


def seeded_cases():
    """``(case name, input, builder factory, cleaning)`` of every fixture case."""
    for seed in SEEDS:
        for name, factory in BUILDERS.items():
            for cleaning in CLEANING:
                yield f"token/dirty/{seed}/{name}/{cleaning}", (
                    functools.partial(random_dirty_collection, seed), factory, cleaning
                )
    for seed in SEEDS[:3]:
        for name, factory in BUILDERS.items():
            for cleaning in CLEANING:
                yield f"token/clean_clean/{seed}/{name}/{cleaning}", (
                    functools.partial(random_clean_clean_task, seed), factory, cleaning
                )
    for kind, make, seeds in (
        ("dirty", random_dirty_collection, (3, 42, 97)),
        ("clean_clean", random_clean_clean_task, (3, 42)),
    ):
        for seed in seeds:
            for name, factory in FAMILY_BUILDERS.items():
                for cleaning in FAMILY_CLEANING:
                    yield f"family/{kind}/{seed}/{name}/{cleaning}", (
                        functools.partial(make, seed), factory, cleaning
                    )
    for label in degenerate_inputs():
        for name, factory in ALL_BUILDERS.items():
            for cleaning in FAMILY_CLEANING:
                yield f"degenerate/{label}/{name}/{cleaning}", (
                    lambda label=label: degenerate_inputs()[label], factory, cleaning
                )


def ratio_cases():
    """Tie-heavy filtering ratios over token blocks of 60 descriptions."""
    for seed in SEEDS[:2]:
        for ratio in FILTER_RATIOS:
            yield f"ratio/{seed}/{ratio}", (seed, ratio)


def fraction_cases():
    for seed in SEEDS[:2]:
        for fraction in BLOCK_FRACTIONS:
            for name in FRACTION_BUILDERS:
                yield f"fraction/{seed}/{fraction}/{name}", (seed, fraction, name)


def _join_statistics(builder) -> dict:
    if isinstance(builder, SimilarityJoinBlocking):
        return {"stats": [builder.last_candidate_count, builder.last_verified_count]}
    return {}


def _freeze_fixture() -> None:
    cases = {}
    for name, (make, factory, cleaning) in seeded_cases():
        builder = factory()
        built = builder.build(make())
        cases[name] = {
            **record(clean_blocks(built, **CLEANING[cleaning])),
            **_join_statistics(builder),
        }
    for name, (seed, ratio) in ratio_cases():
        blocks = TokenBlocking().build(random_dirty_collection(seed, size=60))
        cases[name] = record(BlockFiltering(ratio).process(blocks))
    for name, (seed, fraction, builder_name) in fraction_cases():
        builder = FRACTION_BUILDERS[builder_name](fraction)
        cases[name] = record(builder.build(random_dirty_collection(seed, size=50)))
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    lines = [f" {json.dumps(name)}: {compact(case)}" for name, case in sorted(cases.items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"froze {len(cases)} cases to {FIXTURE}")


@functools.lru_cache(maxsize=None)
def fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def assert_case(name: str, make, factory, cleaning: str) -> None:
    """One case through a private and a shared context, cleaned both ways."""
    expected = fixture()[name]
    for shared in (False, True):
        data = make()
        builder = factory()
        built = builder.build(data, PipelineContext(data)) if shared else builder.build(data)
        assert record(clean_blocks(built, **CLEANING[cleaning])) == {
            key: expected[key] for key in ("count", "head", "sha256")
        }, (name, shared)
        if "stats" in expected:
            assert _join_statistics(builder)["stats"] == expected["stats"], (name, shared)


def _cases(prefix: str):
    return [
        pytest.param(name, *spec, id=name[len(prefix) :])
        for name, spec in seeded_cases()
        if name.startswith(prefix)
    ]


@pytest.mark.parametrize("name, make, factory, cleaning", _cases("token/dirty/"))
def test_dirty_cases_reproduce_the_fixture(name, make, factory, cleaning):
    assert_case(name, make, factory, cleaning)


@pytest.mark.parametrize("name, make, factory, cleaning", _cases("token/clean_clean/"))
def test_clean_clean_cases_reproduce_the_fixture(name, make, factory, cleaning):
    assert_case(name, make, factory, cleaning)


@pytest.mark.parametrize(
    "name, spec", [pytest.param(name, spec, id=name) for name, spec in ratio_cases()]
)
def test_filtering_ratio_sweep(name, spec):
    """Tie-heavy filtering ratios: the stable ranking keeps the frozen blocks."""
    seed, ratio = spec
    blocks = TokenBlocking().build(random_dirty_collection(seed, size=60))
    assert record(BlockFiltering(ratio).process(blocks)) == fixture()[name]


@pytest.mark.parametrize(
    "name, spec", [pytest.param(name, spec, id=name) for name, spec in fraction_cases()]
)
def test_max_block_fraction_sweep(name, spec):
    seed, fraction, builder_name = spec
    data = random_dirty_collection(seed, size=50)
    builder = FRACTION_BUILDERS[builder_name](fraction)
    assert record(builder.build(data)) == fixture()[name]
    assert record(builder.build(data, PipelineContext(data))) == fixture()[name]


def test_the_fixture_covers_every_case():
    names = {name for name, _ in seeded_cases()}
    names |= {name for name, _ in ratio_cases()} | {name for name, _ in fraction_cases()}
    assert set(fixture()) == names


if __name__ == "__main__":
    _freeze_fixture()
