"""Seeded meta-blocking fixture: every weighting x pruning case, frozen.

``tests/fixtures/metablocking/seeded.json`` freezes what the object
reference implementation, ``pruning.prune(BlockingGraph(blocks),
weighting)``, retained when it still ran beside the index engine (both
agreed on every case, weights bit for bit): seeded random block collections
-- dirty, clean--clean and mixed -- under every (weighting x pruning) pair,
CEP budgets and CNP / ReciprocalCNP ``k`` values around the ties CBS's
integer weights make, and the hand-built collections of the unit suites.
Per case it keeps the blocking graph's edge count, the retained count and
the retained rows in :meth:`MetaBlocking.weighted_comparisons` order, weights
as ``float.hex``.  :meth:`MetaBlocking.weighted_columns` (over the index's
own identifier table and over a padded context) and
:meth:`EntityIndexEngine.retained_columns` must reproduce every case byte for
byte; the pool suite holds the pooled ranged passes to a subset.

The random collections deliberately use identifiers whose lexicographic order
differs from their insertion order, so the canonical-pair handling of the
index engine (tie-breaks, ECBS/EJS factor ordering) is exercised for real.

Regenerating the fixture (only when what a scheme retains changes on
purpose): run this module as a script::

    PYTHONPATH=src python tests/test_metablocking_equivalence.py
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path
from typing import List

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.core.context import PipelineContext
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.metablocking import MetaBlocking
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.pruning import get_pruning_scheme

WEIGHTING_SCHEMES = ("CBS", "ECBS", "JS", "EJS", "ARCS")
PRUNING_SCHEMES = ("WEP", "CEP", "WNP", "CNP", "ReciprocalWNP", "ReciprocalCNP")
SEEDS = (3, 11, 42, 97, 1234)


def _identifiers(rng: random.Random, count: int, prefix: str = "") -> List[str]:
    """Identifiers whose lexicographic order is decoupled from creation order."""
    letters = "zyxwvutsrqponmlkjihgfedcba"
    return [f"{prefix}{rng.choice(letters)}{rng.choice(letters)}:{i}" for i in range(count)]


def random_dirty_blocks(seed: int, num_entities: int = 40, num_blocks: int = 30) -> BlockCollection:
    rng = random.Random(seed)
    ids = _identifiers(rng, num_entities)
    collection = BlockCollection(name=f"dirty-{seed}")
    for b in range(num_blocks):
        size = rng.randint(1, 8)  # size-1 blocks are dropped by add(); intended
        collection.add(Block(f"b{b}", members=rng.sample(ids, min(size, len(ids)))))
    return collection


def random_bilateral_blocks(seed: int, per_side: int = 25, num_blocks: int = 25) -> BlockCollection:
    rng = random.Random(seed)
    left = _identifiers(rng, per_side, prefix="l")
    right = _identifiers(rng, per_side, prefix="r")
    collection = BlockCollection(name=f"clean-clean-{seed}")
    for b in range(num_blocks):
        left_members = rng.sample(left, rng.randint(0, 5))
        right_members = rng.sample(right, rng.randint(0, 5))
        if left_members or right_members:
            collection.add(Block(f"b{b}", left_members=left_members, right_members=right_members))
    return collection


def random_mixed_blocks(seed: int) -> BlockCollection:
    """Unilateral and bilateral blocks over an overlapping identifier pool."""
    rng = random.Random(seed)
    ids = _identifiers(rng, 30)
    collection = BlockCollection(name=f"mixed-{seed}")
    for b in range(24):
        if rng.random() < 0.5:
            collection.add(Block(f"b{b}", members=rng.sample(ids, rng.randint(2, 7))))
        else:
            shuffled = rng.sample(ids, rng.randint(2, 8))
            split = rng.randint(1, len(shuffled) - 1) if len(shuffled) > 1 else 1
            collection.add(
                Block(f"b{b}", left_members=shuffled[:split], right_members=shuffled[split:])
            )
    return collection


RANDOM_COLLECTIONS = {
    "dirty": random_dirty_blocks,
    "clean-clean": random_bilateral_blocks,
    "mixed": random_mixed_blocks,
}


# ---------------------------------------------------------------------------
# batch seams and range covers of the ranged passes
# ---------------------------------------------------------------------------

SEAM_COLLECTIONS = {"mixed": random_mixed_blocks, "clean-clean": random_bilateral_blocks}


def _all_combo_columns(engine: EntityIndexEngine):
    return {
        (weighting, pruning): engine.retained_columns(weighting, pruning)
        for weighting in WEIGHTING_SCHEMES
        for pruning in PRUNING_SCHEMES
    }


@pytest.mark.parametrize("kind", sorted(SEAM_COLLECTIONS))
def test_batch_budget_never_changes_the_columns(kind, monkeypatch):
    """Node batches of 1 pair, 7 pairs and the default size give identical rows."""
    from repro.metablocking import entity_index

    blocks = SEAM_COLLECTIONS[kind](42)
    expected = _all_combo_columns(EntityIndexEngine(blocks))
    assert sum(len(weights) for _f, _s, weights in expected.values()) > 100
    for budget in (1, 7):
        monkeypatch.setattr(entity_index, "_BATCH_PAIRS", budget)
        assert _all_combo_columns(EntityIndexEngine(blocks)) == expected, budget


@pytest.mark.parametrize("kind", sorted(SEAM_COLLECTIONS))
def test_ranged_passes_over_a_cover_concatenate_to_the_whole_range(kind):
    """What the parallel workers rely on: any contiguous cover, same columns."""
    blocks = SEAM_COLLECTIONS[kind](11)
    engine = EntityIndexEngine(blocks)
    n = engine.num_entities
    cover = [(0, 1), (1, 1), (1, n // 2), (n // 2, n - 3), (n - 3, n)]

    def fan_out(step, scheme, *params):
        return [getattr(engine, "_" + step)(scheme, start, stop, *params) for start, stop in cover]

    # the CNP pass sees every edge from both ends, whatever the cover
    degree_totals = [engine._cnp("CBS", start, stop, 1)[0] for start, stop in cover]
    assert sum(degree_totals) == engine._cnp("CBS", 0, n, 1)[0] == 2 * engine.count_edges()
    for weighting in WEIGHTING_SCHEMES:
        for pruning in PRUNING_SCHEMES:
            expected = engine.retained_columns(weighting, pruning)
            statistics = engine.last_num_edges, engine.last_retained
            assert engine._retained(weighting, pruning, None, None, fan_out) == expected
            assert (engine.last_num_edges, engine.last_retained) == statistics


@pytest.mark.parametrize("kind", sorted(SEAM_COLLECTIONS))
def test_identifier_table_with_unblocked_descriptions_changes_nothing(kind):
    """Table entries no block contains are no graph nodes.

    The workflow builds the index over the context's identifier table, which
    also holds the descriptions purging, filtering or unique tokens left
    outside every block.  They must not move anything -- in particular not
    the CNP default ``k`` (assignments per *node*): all 30 combos still
    retain the frozen rows.
    """
    blocks = collection(f"{kind}/42")
    plain = EntityIndexEngine(blocks)
    padded = EntityIndexEngine(blocks, ids=padded_table(blocks))
    assert padded.num_entities == 3 * plain.num_entities
    assert padded.num_nodes == plain.num_nodes == plain.num_entities
    for weighting in WEIGHTING_SCHEMES:
        for pruning in PRUNING_SCHEMES:
            expected = fixture()[f"{kind}/42/{weighting}+{pruning}"]
            columns = padded.retained_columns(weighting, pruning)
            assert engine_rows(padded, columns) == expected["rows"], (weighting, pruning)
            assert (padded.last_num_edges, padded.last_retained) == (
                expected["graph_edges"],
                expected["retained"],
            )


# ---------------------------------------------------------------------------
# the frozen fixture
# ---------------------------------------------------------------------------

FIXTURE = Path(__file__).parent / "fixtures" / "metablocking" / "seeded.json"

CEP_BUDGETS = (0, 1, 5, 40, 10_000)
CNP_KS = (0, 1, 2, 7)


def _members(*blocks) -> BlockCollection:
    """Unilateral blocks ``b0, b1, ...`` over the given member lists."""
    return BlockCollection([Block(f"b{i}", members=list(m)) for i, m in enumerate(blocks)])


#: the hand-built collections of the unit suites, each a shape worth pinning
HAND_BUILT = {
    # (a,b) share 2 blocks, (a,c) and (b,c) one, then a c-d-e chain
    "chain": lambda: BlockCollection(
        [
            Block("t1", members=["a", "b"]),
            Block("t2", members=["a", "b", "c"]),
            Block("t3", members=["c", "d"]),
            Block("t4", members=["d", "e"]),
        ]
    ),
    # every pair shares exactly one block: all CBS weights tie
    "ties": lambda: BlockCollection(
        [
            Block("t1", members=["d", "c"]),
            Block("t2", members=["b", "a"]),
            Block("t3", members=["c", "b"]),
            Block("t4", members=["a", "d"]),
        ]
    ),
    "empty": BlockCollection,
    # one entity in every block
    "hub": lambda: _members(["hub", "a"], ["hub", "a", "b"], ["hub", "b", "c"], ["hub", "c"]),
    # a bilateral block yields only cross edges
    "bilateral": lambda: BlockCollection(
        [Block("t", left_members=["l1", "l2"], right_members=["r1"])]
    ),
    # (a, b) sit on one side of "bi" but share "uni"
    "bilateral_and_unilateral": lambda: BlockCollection(
        [
            Block("bi", left_members=["a", "b"], right_members=["c"]),
            Block("uni", members=["a", "b"]),
        ]
    ),
    "mixed": lambda: BlockCollection(
        [
            Block("b0", members=["n3", "n1", "n2"]),
            Block("b1", left_members=["n1"], right_members=["n4"]),
            Block("b2", members=["n4", "n2"]),
        ]
    ),
    "co_blocked": lambda: BlockCollection(
        [
            Block("b0", members=["n3", "n1", "n2"]),
            Block("b1", left_members=["n1", "n5"], right_members=["n4"]),
            Block("b2", members=["n4", "n2"]),
            Block("b3", members=["n6", "n7"]),
        ]
    ),
    # JS puts e4's summed WNP threshold an ulp above its exact one, 0.6,
    # which is the weight of (e1, e4)
    "wnp_refinement": lambda: _members(
        ["e0", "e1", "e2", "e3", "e4"],
        ["e1", "e3", "e4"],
        ["e3", "e4"],
        ["e0", "e1", "e2", "e3", "e4"],
        ["e1", "e3"],
    ),
    "overlapping": lambda: _members(["n3", "n1", "n2"], ["n1", "n4"], ["n4", "n2", "n3"]),
    "two_members": lambda: _members(["x", "y"]),
    # ARCS: 1 / 1 from the small block plus 1 / 6 from the big one
    "arcs_cardinality": lambda: _members(["x", "y"], ["x", "y", "z", "w"]),
}


@functools.lru_cache(maxsize=None)
def collection(key: str) -> BlockCollection:
    """The block collection a fixture case runs on: ``<kind>/<seed>`` or ``hand/<label>``."""
    kind, label = key.split("/")
    if kind == "hand":
        return HAND_BUILT[label]()
    return RANDOM_COLLECTIONS[kind](int(label))


def fixture_cases():
    """``(case name, (collection key, weighting, pruning, pruning parameters))``."""
    seeded = [f"dirty/{seed}" for seed in SEEDS]
    seeded += [f"{kind}/{seed}" for kind in ("clean-clean", "mixed") for seed in SEEDS[:3]]
    for key in seeded:
        for weighting in WEIGHTING_SCHEMES:
            for pruning in PRUNING_SCHEMES:
                yield f"{key}/{weighting}+{pruning}", (key, weighting, pruning, {})
    for key in (f"{kind}/{seed}" for kind in sorted(RANDOM_COLLECTIONS) for seed in SEEDS[:2]):
        for weighting in WEIGHTING_SCHEMES:
            for budget in CEP_BUDGETS:
                yield f"budget/{key}/{weighting}+CEP/{budget}", (
                    key, weighting, "CEP", {"budget": budget}
                )
            for pruning in ("CNP", "ReciprocalCNP"):
                for k in CNP_KS:
                    yield f"k/{key}/{weighting}+{pruning}/{k}", (key, weighting, pruning, {"k": k})
    for label in HAND_BUILT:
        for weighting in WEIGHTING_SCHEMES:
            for pruning in PRUNING_SCHEMES:
                yield f"hand/{label}/{weighting}+{pruning}", (
                    f"hand/{label}", weighting, pruning, {}
                )


def frozen_rows(triples) -> list:
    """``(first, second, weight)`` triples as fixture rows, heaviest first.

    The order of :meth:`MetaBlocking.weighted_comparisons`: weight
    descending, then the identifier pair; weights as ``float.hex``.
    """
    ordered = sorted(triples, key=lambda row: (-row[2], row[0], row[1]))
    return [[first, second, weight.hex()] for first, second, weight in ordered]


def _freeze_fixture() -> None:
    cases = {}
    for name, (key, weighting, pruning, params) in fixture_cases():
        metablocking = MetaBlocking(weighting, get_pruning_scheme(pruning, **params))
        columns = metablocking.weighted_columns(collection(key))
        cases[name] = {
            "graph_edges": metablocking.last_graph_edges,
            "retained": metablocking.last_retained_edges,
            "rows": column_rows(columns),
        }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    lines = [f" {json.dumps(name)}: {compact(case)}" for name, case in sorted(cases.items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"froze {len(cases)} cases to {FIXTURE}")


@functools.lru_cache(maxsize=None)
def fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def padded_table(blocks) -> List[str]:
    """An identifier table that also holds descriptions no block contains.

    The block members come reversed, between entries that sort before and
    after every one of them, so both the ordinals and the identifier ranks
    of the blocked descriptions move.
    """
    members = list(blocks.entity_index())
    return (
        [f"!unblocked:{i}" for i in range(len(members))]
        + members[::-1]
        + [f"~unblocked:{i}" for i in range(len(members))]
    )


def padded_context(blocks) -> PipelineContext:
    table = padded_table(blocks)
    return PipelineContext(EntityCollection([EntityDescription(i) for i in table]))


def column_rows(columns) -> list:
    """:class:`ComparisonColumns` as fixture rows, in their own order."""
    ids = columns.ids
    return [
        [ids[f], ids[s], w.hex()] for f, s, w in zip(columns.first, columns.second, columns.weights)
    ]


def engine_rows(engine: EntityIndexEngine, columns) -> list:
    """``retained_columns`` output as fixture rows, heaviest first."""
    first, second, weights = columns
    return frozen_rows(
        (engine.identifier(f), engine.identifier(s), w) for f, s, w in zip(first, second, weights)
    )


@functools.lru_cache(maxsize=None)
def case_inputs(key: str):
    """The collection of ``key``, a padded context over it, and one index
    engine that answers all of its cases in turn."""
    blocks = collection(key)
    return blocks, padded_context(blocks), EntityIndexEngine(blocks)


def assert_case(name: str, key: str, weighting: str, pruning: str, params: dict) -> None:
    """One case through the pipeline, over the index's own table and over a
    padded context, and through the collection's index engine."""
    blocks, context, engine = case_inputs(key)
    expected = fixture()[name]
    statistics = (expected["graph_edges"], expected["retained"])
    for own_context in (None, context):
        metablocking = MetaBlocking(weighting, get_pruning_scheme(pruning, **params))
        columns = metablocking.weighted_columns(blocks, context=own_context)
        assert column_rows(columns) == expected["rows"], own_context
        assert (metablocking.last_graph_edges, metablocking.last_retained_edges) == statistics
    columns = engine.retained_columns(weighting, pruning, **params)
    assert engine_rows(engine, columns) == expected["rows"]
    assert (engine.last_num_edges, engine.last_retained) == statistics


def fixture_params(*prefixes):
    """The cases named ``<prefix>...``, one test parameter each."""
    return [
        pytest.param(name, *spec, id=name)
        for name, spec in fixture_cases()
        if name.startswith(prefixes)
    ]


CASE_ARGUMENTS = "name, key, weighting, pruning, params"


@pytest.mark.parametrize(CASE_ARGUMENTS, fixture_params("dirty/", "clean-clean/", "mixed/"))
def test_seeded_cases_reproduce_the_fixture(name, key, weighting, pruning, params):
    assert_case(name, key, weighting, pruning, params)


@pytest.mark.parametrize(CASE_ARGUMENTS, fixture_params("budget/", "k/"))
def test_budget_and_k_cases_reproduce_the_fixture(name, key, weighting, pruning, params):
    assert_case(name, key, weighting, pruning, params)


@pytest.mark.parametrize(CASE_ARGUMENTS, fixture_params("hand/"))
def test_hand_built_cases_reproduce_the_fixture(name, key, weighting, pruning, params):
    assert_case(name, key, weighting, pruning, params)


def test_the_fixture_covers_every_case():
    assert set(fixture()) == {name for name, _ in fixture_cases()}


if __name__ == "__main__":
    _freeze_fixture()
