"""Property-based equivalence of the graph and entity-index meta-blocking paths.

For seeded random block collections -- dirty, clean--clean and mixed -- every
(weighting x pruning) combination must retain the *same comparison set* with
the *same weights* in the legacy object graph (the oracle,
``pruning.prune(BlockingGraph(blocks), weighting)``) and the entity-index
engine.

The graph engine is compared with a 1e-9 weight tolerance, but it also
matches bit for bit (held on all three kinds of collection): both engines compute
per-edge weights with the same operand order and compute the WEP/WNP
thresholds with :func:`math.fsum`, whose exactly rounded result is
independent of accumulation order -- so even edges lying mathematically *on* a
threshold (common with ARCS on bilateral blocks) are resolved identically.

The random collections deliberately use identifiers whose lexicographic order
differs from their insertion order, so the canonical-pair handling of the
index engine (tie-breaks, ECBS/EJS factor ordering) is exercised for real.
"""

from __future__ import annotations

import random
from typing import List

import pytest
from conftest import graph_retained

from repro.blocking.base import Block, BlockCollection
from repro.metablocking import MetaBlocking
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.pruning import CardinalityEdgePruning, CardinalityNodePruning

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


def _retained(edges):
    return {(edge.first, edge.second): edge.weight for edge in edges}


def _assert_engines_agree(blocks: BlockCollection, weighting: str, pruning) -> None:
    graph_edges, graph = graph_retained(blocks, weighting, pruning)
    index_mb = MetaBlocking(weighting, pruning)
    expected = _retained(graph_edges)
    actual = _retained(index_mb.retained_edges(blocks))
    assert index_mb.last_engine == "index"
    assert expected.keys() == actual.keys(), (
        f"{weighting}+{pruning}: retained sets differ "
        f"(only graph: {sorted(set(expected) - set(actual))[:5]}, "
        f"only index: {sorted(set(actual) - set(expected))[:5]})"
    )
    for pair, weight in expected.items():
        assert actual[pair] == pytest.approx(weight, abs=1e-9), (weighting, pruning, pair)
    # the engine must also report the graph's statistics
    assert graph.num_edges == index_mb.last_graph_edges
    assert len(graph_edges) == index_mb.last_retained_edges == len(actual)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
@pytest.mark.parametrize("pruning", PRUNING_SCHEMES)
def test_dirty_equivalence(seed, weighting, pruning):
    _assert_engines_agree(random_dirty_blocks(seed), weighting, pruning)


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
@pytest.mark.parametrize("pruning", PRUNING_SCHEMES)
def test_clean_clean_equivalence(seed, weighting, pruning):
    _assert_engines_agree(random_bilateral_blocks(seed), weighting, pruning)


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
@pytest.mark.parametrize("pruning", PRUNING_SCHEMES)
def test_mixed_equivalence(seed, weighting, pruning):
    _assert_engines_agree(random_mixed_blocks(seed), weighting, pruning)


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("weighting", ("CBS", "ARCS"))
@pytest.mark.parametrize("budget", (1, 5, 40, 10_000))
def test_custom_cep_budget_equivalence(seed, weighting, budget):
    blocks = random_dirty_blocks(seed)
    _assert_engines_agree(blocks, weighting, CardinalityEdgePruning(budget=budget))


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("weighting", ("ECBS", "EJS"))
@pytest.mark.parametrize("k", (1, 2, 7))
def test_custom_cnp_k_equivalence(seed, weighting, k):
    blocks = random_dirty_blocks(seed)
    _assert_engines_agree(blocks, weighting, CardinalityNodePruning(k=k))


RANDOM_COLLECTIONS = {
    "dirty": random_dirty_blocks,
    "clean-clean": random_bilateral_blocks,
    "mixed": random_mixed_blocks,
}


@pytest.mark.parametrize("kind", sorted(RANDOM_COLLECTIONS))
@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
@pytest.mark.parametrize("pruning", PRUNING_SCHEMES)
def test_index_engine_is_bit_identical_to_the_graph_engine(kind, seed, weighting, pruning):
    """The index engine's weights equal the graph oracle's exactly."""
    blocks = RANDOM_COLLECTIONS[kind](seed)
    graph_edges, graph = graph_retained(blocks, weighting, pruning)
    expected = _retained(graph_edges)
    index = EntityIndexEngine(blocks)
    actual = {
        (edge.first, edge.second): edge.weight
        for edge in index.iter_retained(weighting, pruning)
    }
    assert expected == actual  # bit-for-bit, no tolerance
    assert index.last_num_edges == graph.num_edges
    assert index.last_retained == len(graph_edges)


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
    retain what the graph engine and the engine's own table retain.
    """
    blocks = SEAM_COLLECTIONS[kind](97)
    plain = EntityIndexEngine(blocks)
    members = plain.ids
    table = (
        [f"!unblocked:{i}" for i in range(len(members))]
        + members[::-1]
        + [f"~unblocked:{i}" for i in range(len(members))]
    )
    padded = EntityIndexEngine(blocks, ids=table)
    assert padded.num_entities == 3 * plain.num_entities
    assert padded.num_nodes == plain.num_nodes == plain.num_entities

    def rows(engine, weighting, pruning):
        first, second, weights = engine.retained_columns(weighting, pruning)
        return sorted(
            (engine.identifier(f), engine.identifier(s), w)
            for f, s, w in zip(first, second, weights)
        )

    for weighting in WEIGHTING_SCHEMES:
        for pruning in PRUNING_SCHEMES:
            expected = rows(plain, weighting, pruning)
            assert rows(padded, weighting, pruning) == expected, (weighting, pruning)
            assert (padded.last_num_edges, padded.last_retained) == (
                plain.last_num_edges,
                plain.last_retained,
            )
            graph, _ = graph_retained(blocks, weighting, pruning)
            assert sorted((e.first, e.second, e.weight) for e in graph) == expected
