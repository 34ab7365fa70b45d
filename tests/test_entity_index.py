"""Edge cases of the array-backed entity-index engine and its pipeline wiring.

Covers the degenerate shapes the weighting schemes must survive: singleton
blocks, an entity appearing in every block, empty block collections and
clean--clean inputs without cross-source co-occurrence -- plus which
schemes :class:`MetaBlocking` accepts.
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest
from test_metablocking_equivalence import RANDOM_COLLECTIONS, fixture

from repro.blocking.base import Block, BlockCollection
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.columns import BlockColumns
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core.context import PipelineContext
from repro.metablocking import entity_index
from repro.metablocking import (
    CBS,
    EntityIndexEngine,
    MetaBlocking,
    PruningScheme,
    WeightedNodePruning,
)
from repro.metablocking.weighting import WeightingScheme

WEIGHTING_SCHEMES = ("CBS", "ECBS", "JS", "EJS", "ARCS")
PRUNING_SCHEMES = ("WEP", "CEP", "WNP", "CNP", "ReciprocalWNP", "ReciprocalCNP")


def all_combo_runs(blocks):
    for weighting in WEIGHTING_SCHEMES:
        for pruning in PRUNING_SCHEMES:
            metablocking = MetaBlocking(weighting, pruning)
            yield metablocking, metablocking.retained_edges(blocks)


class TestEmptyAndDegenerateCollections:
    def test_empty_block_collection(self):
        blocks = BlockCollection()
        for metablocking, retained in all_combo_runs(blocks):
            assert retained == []
            assert metablocking.last_graph_edges == 0
            assert metablocking.last_retained_edges == 0
        engine = EntityIndexEngine(blocks)
        assert engine.num_entities == 0
        assert engine.count_edges() == 0

    def test_singleton_blocks_are_dropped_and_produce_no_edges(self):
        blocks = BlockCollection()
        blocks.add(Block("s1", members=["a"]))
        blocks.add(Block("s2", members=["b"]))
        assert len(blocks) == 0  # singleton blocks induce no comparison
        for metablocking, retained in all_combo_runs(blocks):
            assert retained == []

    def test_blocks_with_only_one_bilateral_side_are_dropped(self):
        blocks = BlockCollection()
        blocks.add(Block("left-only", left_members=["l1", "l2"], right_members=[]))
        assert len(blocks) == 0
        for _metablocking, retained in all_combo_runs(blocks):
            assert retained == []


class TestEntityInEveryBlock:
    def make_blocks(self) -> BlockCollection:
        # "hub" co-occurs with everyone in every block
        return BlockCollection(
            [
                Block("b0", members=["hub", "a"]),
                Block("b1", members=["hub", "a", "b"]),
                Block("b2", members=["hub", "b", "c"]),
                Block("b3", members=["hub", "c"]),
            ]
        )

    def test_cbs_and_js_weights(self):
        blocks = self.make_blocks()
        engine = EntityIndexEngine(blocks)
        assert engine.node_blocks_count("hub") == len(blocks)
        retained = {
            (e.first, e.second): e.weight
            for e in engine.iter_retained("JS", "WNP")
        }
        # (hub, a): 2 shared blocks, hub in 4, a in 2 -> 2 / (4 + 2 - 2)
        assert retained[("a", "hub")] == pytest.approx(0.5)


class TestCleanCleanWithoutCrossCoOccurrence:
    def test_same_side_members_never_form_edges(self):
        blocks = BlockCollection(
            [Block("t", left_members=["l1", "l2"], right_members=["r1"])]
        )
        engine = EntityIndexEngine(blocks)
        retained = {(e.first, e.second) for e in engine.iter_retained("CBS", "WNP")}
        assert retained == {("l1", "r1"), ("l2", "r1")}
        assert ("l1", "l2") not in retained
        assert engine.count_edges() == 2

    def test_disjoint_sources_yield_no_comparisons(self):
        # every block holds members of one source only -> dropped on add()
        blocks = BlockCollection()
        blocks.add(Block("a-only", left_members=["a1", "a2"], right_members=[]))
        blocks.add(Block("b-only", left_members=[], right_members=["b1", "b2"]))
        assert len(blocks) == 0
        for metablocking, retained in all_combo_runs(blocks):
            assert retained == []
            assert metablocking.last_graph_edges == 0

    def test_mixed_unilateral_and_bilateral_blocks(self):
        blocks = BlockCollection(
            [
                Block("bi", left_members=["a", "b"], right_members=["c"]),
                Block("uni", members=["a", "b"]),
            ]
        )
        engine = EntityIndexEngine(blocks)
        retained = {
            (e.first, e.second): e.weight for e in engine.iter_retained("CBS", "WNP")
        }
        # (a, b) co-occur same-side in "bi" (no edge) but share "uni" (1 block)
        assert retained.get(("a", "b")) == pytest.approx(1.0)
        assert retained.get(("a", "c")) == pytest.approx(1.0)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        # the schemes' types are the only selector: there is no engine knob
        with pytest.raises(TypeError):
            MetaBlocking("CBS", "WNP", engine="quantum")

    def test_unknown_schemes_rejected_by_index_engine(self):
        engine = EntityIndexEngine(BlockCollection([Block("b", members=["a", "b"])]))
        with pytest.raises(KeyError):
            list(engine.iter_retained("nope", "WNP"))
        with pytest.raises(KeyError):
            list(engine.iter_retained("CBS", "nope"))

    def test_negative_cep_budget_rejected_everywhere(self):
        # a silently clamped/sliced negative budget would make the engines
        # diverge; both reject it instead
        from repro.metablocking.pruning import CardinalityEdgePruning

        with pytest.raises(ValueError):
            CardinalityEdgePruning(budget=-1)
        engine = EntityIndexEngine(BlockCollection([Block("b", members=["a", "b"])]))
        with pytest.raises(ValueError):
            engine.iter_retained("CBS", "CEP", budget=-1)

    def test_bilateral_self_pair_raises(self):
        # same identifier on both sides of a bilateral block: a description
        # would be compared with itself
        blocks = BlockCollection(
            [Block("t", left_members=["x", "a"], right_members=["x", "b"])]
        )
        with pytest.raises(ValueError, match="'x' twice"):
            MetaBlocking("CBS", "WNP").retained_edges(blocks)

    @pytest.mark.parametrize("role", ("weighting", "pruning"))
    def test_non_library_schemes_are_refused_at_construction(self, role):
        class Constant(WeightingScheme):
            name = "constant"

        class Keep(PruningScheme):
            name = "keep"

        custom = Constant() if role == "weighting" else Keep()
        for scheme in (5, custom, object()):
            arguments = {"weighting": "CBS", "pruning": "WNP", role: scheme}
            with pytest.raises(TypeError, match=role):
                MetaBlocking(**arguments)
        with pytest.raises(KeyError, match="nope"):
            MetaBlocking(**{"weighting": "CBS", "pruning": "WNP", role: "nope"})

    def test_library_subclasses_run_as_their_library_scheme(self):
        class Mine(CBS):
            name = "mine"

        class MyReciprocal(WeightedNodePruning):
            pass

        blocks = RANDOM_COLLECTIONS["mixed"](3)
        for weighting, pruning, expected in (
            (Mine(), "ReciprocalWNP", "mixed/3/CBS+ReciprocalWNP"),
            ("JS", MyReciprocal(), "mixed/3/JS+WNP"),
        ):
            metablocking = MetaBlocking(weighting, pruning)
            columns = metablocking.weighted_columns(blocks)
            assert metablocking.last_engine == "index"
            assert [
                [columns.ids[f], columns.ids[s], w.hex()]
                for f, s, w in zip(columns.first, columns.second, columns.weights)
            ] == fixture()[expected]["rows"]

    def test_standard_schemes_run_on_index_engine(self):
        blocks = BlockCollection([Block("b", members=["a", "b", "c"])])
        metablocking = MetaBlocking(CBS(), WeightedNodePruning())
        metablocking.retained_edges(blocks)
        assert metablocking.last_engine == "index"

    def test_iter_retained_is_lazy(self):
        blocks = BlockCollection([Block("b", members=["a", "b", "c", "d"])])
        metablocking = MetaBlocking("CBS", "WNP")
        iterator = metablocking.iter_retained(blocks)
        assert isinstance(iterator, types.GeneratorType)
        first = next(iterator)
        assert first.weight > 0
        remaining = list(iterator)
        assert metablocking.last_retained_edges == 1 + len(remaining)


class TestCoBlockedNeighbourhoods:
    """``co_blocked``: the update/iterate phase's candidate enumeration."""

    BLOCKS = [
        Block("b0", members=["n3", "n1", "n2"]),
        # whole blocks count: n5 sits on n1's own side of this one
        Block("b1", left_members=["n1", "n5"], right_members=["n4"]),
        Block("b2", members=["n4", "n2"]),
        Block("b3", members=["n6", "n7"]),
    ]
    #: a caller-fixed ordinal space, not in identifier order; n0 is in no block
    IDS = ["n4", "n0", "n7", "n1", "n6", "n3", "n2", "n5"]

    def test_identifier_order_over_given_ordinals(self):
        engine = EntityIndexEngine(BlockCollection(self.BLOCKS), ids=self.IDS)
        assert engine.num_entities == len(self.IDS)
        assert [engine.identifier(o) for o in range(len(self.IDS))] == self.IDS

        def co_blocked(*identifiers):
            ordinals = [engine.ordinal(identifier) for identifier in identifiers]
            return [engine.identifier(o) for o in engine.co_blocked(ordinals)]

        assert co_blocked("n1") == ["n2", "n3", "n4", "n5"]
        assert co_blocked("n1", "n4") == ["n2", "n3", "n5"]
        assert co_blocked("n3", "n6") == ["n1", "n2", "n7"]
        assert co_blocked("n0") == []
        assert co_blocked("n0", "n7") == ["n6"]
        assert engine.ordinal("ghost") is None

    def test_default_ordinals_are_first_seen(self):
        engine = EntityIndexEngine(BlockCollection(self.BLOCKS))
        assert [engine.identifier(o) for o in range(engine.num_entities)] == [
            "n3", "n1", "n2", "n5", "n4", "n6", "n7"
        ]

    def test_no_sources_have_no_neighbourhood(self):
        engine = EntityIndexEngine(BlockCollection(self.BLOCKS))
        assert engine.co_blocked([]) == []

    def test_members_outside_the_given_table_are_appended(self):
        blocks = BlockCollection([Block("b", members=["a", "b", "c"])])
        engine = EntityIndexEngine(blocks, ids=["a", "b"])
        assert engine.num_entities == 3
        assert engine.ids == ["a", "b", "c"]


class TestWeightedColumns:
    BLOCKS = [
        Block("b0", members=["n3", "n1", "n2"]),
        Block("b1", members=["n1", "n4"]),
        Block("b2", members=["n4", "n2", "n3"]),
    ]

    def test_foreign_context_is_refused_before_any_pruning(self, monkeypatch):
        from repro.core.context import PipelineContext
        from repro.datamodel.collection import EntityCollection
        from repro.datamodel.description import EntityDescription

        context = PipelineContext(
            EntityCollection(
                [EntityDescription(i, {"name": i}) for i in ("n1", "n2", "n3")], name="partial"
            )
        )

        def no_pruning(*_args, **_kwargs):
            raise AssertionError("pruning ran over blocks the context does not cover")

        monkeypatch.setattr(EntityIndexEngine, "retained_columns", no_pruning)
        with pytest.raises(KeyError, match="does not cover identifier 'n4'"):
            MetaBlocking("CBS", "WNP").weighted_columns(
                BlockCollection(self.BLOCKS), context=context
            )

    def test_statistics_are_set_on_return_and_ids_are_the_engines(self):
        blocks = BlockCollection(self.BLOCKS)
        metablocking = MetaBlocking("CBS", "WEP")
        columns = metablocking.weighted_columns(blocks)
        assert metablocking.last_engine == "index"
        assert metablocking.last_graph_edges == EntityIndexEngine(blocks).count_edges() == 6
        assert metablocking.last_retained_edges == len(columns) > 0
        # without a context the table is the index's own (first-seen members)
        assert columns.ids == ["n3", "n1", "n2", "n4"]
        assert [(c.first, c.second, c.weight) for c in columns] == [
            (c.first, c.second, c.weight) for c in metablocking.weighted_comparisons(blocks)
        ]


class TestWeightingEdgeCaseValues:
    def test_two_member_universe(self):
        blocks = BlockCollection([Block("only", members=["x", "y"])])
        for weighting in WEIGHTING_SCHEMES:
            edges = list(EntityIndexEngine(blocks).iter_retained(weighting, "WEP"))
            assert len(edges) == 1
            assert edges[0].pair == ("x", "y")
            assert edges[0].weight > 0
            assert math.isfinite(edges[0].weight)

    def test_arcs_uses_block_cardinality(self):
        blocks = BlockCollection(
            [
                Block("small", members=["x", "y"]),  # 1 comparison
                Block("big", members=["x", "y", "z", "w"]),  # 6 comparisons
            ]
        )
        retained = {
            (e.first, e.second): e.weight
            for e in EntityIndexEngine(blocks).iter_retained("ARCS", "CNP")
        }
        assert retained[("x", "y")] == pytest.approx(1.0 + 1.0 / 6.0)


def rows(columns):
    return [tuple(column) for column in columns]


class TestWnpThresholdRefinement:
    """WNP sums each node's weights over its own run of the full-neighbourhood
    pass (``add.reduceat``) and takes the node's exact ``fsum`` threshold
    wherever an incident weight lies inside the rounding margin of that sum."""

    #: JS puts e4's summed threshold an ulp above its exact one, 0.6, which is
    #: the weight of (e1, e4): the summed threshold alone would drop the row
    BLOCKS = [
        ["e0", "e1", "e2", "e3", "e4"],
        ["e1", "e3", "e4"],
        ["e3", "e4"],
        ["e0", "e1", "e2", "e3", "e4"],
        ["e1", "e3"],
    ]

    def blocks(self):
        return BlockCollection(
            [Block(f"b{i}", members=members) for i, members in enumerate(self.BLOCKS)]
        )

    @pytest.mark.parametrize("weighting", ("JS", "EJS"))
    def test_a_summed_threshold_flips_a_decision(self, weighting):
        engine = EntityIndexEngine(self.blocks())
        flipped = []
        for src, _dst, weights in engine._weighted_batches(weighting, False, top_first=True):
            heads = np.flatnonzero(np.concatenate(([True], src[1:] != src[:-1])))
            ends = np.append(heads[1:], len(src))
            summed = np.add.reduceat(weights, heads) / (ends - heads)
            for node, lo, hi, threshold in zip(src[heads], heads, ends, summed):
                exact = math.fsum(weights[lo:hi]) / (hi - lo)
                flipped.extend(
                    (int(node), float(weight))
                    for weight in weights[lo:hi]
                    if (weight >= threshold) != (weight >= exact)
                )
        assert flipped

    @pytest.mark.parametrize("pruning", ("WNP", "ReciprocalWNP"))
    @pytest.mark.parametrize("weighting", ("JS", "EJS"))
    def test_refined_rows_equal_the_two_pass_reference(self, weighting, pruning):
        blocks = self.blocks()
        engine = EntityIndexEngine(blocks)
        retained = {
            (e.first, e.second, e.weight.hex()) for e in engine.iter_retained(weighting, pruning)
        }
        assert engine.last_refined > 0
        frozen = fixture()[f"hand/wnp_refinement/{weighting}+{pruning}"]["rows"]
        assert retained == {tuple(row) for row in frozen}

    def test_integer_cbs_sums_are_never_refined(self):
        engine = EntityIndexEngine(self.blocks())
        engine.retained_columns("CBS", "WNP")
        assert engine.last_refined == 0


class TestWnpOnePass:
    """WNP and ReciprocalWNP open one neighbourhood generator per run:
    CBS a lower-half pass (each edge once), the float schemes a full pass
    walked top batch first."""

    @pytest.mark.parametrize("pruning", ("WNP", "ReciprocalWNP"))
    @pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
    def test_one_run_opens_one_neighbourhood_generator(
        self, small_dirty_dataset, monkeypatch, weighting, pruning
    ):
        blocks = TokenBlocking().build(small_dirty_dataset.collection)
        expected = rows(EntityIndexEngine(blocks).retained_columns(weighting, pruning))
        engine = EntityIndexEngine(blocks)
        engine.count_edges()  # the EJS degree column is its own pass, cached
        calls = []
        original = EntityIndexEngine._neighbourhoods

        def counted(self, lower, want_arcs, top_first=False):
            calls.append((lower, top_first))
            return original(self, lower, want_arcs, top_first)

        monkeypatch.setattr(EntityIndexEngine, "_neighbourhoods", counted)
        got = rows(engine.retained_columns(weighting, pruning))
        if weighting == "CBS":
            assert calls == [(True, False)]
        else:
            assert calls == [(False, True)]
        assert got == expected and got


class TestRepeatedRuns:
    """An engine outlives its runs (its sorted member copy is dropped, its
    rank, degree and factor caches are kept): a second run, after another
    scheme's run in between, retains the first run's columns row for row."""

    @pytest.fixture(scope="class")
    def blocks(self, small_dirty_dataset):
        return TokenBlocking().build(small_dirty_dataset.collection)

    @pytest.mark.parametrize("pruning", ("WEP", "CNP"))
    @pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
    def test_a_second_run_retains_the_same_columns(self, blocks, weighting, pruning):
        engine = EntityIndexEngine(blocks)
        first = rows(engine.retained_columns(weighting, pruning))
        statistics = engine.last_num_edges, engine.last_retained
        assert first
        engine.retained_columns("EJS", "CEP")
        assert rows(engine.retained_columns(weighting, pruning)) == first
        assert (engine.last_num_edges, engine.last_retained) == statistics


class TestNeighbourhoodBatchSpan:
    """Batch-relative int32 keys: a batch spans at most ``(2**31 - 1) // N``
    nodes, so a table large enough for that to bind cuts one-node batches."""

    @pytest.mark.parametrize("lower", (True, False))
    def test_one_node_batches_give_the_same_columns(self, small_dirty_dataset, monkeypatch, lower):
        blocks = TokenBlocking().build(small_dirty_dataset.collection)
        plain = EntityIndexEngine(blocks)
        padded_ids = list(plain.ids) + [f"padding-{i}" for i in range(5000)]
        padded = EntityIndexEngine(blocks, ids=padded_ids)
        # pretend int32 ends just below two rows of the padded table: span 1
        monkeypatch.setattr(entity_index, "_INT32_MAX", 2 * len(padded_ids) - 1)
        expected = list(plain._neighbourhoods(lower, True))
        batches = list(padded._neighbourhoods(lower, True))
        assert len(expected) < len(batches)
        assert all(src[0] == src[-1] for src, *_ in batches)
        for column in range(4):
            assert np.array_equal(
                np.concatenate([batch[column] for batch in expected]),
                np.concatenate([batch[column] for batch in batches]),
            )


def context_blocks(data) -> BlockCollection:
    """Cleaned blocks built over a shared context: they speak its ordinals."""
    engine = BlockingEngine(context=PipelineContext(data))
    return engine.run(data, BlockPurging(), BlockFiltering(0.8))


KERNEL_INPUTS = [
    *(f"{kind}-{seed}" for kind in sorted(RANDOM_COLLECTIONS) for seed in (1, 2, 3)),
    "context-dirty",
    "context-clean-clean",
]


@pytest.fixture(params=KERNEL_INPUTS)
def kernel_columns(request, small_dirty_dataset, small_clean_clean_dataset) -> BlockColumns:
    name = request.param
    if name == "context-dirty":
        return BlockColumns.from_collection(context_blocks(small_dirty_dataset.collection))
    if name == "context-clean-clean":
        return BlockColumns.from_collection(context_blocks(small_clean_clean_dataset.task))
    kind, seed = name.rsplit("-", 1)
    columns = BlockColumns.from_collection(RANDOM_COLLECTIONS[kind](int(seed)))
    # first-seen ordinals: past the first block, members come in sample order
    members, ptr = np.asarray(columns.members), np.asarray(columns.blk_ptr)
    assert any((np.diff(members[a:b]) < 0).any() for a, b in zip(ptr, ptr[1:]))
    return columns


def neighbourhood_rows(engine, lower: bool):
    """The concatenated ``(src, dst, counts, arcs)`` columns of one whole-range pass."""
    batches = list(engine._neighbourhoods(lower, True))
    return [np.concatenate([batch[column] for batch in batches]) for column in range(4)]


class TestNeighbourhoodKernel:
    """A lower-half pass gathers only the facing members above each node:
    it must yield exactly the rows of the full pass with ``dst > src``."""

    def test_lower_rows_are_the_upper_triangle_of_the_full_rows(self, kernel_columns):
        engine = EntityIndexEngine.from_columns(kernel_columns)
        src, dst, counts, arcs = neighbourhood_rows(engine, lower=False)
        above = dst > src
        lower = neighbourhood_rows(engine, lower=True)
        assert above.any() and len(lower[0]) == int(above.sum())
        for column, full in zip(lower[:3], (src, dst, counts)):
            assert np.array_equal(column, full[above])
        assert lower[3].tobytes() == arcs[above].tobytes()

    def test_lower_rows_equal_a_block_by_block_count(self, kernel_columns):
        """Counts and ARCS sums, the latter added in ascending block order."""
        engine = EntityIndexEngine.from_columns(kernel_columns)
        members, ptr = list(kernel_columns.members), list(kernel_columns.blk_ptr)
        expected = {}
        for block, split in enumerate(kernel_columns.split):
            inside = members[ptr[block] : ptr[block + 1]]
            if split < 0:
                pairs = [(a, b) for i, a in enumerate(inside) for b in inside[i + 1 :]]
            else:
                pairs = [(a, b) for a in inside[:split] for b in inside[split:]]
            for a, b in pairs:
                count, arcs = expected.get((min(a, b), max(a, b)), (0, 0.0))
                expected[min(a, b), max(a, b)] = count + 1, arcs + engine._recip[block]
        src, dst, counts, arcs = neighbourhood_rows(engine, lower=True)
        assert dict(zip(zip(src.tolist(), dst.tolist()), zip(counts.tolist(), arcs.tolist()))) == expected

    @pytest.mark.parametrize("lower", (True, False))
    def test_a_pass_after_a_pruning_run_yields_the_same_rows(self, kernel_columns, lower):
        # a pruning run drops the sorted member copy and the next pass
        # rebuilds it; a top-first pass yields the same batches reversed
        engine = EntityIndexEngine.from_columns(kernel_columns)
        before = neighbourhood_rows(engine, lower)
        engine.retained_columns("JS", "CNP")
        assert engine._sorted_cache is None
        for ours, again in zip(before, neighbourhood_rows(engine, lower)):
            assert ours.tobytes() == again.tobytes()
        top = list(engine._neighbourhoods(lower, True, top_first=True))
        for column, ours in enumerate(before):
            again = np.concatenate([batch[column] for batch in reversed(top)])
            assert ours.tobytes() == again.tobytes()

    @pytest.mark.parametrize("weighting", ("CBS", "ARCS"))
    def test_a_wnp_run_leaves_the_member_column_as_it_was(self, kernel_columns, weighting):
        before = np.asarray(kernel_columns.members).tobytes()
        engine = EntityIndexEngine.from_columns(kernel_columns)
        assert len(engine.retained_columns(weighting, "WNP")[0])
        assert np.asarray(kernel_columns.members).tobytes() == before
