"""Property-based tests on cross-cutting invariants of the library."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.base import Block, BlockCollection
from repro.blocking.cleaning import BlockFiltering, BlockPurging, ComparisonPropagation
from repro.blocking.token_blocking import TokenBlocking
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription, merge_descriptions
from repro.datamodel.ground_truth import GroundTruth
from repro.evaluation.curves import ProgressiveRecallCurve
from repro.evaluation.metrics import evaluate_comparisons
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.pruning import PRUNING_SCHEMES
from repro.metablocking.weighting import WEIGHTING_SCHEMES
from repro.text.tokenize import token_set


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
identifiers = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@st.composite
def block_collections(draw):
    """Random small block collections over a bounded identifier universe."""
    universe = [f"e{i}" for i in range(draw(st.integers(min_value=3, max_value=10)))]
    num_blocks = draw(st.integers(min_value=1, max_value=8))
    blocks = []
    for index in range(num_blocks):
        members = draw(
            st.lists(st.sampled_from(universe), min_size=2, max_size=len(universe), unique=True)
        )
        blocks.append(Block(f"b{index}", members=members))
    return BlockCollection(blocks)


@st.composite
def descriptions(draw):
    identifier = draw(st.uuids()).hex[:8]
    attributes = draw(
        st.dictionaries(
            st.sampled_from(["name", "city", "topic", "year"]),
            st.text(alphabet="abcdef ", min_size=1, max_size=20),
            min_size=1,
            max_size=4,
        )
    )
    return EntityDescription(identifier, attributes)


# ----------------------------------------------------------------------
# blocking invariants
# ----------------------------------------------------------------------
@given(block_collections())
@settings(max_examples=50, deadline=None)
def test_cleaning_never_adds_comparisons(blocks):
    purged = BlockPurging().process(blocks)
    filtered = BlockFiltering(0.5).process(blocks)
    propagated = ComparisonPropagation().process(blocks)
    assert purged.distinct_pairs() <= blocks.distinct_pairs()
    assert filtered.distinct_pairs() <= blocks.distinct_pairs()
    assert propagated.distinct_pairs() == blocks.distinct_pairs()
    assert propagated.total_comparisons() == blocks.num_distinct_comparisons()


def all_edges(engine, weighting="CBS"):
    """Every edge of the blocking graph: CEP with a budget that keeps them all."""
    return engine.iter_retained(weighting, "CEP", budget=engine.count_edges())


@given(block_collections())
@settings(max_examples=50, deadline=None)
def test_blocking_graph_edges_equal_distinct_pairs(blocks):
    engine = EntityIndexEngine(blocks)
    assert engine.count_edges() == blocks.num_distinct_comparisons()
    assert {edge.pair for edge in all_edges(engine)} == blocks.distinct_pairs()


@given(block_collections())
@settings(max_examples=40, deadline=None)
def test_weighting_schemes_are_positive_on_edges(blocks):
    engine = EntityIndexEngine(blocks)
    for weighting in WEIGHTING_SCHEMES:
        assert all(edge.weight > 0.0 for edge in all_edges(engine, weighting))


@given(block_collections())
@settings(max_examples=40, deadline=None)
def test_pruning_output_is_subset_of_edges(blocks):
    engine = EntityIndexEngine(blocks)
    edges = {edge.pair for edge in all_edges(engine)}
    for pruning in PRUNING_SCHEMES:
        retained = {edge.pair for edge in engine.iter_retained("CBS", pruning)}
        assert retained <= edges


@st.composite
def flat_pair_collections(draw):
    """Small dirty, clean-clean or mixed collections, with two adjacent flat nodes.

    ``(blocks, pair)``: the last block holds the ``pair``, ``f0`` and ``f1``,
    which sit in no other block: every neighbour of theirs shares exactly one
    block with them, so both are flat (threshold 1), and they face each other.
    Clean-clean collections keep the sides' identifiers apart (prefixes ``L``
    and ``R``, so the pair is ``Lf0`` and ``Rf1``).
    """
    kind = draw(st.sampled_from(("dirty", "clean-clean", "mixed")))
    universe = [f"e{i}" for i in range(draw(st.integers(min_value=3, max_value=9)))]

    def block(key, members, bilateral, split):
        if not bilateral:
            return Block(key, members=members)
        left, right = members[:split], members[split:]
        if kind == "clean-clean":
            left, right = ["L" + m for m in left], ["R" + m for m in right]
        return Block(key, left_members=left, right_members=right)

    blocks = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        members = draw(
            st.lists(st.sampled_from(universe), min_size=2, max_size=len(universe), unique=True)
        )
        bilateral = kind == "clean-clean" or (kind == "mixed" and draw(st.booleans()))
        split = draw(st.integers(min_value=1, max_value=len(members) - 1))
        blocks.append(block(f"b{index}", members, bilateral, split))
    extra = draw(st.lists(st.sampled_from(universe), max_size=4, unique=True))
    bilateral = kind == "clean-clean" or (kind == "mixed" and draw(st.booleans()))
    flat = ["f0", *extra[: len(extra) // 2], "f1", *extra[len(extra) // 2 :]]
    last = block("flat", flat, bilateral, 1 + len(extra) // 2)
    pair = (last.left_members[0], last.right_members[0]) if bilateral else ("f0", "f1")
    return BlockCollection([*blocks, last]), pair


def brute_force_cbs_wnp(blocks, reciprocal):
    """CBS WNP by its definition: pair counts from the blocks, node means, keep rule.

    ``(retained rows, flat nodes)``; a flat node's mean is 1.
    """
    counts = {}
    for block in blocks:
        for comparison in block.comparisons():
            pair = tuple(sorted(comparison.pair))
            counts[pair] = counts.get(pair, 0) + 1
    sums, degrees = {}, {}
    for pair, count in counts.items():
        for node in pair:
            sums[node] = sums.get(node, 0) + count
            degrees[node] = degrees.get(node, 0) + 1
    keeps = lambda node, count: count * degrees[node] >= sums[node]  # count >= the node's mean
    rule = all if reciprocal else any
    flat = {node for node in sums if sums[node] == degrees[node]}
    return {
        (*pair, float(count)) for pair, count in counts.items() if rule(keeps(n, count) for n in pair)
    }, flat


@given(flat_pair_collections())
@settings(max_examples=60, deadline=None)
def test_cbs_wnp_retains_what_its_definition_retains(case):
    blocks, pair = case
    engine = EntityIndexEngine(blocks)
    for reciprocal, pruning in ((False, "WNP"), (True, "ReciprocalWNP")):
        expected, flat = brute_force_cbs_wnp(blocks, reciprocal)
        assert set(pair) <= flat and (*pair, 1.0) in expected
        retained = [(e.first, e.second, e.weight) for e in engine.iter_retained("CBS", pruning)]
        assert len(retained) == len(set(retained)) and set(retained) == expected


@given(st.lists(descriptions(), min_size=2, max_size=15, unique_by=lambda d: d.identifier))
@settings(max_examples=30, deadline=None)
def test_token_blocking_pairs_share_a_token(description_list):
    collection = EntityCollection(description_list)
    builder = TokenBlocking(min_token_length=1, stop_words=None)
    blocks = builder.build(collection)
    for first, second in blocks.distinct_pairs():
        tokens_a = token_set(collection[first].values(), stop_words=None, min_length=1)
        tokens_b = token_set(collection[second].values(), stop_words=None, min_length=1)
        assert tokens_a & tokens_b


# ----------------------------------------------------------------------
# data model invariants
# ----------------------------------------------------------------------
@given(descriptions(), descriptions())
@settings(max_examples=50, deadline=None)
def test_merge_is_commutative_in_content(first, second):
    merged_ab = merge_descriptions(first, second)
    merged_ba = merge_descriptions(second, first)
    assert merged_ab.identifier == merged_ba.identifier
    assert {k: set(v) for k, v in merged_ab.attributes.items()} == {
        k: set(v) for k, v in merged_ba.attributes.items()
    }


@given(
    st.lists(
        st.lists(identifiers, min_size=1, max_size=4, unique=True), min_size=1, max_size=6
    )
)
@settings(max_examples=50, deadline=None)
def test_ground_truth_matching_pairs_are_symmetric_and_transitive(clusters):
    truth = GroundTruth(clusters)
    pairs = truth.matching_pairs()
    for first, second in pairs:
        assert truth.are_matches(first, second)
        assert truth.are_matches(second, first)
    # transitivity: matches of matches are matches
    for a, b in pairs:
        for c, d in pairs:
            if b == c:
                assert truth.are_matches(a, d)


# ----------------------------------------------------------------------
# evaluation invariants
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(identifiers, identifiers).filter(lambda p: p[0] != p[1]),
        min_size=0,
        max_size=20,
    ),
    st.lists(
        st.lists(identifiers, min_size=2, max_size=3, unique=True), min_size=1, max_size=5
    ),
)
@settings(max_examples=50, deadline=None)
def test_blocking_quality_bounds(candidate_pairs, clusters):
    truth = GroundTruth(clusters)
    quality = evaluate_comparisons(candidate_pairs, truth, 10_000)
    assert 0.0 <= quality.pair_completeness <= 1.0
    assert 0.0 <= quality.pairs_quality <= 1.0
    assert 0.0 <= quality.reduction_ratio <= 1.0
    assert quality.num_detected_matches <= quality.num_total_matches


@given(st.lists(st.booleans(), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_progressive_recall_curve_is_monotone(outcomes):
    truth = GroundTruth([["a", "b"], ["c", "d"], ["e", "f"]])
    curve = ProgressiveRecallCurve(truth)
    previous_recall = 0.0
    for outcome in outcomes:
        curve.record(is_match=outcome)
        recall = curve.final_recall()
        assert recall >= previous_recall
        previous_recall = recall
    assert 0.0 <= curve.auc() <= 1.0
