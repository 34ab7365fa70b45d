"""Property-based tests on progressive schedulers.

Invariants every scheduler must satisfy regardless of the data:

* it never emits a pair that is not in the candidate set (when restricted to
  candidates) and never emits the same pair twice;
* feeding back arbitrary decisions never breaks those guarantees;
* the weight-ordered scheduler emits weights in non-increasing order, the
  pairs without a weight last;
* the order-based schedulers emit every distinct pair once, with the weight
  of its first occurrence (``None`` stays ``None``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison
from repro.matching.matchers import MatchDecision
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.progressive.psnm import ProgressiveBlockScheduler, ProgressiveSortedNeighborhood
from repro.progressive.scheduler import CostBenefitScheduler
from repro.progressive.schedulers import RandomOrderScheduler, WeightOrderScheduler
from repro.progressive.sorted_list import SortedListScheduler


@st.composite
def small_er_input(draw):
    """A small collection plus a candidate comparison list over it (pairs may
    repeat, in either orientation; a weight may be missing)."""
    size = draw(st.integers(min_value=2, max_value=8))
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    descriptions = []
    for index in range(size):
        tokens = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3, unique=True))
        descriptions.append(EntityDescription(f"e{index}", {"name": " ".join(tokens)}))
    collection = EntityCollection(descriptions)
    identifiers = list(collection.identifiers)
    pair_indices = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=size - 1),
                st.integers(min_value=0, max_value=size - 1),
            ).filter(lambda p: p[0] != p[1]),
            min_size=0,
            max_size=12,
        )
    )
    weights = draw(
        st.lists(
            st.none() | st.floats(min_value=0.0, max_value=1.0),
            min_size=len(pair_indices),
            max_size=len(pair_indices),
        )
    )
    candidates = [
        Comparison(identifiers[i], identifiers[j], weight=w)
        for (i, j), w in zip(pair_indices, weights)
    ]
    return collection, candidates


ALL_SCHEDULERS = [
    lambda: RandomOrderScheduler(seed=1),
    lambda: WeightOrderScheduler(),
    lambda: SortedListScheduler(restrict_to_candidates=True),
    lambda: PartitionHierarchyScheduler(restrict_to_candidates=True),
    lambda: ProgressiveSortedNeighborhood(restrict_to_candidates=True),
    lambda: ProgressiveBlockScheduler(),
    lambda: CostBenefitScheduler(window_size=3),
]


@given(small_er_input())
@settings(max_examples=40, deadline=None)
def test_schedulers_emit_unique_candidate_pairs(er_input):
    collection, candidates = er_input
    candidate_pairs = {c.pair for c in candidates}
    for factory in ALL_SCHEDULERS:
        scheduler = factory()
        emitted = []
        for comparison in scheduler.schedule(collection, candidates):
            emitted.append(comparison.pair)
            # arbitrary feedback must not break the iteration
            scheduler.feedback(
                MatchDecision(comparison, similarity=0.5, is_match=len(emitted) % 2 == 0)
            )
        assert len(emitted) == len(set(emitted)), factory
        assert set(emitted) <= candidate_pairs, factory


@given(small_er_input())
@settings(max_examples=40, deadline=None)
def test_weight_order_is_non_increasing(er_input):
    collection, candidates = er_input
    ordered = list(WeightOrderScheduler().schedule(collection, candidates))
    weighted = [c.weight for c in ordered if c.weight is not None]
    assert [c.weight for c in ordered[: len(weighted)]] == weighted  # None last
    assert all(a >= b for a, b in zip(weighted, weighted[1:]))


@given(small_er_input())
@settings(max_examples=40, deadline=None)
def test_each_pair_is_emitted_once_with_its_first_weight(er_input):
    collection, candidates = er_input
    first_weight = {}
    for comparison in candidates:
        first_weight.setdefault(comparison.pair, comparison.weight)
    for scheduler in (WeightOrderScheduler(), RandomOrderScheduler(seed=3)):
        emitted = list(scheduler.schedule(collection, candidates))
        assert sorted(c.pair for c in emitted) == sorted(first_weight)
        for comparison in emitted:
            expected = first_weight[comparison.pair]
            if expected is None:
                assert comparison.weight is None
            else:
                assert comparison.weight == expected


@given(small_er_input())
@settings(max_examples=30, deadline=None)
def test_random_order_is_a_permutation_of_candidates(er_input):
    collection, candidates = er_input
    distinct = {c.pair for c in candidates}
    emitted = [c.pair for c in RandomOrderScheduler(seed=7).schedule(collection, candidates)]
    assert sorted(emitted) == sorted(distinct)
