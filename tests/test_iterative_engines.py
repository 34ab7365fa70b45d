"""Frozen fixtures for the iterative resolvers.

The four resolvers of :mod:`repro.iterative` -- R-Swoosh, the naive
pairwise fixpoint, collective ER and the attribute-only baseline -- each
have one body.  ``tests/fixtures/iterative/*.json`` freezes every observable
output -- resolution order, comparison counts, merges, matches, cluster
lists, rescue/requeue statistics, budget cutoffs -- on seeded inputs, as the
per-pair reference produced it.  The merging resolvers ask ``matcher.match``
one pair at a time for every matcher.  The relationship-based ones score
their initial pairs in one batched ``similarity_scores`` call for the exact
``ProfileSimilarityMatcher`` and with ``matcher.similarity`` per pair for
any other, so both the exact matcher and ``ReadableMatcher`` (a trivial
subclass) must reproduce their fixture.  Regenerating the fixtures (only
when the resolvers' semantics change on purpose): run this module as a
script::

    PYTHONPATH=src python tests/test_iterative_engines.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest
from conftest import ReadableMatcher

import repro.iterative
from repro.blocking.token_blocking import TokenBlocking
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datasets import DatasetConfig, generate_bibliographic_dataset, generate_dirty_dataset
from repro.iterative import AttributeOnlyER, CollectiveER, NaivePairwiseER, RSwoosh
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.matching.oracle import OracleMatcher

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "iterative"

#: the exact library matcher (batched initial scoring in the collective
#: resolvers) and a subclass (per pair)
MATCHERS = {"exact": ProfileSimilarityMatcher, "readable": ReadableMatcher}


@functools.lru_cache(maxsize=None)
def _dataset(name: str):
    if name == "dirty":
        return generate_dirty_dataset(
            DatasetConfig(num_entities=50, duplicates_per_entity=1.5, seed=7)
        )
    if name == "small":
        return generate_dirty_dataset(
            DatasetConfig(num_entities=20, duplicates_per_entity=1.5, seed=11)
        )
    return generate_bibliographic_dataset(
        num_authors=10, num_publications=20, duplicates_per_publication=1.0, seed=17
    )


def relational_collection():
    return EntityCollection(
        [
            EntityDescription(
                "p1", {"title": "entity resolution on big data"}, relationships={"author": ["a1"]}
            ),
            EntityDescription(
                "p2", {"title": "entity resolution for big data"}, relationships={"author": ["a2"]}
            ),
            EntityDescription(
                "p3", {"title": "quantum chromodynamics on lattices"}, relationships={"author": ["a3"]}
            ),
            EntityDescription("a1", {"name": "j smith", "affiliation": "mit"}),
            EntityDescription("a2", {"name": "j smith", "office": "cambridge ma"}),
            EntityDescription("a3", {"name": "j smith"}),
        ]
    )


def _collection(name: str) -> EntityCollection:
    if name == "relational":
        return relational_collection()
    return _dataset(name).collection


# ----------------------------------------------------------------------
# the cases: fixture key -> resolver, input and keyword arguments
# ----------------------------------------------------------------------

SWOOSH_CASES = {
    **{f"r_swoosh/dirty/{budget}": (RSwoosh, "dirty", budget) for budget in (None, 0, 1, 17, 200, 10**9)},
    **{
        f"naive_pairwise/small/{budget}": (NaivePairwiseER, "small", budget)
        for budget in (None, 0, 1, 17, 300)
    },
}

#: a ground-truth oracle that drops a fifth of the true matches: its noise
#: stream advances once per call, so the output pins which pairs were asked
NOISY_ORACLE = {"false_negative_rate": 0.2, "seed": 5}

COLLECTIVE_CASES = {
    **{
        f"{cls.name}/dirty_blocks/{budget}": (cls, "dirty", True, {"budget": budget})
        for cls in (CollectiveER, AttributeOnlyER)
        for budget in (None, 0, 5, 100, 10**9)
    },
    **{
        f"{cls.name}/small_default": (cls, "small", False, {})
        for cls in (CollectiveER, AttributeOnlyER)
    },
    **{
        f"collective_er/relational/{combination}": (
            CollectiveER,
            "relational",
            False,
            {
                "match_threshold": 0.6,
                "relationship_weight": 0.5,
                "candidate_threshold": 0.0,
                "combination": combination,
            },
        )
        for combination in ("boost", "weighted")
    },
    "collective_er/bibliographic": (
        CollectiveER,
        "bibliographic",
        False,
        {"match_threshold": 0.65, "relationship_weight": 0.4, "candidate_threshold": 0.05},
    ),
}


def _swoosh_record(result) -> dict:
    return {
        "resolved": [description.identifier for description in result.resolved],
        "comparisons": result.comparisons_executed,
        "merges": result.merges,
        "clusters": [sorted(cluster) for cluster in result.clusters],
    }


def _run_swoosh(case: str, matcher_type) -> dict:
    cls, dataset, budget = SWOOSH_CASES[case]
    result = cls(matcher_type(threshold=0.55), budget=budget).resolve(_collection(dataset))
    return _swoosh_record(result)


def _run_noisy_oracle(cls) -> dict:
    dataset = _dataset("small")
    matcher = OracleMatcher(dataset.ground_truth, **NOISY_ORACLE)
    record = _swoosh_record(cls(matcher).resolve(dataset.collection))
    record["calls"] = matcher.calls
    return record


def _run_collective(case: str, matcher_type) -> dict:
    cls, dataset, blocked, kwargs = COLLECTIVE_CASES[case]
    collection = _collection(dataset)
    candidates = TokenBlocking().build(collection) if blocked else None
    resolver = cls(attribute_matcher=matcher_type(threshold=1.0), **kwargs)
    result = resolver.resolve(collection, candidates)
    return {
        "matches": [list(pair) for pair in result.matches],
        "comparisons": result.comparisons_executed,
        "relational_rescues": result.relational_rescues,
        "requeue_events": result.requeue_events,
        "clusters": [sorted(cluster) for cluster in result.clusters],
    }


def _freeze_fixtures() -> None:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    swoosh = {case: _run_swoosh(case, ReadableMatcher) for case in SWOOSH_CASES}
    for cls in (RSwoosh, NaivePairwiseER):
        swoosh[f"{cls.name}/noisy_oracle"] = _run_noisy_oracle(cls)
    collective = {case: _run_collective(case, ReadableMatcher) for case in COLLECTIVE_CASES}
    for name, fixture in (("swoosh", swoosh), ("collective", collective)):
        path = FIXTURES_DIR / f"{name}.json"
        path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"froze {len(fixture)} cases to {path}")


@functools.lru_cache(maxsize=None)
def _fixture(name: str) -> dict:
    return json.loads((FIXTURES_DIR / f"{name}.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# merging-based resolvers
# ----------------------------------------------------------------------


class TestMergingResolvers:
    @pytest.mark.parametrize("case", sorted(SWOOSH_CASES))
    def test_reproduces_the_fixture(self, case):
        assert _run_swoosh(case, ProfileSimilarityMatcher) == _fixture("swoosh")[case]

    @pytest.mark.parametrize("cls", (RSwoosh, NaivePairwiseER))
    def test_noisy_oracle_reproduces_the_fixture(self, cls):
        expected = _fixture("swoosh")[f"{cls.name}/noisy_oracle"]
        assert _run_noisy_oracle(cls) == expected
        assert expected["calls"] == expected["comparisons"]

    @pytest.mark.parametrize("budget", (None, 0, 1, 17))
    @pytest.mark.parametrize("cls", (RSwoosh, NaivePairwiseER))
    def test_per_pair_scoring_is_lazy(self, cls, budget):
        """A per-pair matcher is asked exactly the pairs the loop counts."""
        dataset = _dataset("small")
        matcher = OracleMatcher(dataset.ground_truth)
        result = cls(matcher, budget=budget).resolve(dataset.collection)
        assert matcher.calls == result.comparisons_executed

    @pytest.mark.parametrize("cls", (RSwoosh, NaivePairwiseER))
    def test_empty_and_single_collections(self, cls):
        resolver = cls(ProfileSimilarityMatcher(threshold=0.55))
        empty = resolver.resolve(EntityCollection(name="empty"))
        assert (empty.resolved, empty.comparisons_executed, empty.merges) == ([], 0, 0)
        single = resolver.resolve(
            EntityCollection([EntityDescription("only", {"name": "alan"})])
        )
        assert [d.identifier for d in single.resolved] == ["only"]
        assert (single.comparisons_executed, single.merges) == (0, 0)

    @pytest.mark.parametrize("cls", (RSwoosh, NaivePairwiseER))
    def test_unknown_engine_rejected(self, cls):
        # the matcher's type is the only selector: there is no engine knob
        with pytest.raises(TypeError):
            cls(ProfileSimilarityMatcher(threshold=0.5), engine="turbo")

    def test_engine_names_exported(self):
        assert not [name for name in repro.iterative.__all__ if name.endswith("_ENGINES")]


# ----------------------------------------------------------------------
# relationship-based resolvers
# ----------------------------------------------------------------------


class TestCollectiveResolvers:
    @pytest.mark.parametrize("path", sorted(MATCHERS))
    @pytest.mark.parametrize("case", sorted(COLLECTIVE_CASES))
    def test_reproduces_the_fixture(self, case, path):
        assert _run_collective(case, MATCHERS[path]) == _fixture("collective")[case]

    def test_fixture_exercises_relational_evidence(self):
        fixture = _fixture("collective")
        boost = fixture["collective_er/relational/boost"]
        assert boost["relational_rescues"] >= 1 and boost["requeue_events"] >= 1
        assert fixture["collective_er/bibliographic"]["requeue_events"] > 0

    @pytest.mark.parametrize("path", sorted(MATCHERS))
    @pytest.mark.parametrize("cls", (CollectiveER, AttributeOnlyER))
    def test_empty_collection(self, cls, path):
        resolver = cls(attribute_matcher=MATCHERS[path](threshold=1.0))
        result = resolver.resolve(EntityCollection(name="empty"))
        assert result.matches == [] and result.clusters == []
        assert result.comparisons_executed == 0

    @pytest.mark.parametrize("cls", (CollectiveER, AttributeOnlyER))
    def test_unknown_engine_rejected(self, cls):
        with pytest.raises(TypeError):
            cls(engine="turbo")


@pytest.mark.parametrize("budget", (-1, True, 2.5, "3"))
@pytest.mark.parametrize("cls", (RSwoosh, NaivePairwiseER, CollectiveER, AttributeOnlyER))
def test_invalid_budget_rejected_on_construction(cls, budget):
    matcher = ProfileSimilarityMatcher(threshold=0.55)
    with pytest.raises(ValueError, match="budget"):
        if cls in (RSwoosh, NaivePairwiseER):
            cls(matcher, budget=budget)
        else:
            cls(attribute_matcher=matcher, budget=budget)


if __name__ == "__main__":
    _freeze_fixtures()
