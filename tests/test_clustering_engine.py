"""Clustering fixtures, tie-breaking and the clustering stage engine.

Each library algorithm of :mod:`repro.matching.clustering` has one body over
the ordinal columns of a :class:`~repro.datamodel.pairs.DecisionColumns`;
:class:`~repro.matching.cluster_engine.ClusteringEngine` adds only the
pooled connected-components path.  ``tests/fixtures/clustering/seeded.json``
freezes the clusters of the seeded decision logs below, and
``census.json`` / ``restaurants.json`` those of the builtin datasets at two
thresholds, as the string-keyed reference formulation produced them.  The
library algorithms must reproduce them exactly: same frozensets, same list
order, same behaviour at equal-similarity ties.  Regenerating the fixtures (only when the clustering
semantics change on purpose): run this module as a script::

    PYTHONPATH=src python tests/test_clustering_engine.py
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import pytest
from repro.datamodel.pairs import Comparison, DecisionColumns
from repro.matching.cluster_engine import ClusteringEngine
from repro.matching.clustering import (
    CenterClustering,
    ConnectedComponentsClustering,
    MergeCenterClustering,
)
from repro.matching.matchers import MatchDecision, ProfileSimilarityMatcher

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "clustering"

ALGORITHMS = {
    "connected_components": ConnectedComponentsClustering,
    "center": CenterClustering,
    "merge_center": MergeCenterClustering,
}


def _clusters(algorithm, decisions):
    """Cluster ``decisions`` through the stage engine."""
    engine = ClusteringEngine(algorithm)
    clusters = engine.cluster(decisions)
    assert engine.last_engine == "array"
    return clusters


def decision(first, second, similarity=1.0, is_match=True):
    return MatchDecision(
        Comparison(first, second), similarity=similarity, is_match=is_match
    )


def _seeded_decisions(seed: int, kind: str, variant: str):
    """A reproducible decision log of the given shape.

    ``kind`` controls the identifier structure (dirty: one namespace;
    clean_clean: two source prefixes, as clean--clean matching emits);
    ``variant`` stresses a specific regime: quantised similarities full of
    ties, a dense match graph, mostly negatives, or degenerate logs.
    """
    rng = random.Random(seed)
    if variant == "empty":
        return []
    if variant == "singleton":
        return [decision("solo:a", "solo:b", 0.75)]
    if kind == "dirty":
        universe = [f"d{i}" for i in range(40)]
        pair = lambda: rng.sample(universe, 2)
    else:
        left = [f"a{i}" for i in range(25)]
        right = [f"b{i}" for i in range(25)]
        pair = lambda: (rng.choice(left), rng.choice(right))
    decisions = []
    for _ in range(160):
        first, second = pair()
        if first == second:
            continue
        if variant == "ties":
            # a five-step similarity grid: most edges tie with many others
            similarity = rng.randrange(1, 6) / 5.0
        else:
            similarity = rng.random()
        is_match = rng.random() < (0.7 if variant == "dense" else 0.35)
        decisions.append(decision(first, second, similarity, is_match))
    return decisions


def _cluster_lists(clusters):
    """Serialise preserving both membership and cluster order."""
    return [sorted(cluster) for cluster in clusters]


SEEDS = (3, 11, 27)
KINDS = ("dirty", "clean_clean")
VARIANTS = ("plain", "ties", "dense", "empty", "singleton")


def _seeded_key(algorithm: str, kind: str, variant: str, seed: int) -> str:
    return f"{algorithm}/{kind}/{variant}/{seed}"


class TestSeededFixture:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_reproduces_the_fixture(self, kind, variant, algorithm):
        """Identical clusters -- content *and* list order -- for columns
        and for decision objects (interned into columns first)."""
        fixture = _fixture("seeded")
        for seed in SEEDS:
            decisions = _seeded_decisions(seed, kind, variant)
            expected = fixture[_seeded_key(algorithm, kind, variant, seed)]
            columns = DecisionColumns.from_decisions(decisions)
            assert _cluster_lists(_clusters(ALGORITHMS[algorithm](), columns)) == expected
            assert _cluster_lists(_clusters(ALGORITHMS[algorithm](), decisions)) == expected
            assert _cluster_lists(ALGORITHMS[algorithm]().cluster(decisions)) == expected

    def test_fixture_covers_every_log(self):
        expected = {
            _seeded_key(algorithm, kind, variant, seed)
            for algorithm in ALGORITHMS
            for kind in KINDS
            for variant in VARIANTS
            for seed in SEEDS
        }
        assert set(_fixture("seeded")) == expected


class TestTieBreaking:
    """Equal-similarity edges are scanned in canonical identifier-pair order
    -- the ``ComparisonColumns.weight_sorted`` rule -- on both paths."""

    TIED = [
        # all similarities equal: the scan order is purely the pair order
        decision("c", "d", 0.8),
        decision("a", "b", 0.8),
        decision("b", "c", 0.8),
    ]

    def test_center_processes_tied_edges_in_pair_order(self):
        # order (a,b), (b,c), (c,d): a centers b; b is no center, so c starts
        # its own cluster; then (c,d) attaches d to center c
        columns = DecisionColumns.from_decisions(self.TIED)
        clusters = _clusters(CenterClustering(), columns)
        assert clusters == [frozenset({"a", "b"}), frozenset({"c", "d"})]

    def test_merge_center_processes_tied_edges_in_pair_order(self):
        # order (a,b), (b,c), (c,d): a centers b; (b,c) attaches c to a's
        # cluster; (c,d) attaches d as well -- one cluster, deterministically
        columns = DecisionColumns.from_decisions(self.TIED)
        clusters = _clusters(MergeCenterClustering(), columns)
        assert clusters == [frozenset({"a", "b", "c", "d"})]

    def test_heavier_edge_beats_pair_order(self):
        decisions = [
            decision("b", "c", 0.9),  # heaviest first: b centers c...
            decision("a", "c", 0.8),
        ]
        columns = DecisionColumns.from_decisions(decisions)
        clusters = _clusters(CenterClustering(), columns)
        # ...so a arrives at assigned non-center c and centers itself;
        # under pair order (a,c) first, a would instead have centered c
        assert clusters == [frozenset({"b", "c"}), frozenset({"a"})]


class TestEngineDispatch:
    def test_overriding_subclass_runs_its_own_cluster(self):
        class LoudCenter(CenterClustering):
            def cluster(self, decisions):
                return [frozenset({"overridden"})]

        engine = ClusteringEngine(LoudCenter())
        clusters = engine.cluster(DecisionColumns.from_decisions([decision("a", "b")]))
        assert clusters == [frozenset({"overridden"})]

    def test_custom_algorithm_receives_lazy_decisions(self):
        from repro.matching.clustering import ClusteringAlgorithm

        seen = []

        class Recorder(ClusteringAlgorithm):
            def cluster(self, decisions):
                seen.extend(decisions)
                return []

        original = [decision("a", "b", 0.5), decision("b", "c", 0.25, is_match=False)]
        ClusteringEngine(Recorder()).cluster(DecisionColumns.from_decisions(original))
        assert seen == original


# ----------------------------------------------------------------------
# golden fixtures
# ----------------------------------------------------------------------

def _builtin_datasets():
    from repro.datasets.builtin import load_census, load_restaurants

    return {"restaurants": load_restaurants(), "census": load_census()}


THRESHOLDS = {"strict": 0.5, "permissive": 0.25}


def _dataset_decisions(dataset, threshold):
    """Deterministic decision log: token blocking + jaccard profile matcher."""
    from repro.blocking.token_blocking import TokenBlocking

    blocks = TokenBlocking().build(dataset.collection)
    comparisons = list(blocks.distinct_comparisons())
    matcher = ProfileSimilarityMatcher(threshold=threshold)
    return matcher.decide_all(comparisons, dataset.collection)


def _freeze_fixtures() -> None:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    fixtures = {"seeded": {}}
    for algorithm_name, algorithm in ALGORITHMS.items():
        for kind in KINDS:
            for variant in VARIANTS:
                for seed in SEEDS:
                    decisions = _seeded_decisions(seed, kind, variant)
                    key = _seeded_key(algorithm_name, kind, variant, seed)
                    fixtures["seeded"][key] = _cluster_lists(algorithm().cluster(decisions))
    for dataset_name, dataset in _builtin_datasets().items():
        fixture = fixtures[dataset_name] = {"combos": []}
        for threshold_name, threshold in THRESHOLDS.items():
            decisions = _dataset_decisions(dataset, threshold)
            for algorithm_name, algorithm in ALGORITHMS.items():
                combo = f"{algorithm_name}+{threshold_name}"
                fixture["combos"].append(combo)
                fixture[combo] = _cluster_lists(algorithm().cluster(decisions))
    for name, fixture in fixtures.items():
        path = FIXTURES_DIR / f"{name}.json"
        path.write_text(
            json.dumps(fixture, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"froze {len(fixture)} entries to {path}")


@functools.lru_cache(maxsize=None)
def _fixture(name: str) -> dict:
    path = FIXTURES_DIR / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dataset_name", ["restaurants", "census"])
def test_fixture_covers_all_combos(dataset_name):
    fixture = _fixture(dataset_name)
    expected = {f"{a}+{t}" for a in ALGORITHMS for t in THRESHOLDS}
    assert set(fixture["combos"]) == expected


@pytest.mark.parametrize("dataset_name", ["restaurants", "census"])
def test_engines_reproduce_golden_clusters(dataset_name):
    dataset = _builtin_datasets()[dataset_name]
    fixture = _fixture(dataset_name)
    for threshold_name, threshold in THRESHOLDS.items():
        decisions = _dataset_decisions(dataset, threshold)
        columns = DecisionColumns.from_decisions(decisions)
        for algorithm_name, algorithm in ALGORITHMS.items():
            clusters = _clusters(algorithm(), columns)
            assert (
                _cluster_lists(clusters) == fixture[f"{algorithm_name}+{threshold_name}"]
            ), f"{dataset_name}/{algorithm_name}+{threshold_name} diverged"


class TestExecutionOrientation:
    """Columns may store rows in execution orientation (the runner's
    keep_decisions drain); every algorithm canonicalises them exactly like
    ``decision.pair`` does."""

    def _reversed_columns(self, decisions):
        """Columns with every row deliberately in reverse-canonical order."""
        from repro.datamodel.pairs import OrdinalInterner

        intern = OrdinalInterner()
        columns = DecisionColumns(intern.ids)
        for d in decisions:
            first, second = d.pair
            columns.append(intern(second), intern(first), d.similarity, d.is_match)
        return columns

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_reversed_rows_reproduce_the_fixture(self, algorithm):
        fixture = _fixture("seeded")
        for seed in (3, 27):
            for variant in ("plain", "ties"):
                decisions = _seeded_decisions(seed, "dirty", variant)
                columns = self._reversed_columns(decisions)
                clusters = _clusters(ALGORITHMS[algorithm](), columns)
                key = _seeded_key(algorithm, "dirty", variant, seed)
                assert _cluster_lists(clusters) == fixture[key]

    def test_mixed_orientation_tie_break(self):
        """A reversed tied edge must still break ties on the canonical pair."""
        from repro.datamodel.pairs import OrdinalInterner

        intern = OrdinalInterner()
        columns = DecisionColumns(intern.ids)
        columns.append(intern("d"), intern("c"), 0.8, True)  # stored as (d, c)
        columns.append(intern("a"), intern("b"), 0.8, True)
        columns.append(intern("c"), intern("b"), 0.8, True)  # stored as (c, b)
        clusters = _clusters(CenterClustering(), columns)
        # canonical scan order (a,b), (b,c), (c,d) -- see TestTieBreaking
        assert clusters == [frozenset({"a", "b"}), frozenset({"c", "d"})]


if __name__ == "__main__":
    _freeze_fixtures()
