"""Tests for evaluation metrics, progressive recall curves and reports."""

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.ground_truth import GroundTruth
from repro.evaluation.curves import ProgressiveRecallCurve, area_under_curve
from repro.evaluation.metrics import (
    evaluate_blocks,
    evaluate_comparisons,
    evaluate_matches,
    f_measure,
)
from repro.evaluation.report import StageReport, WorkflowReport, render_table


@pytest.fixture()
def truth():
    return GroundTruth([["a", "b"], ["c", "d"], ["e", "f"]])


def test_f_measure():
    assert f_measure(0.0, 0.0) == 0.0
    assert f_measure(1.0, 1.0) == 1.0
    assert f_measure(0.5, 1.0) == pytest.approx(2 / 3)


class TestBlockingQuality:
    def test_perfect_candidates(self, truth):
        quality = evaluate_comparisons([("a", "b"), ("c", "d"), ("e", "f")], truth, 100)
        assert quality.pair_completeness == 1.0
        assert quality.pairs_quality == 1.0
        assert quality.reduction_ratio == pytest.approx(0.97)
        assert quality.f_measure == 1.0

    def test_partial_candidates(self, truth):
        quality = evaluate_comparisons([("a", "b"), ("a", "c"), ("x", "y")], truth, 10)
        assert quality.pair_completeness == pytest.approx(1 / 3)
        assert quality.pairs_quality == pytest.approx(1 / 3)
        assert quality.num_comparisons == 3

    def test_accepts_comparison_objects_and_reversed_pairs(self, truth):
        from repro.datamodel.pairs import Comparison

        quality = evaluate_comparisons([Comparison("b", "a")], truth, 10)
        assert quality.num_detected_matches == 1

    def test_empty_candidates(self, truth):
        quality = evaluate_comparisons([], truth, 10)
        assert quality.pair_completeness == 0.0
        assert quality.pairs_quality == 0.0

    def test_evaluate_blocks_uses_distinct_pairs(self, truth):
        blocks = BlockCollection(
            [Block("t1", members=["a", "b"]), Block("t2", members=["a", "b", "x"])]
        )
        collection = EntityCollection(
            [EntityDescription(i, {"name": i}) for i in ["a", "b", "x"]]
        )
        quality = evaluate_blocks(blocks, truth, collection)
        assert quality.num_comparisons == 3
        assert quality.num_detected_matches == 1

    def test_as_dict_and_str(self, truth):
        quality = evaluate_comparisons([("a", "b")], truth, 10)
        as_dict = quality.as_dict()
        assert set(as_dict) >= {"PC", "PQ", "RR", "F"}
        assert "PC=" in str(quality)


class TestMatchingQuality:
    def test_transitive_closure_of_declared_matches(self, truth):
        # declaring (a,b) and (b,c) implies (a,c) which is wrong here -> hurts precision
        quality = evaluate_matches([("a", "b"), ("b", "c")], truth)
        assert quality.num_declared == 3
        assert quality.num_correct == 1
        assert quality.precision == pytest.approx(1 / 3)
        assert quality.recall == pytest.approx(1 / 3)

    def test_merged_identifiers_expand(self, truth):
        quality = evaluate_matches([("a+b", "c")], truth)
        # expands to (a,c), (b,c) and (a,b): only (a,b) is correct
        assert quality.num_correct == 1
        assert quality.num_declared == 3

    def test_perfect_output(self, truth):
        quality = evaluate_matches([("a", "b"), ("c", "d"), ("e", "f")], truth)
        assert quality.precision == 1.0 and quality.recall == 1.0 and quality.f1 == 1.0

    def test_empty_declarations(self, truth):
        quality = evaluate_matches([], truth)
        assert quality.precision == 0.0 and quality.recall == 0.0


class TestProgressiveRecallCurve:
    def test_area_under_curve_known_values(self):
        assert area_under_curve([]) == 0.0
        assert area_under_curve([(0.0, 0.0), (1.0, 1.0)]) == pytest.approx(0.5)
        assert area_under_curve([(0.0, 1.0), (1.0, 1.0)]) == pytest.approx(1.0)
        # curve extended horizontally to x=1
        assert area_under_curve([(0.0, 0.0), (0.5, 1.0)]) == pytest.approx(0.75)

    def test_recording_and_recall_at(self, truth):
        curve = ProgressiveRecallCurve(truth, budget=6)
        for is_match in (True, False, True, False, False, True):
            curve.record(is_match=is_match)
        assert curve.num_comparisons == 6
        assert curve.final_recall() == 1.0
        assert curve.recall_at(1) == pytest.approx(1 / 3)
        assert curve.recall_at(3) == pytest.approx(2 / 3)
        assert curve.comparisons_for_recall(0.66) == 3
        assert curve.comparisons_for_recall(1.01) is None

    def test_front_loaded_curve_has_higher_auc(self, truth):
        early = ProgressiveRecallCurve(truth, budget=6)
        late = ProgressiveRecallCurve(truth, budget=6)
        for i in range(6):
            early.record(is_match=i < 3)
            late.record(is_match=i >= 3)
        assert early.auc() > late.auc()

    def test_record_many_appends_one_point_per_comparison(self, truth):
        one_by_one = ProgressiveRecallCurve(truth, budget=20)
        at_once = ProgressiveRecallCurve(truth, budget=20)
        flags = [0, 1, 0, 0, 1, 0, 1, 0]
        for chunk in (flags[:3], [], flags[3:4], flags[4:]):
            for flag in chunk:
                one_by_one.record(None, is_match=bool(flag))
            at_once.record_many(bytearray(chunk))
        assert at_once.history() == one_by_one.history()
        assert len(at_once.history()) == len(flags) + 1
        assert at_once.num_comparisons == 8 and at_once.num_matches_found == 3
        assert at_once.auc() == one_by_one.auc()

    def test_batch_recording_and_sampling(self, truth):
        curve = ProgressiveRecallCurve(truth)
        curve.record_batch(10, 2)
        curve.record_batch(10, 1)
        assert curve.num_comparisons == 20
        assert curve.final_recall() == 1.0
        sampled = curve.sampled(num_points=5)
        assert sampled[0] == (0, 0.0)
        assert sampled[-1][1] == 1.0
        with pytest.raises(ValueError):
            curve.record_batch(-1, 0)


class TestReports:
    def test_stage_report_and_rendering(self):
        report = WorkflowReport("demo")
        report.add_stage("blocking", blocks=10, comparisons=100)
        stage = report.add_stage(StageReport("matching", {"comparisons": 50}))
        stage.add("matches", 7)
        assert report.stage("blocking").get("blocks") == 10
        assert report.stage("missing") is None
        rendered = report.render()
        assert "blocking" in rendered and "matches" in rendered
        assert len(report.to_rows()) == 2
        assert "[matching]" in str(stage)
        stage.notes = "pairwise: custom matcher"
        assert str(stage).endswith("# pairwise: custom matcher")
        rows = report.render().splitlines()
        assert rows[-1].startswith("matching") and rows[-1].endswith("# pairwise: custom matcher")
        assert "#" not in rows[-2]

    def test_render_table(self):
        text = render_table(
            [{"scheme": "token", "PC": 1.0}, {"scheme": "standard", "PC": 0.5, "extra": 3}],
            title="blocking",
        )
        assert "blocking" in text
        assert "token" in text and "standard" in text
        assert render_table([], title="empty") == "empty"


class TestOrdinalFastPaths:
    """Columnar/ordinal counting must equal the tuple-set formulation."""

    def _random_case(self, seed):
        import random

        rng = random.Random(seed)
        universe = [f"e{i}" for i in range(30)]
        clusters, pool = [], universe[:]
        rng.shuffle(pool)
        while pool:
            size = rng.randint(1, 4)
            clusters.append([pool.pop() for _ in range(min(size, len(pool)))])
        truth = GroundTruth([c for c in clusters if len(c) > 1])
        pairs = []
        for _ in range(60):
            first, second = rng.sample(universe, 2)
            pairs.append((first, second))
        return truth, pairs

    def test_evaluate_comparisons_columns_equal_tuple_path(self):
        from repro.datamodel.pairs import Comparison, ComparisonColumns, OrdinalInterner
        from array import array

        for seed in (1, 7, 23):
            truth, pairs = self._random_case(seed)
            intern = OrdinalInterner()
            first = array("q")
            second = array("q")
            for a, b in pairs:
                if a > b:
                    a, b = b, a
                first.append(intern(a))
                second.append(intern(b))
            columns = ComparisonColumns(intern.ids, first, second)
            via_columns = evaluate_comparisons(columns, truth, 500)
            via_tuples = evaluate_comparisons(pairs, truth, 500)
            assert via_columns == via_tuples

    @pytest.mark.parametrize("distinct", (True, False))
    def test_count_bodies_agree(self, distinct):
        """The NumPy gather (distinct rows) and the deduplicating loop of
        ``_count_detected_columns`` give the tuple-set counts; singleton
        descriptions are unknown to the truth (cluster index -1)."""
        from repro.datamodel.pairs import ComparisonColumns, OrdinalInterner
        from repro.evaluation import metrics
        from array import array

        for seed in (1, 7, 23):
            truth, pairs = self._random_case(seed)
            canonical = [tuple(sorted(pair)) for pair in pairs]
            canonical += sorted(truth.matching_pairs())[::2]
            canonical = list(dict.fromkeys(canonical))
            if not distinct:
                canonical += canonical[::3]  # repeated rows count once
            intern = OrdinalInterner()
            first = array("q", (intern(a) for a, _b in canonical))
            second = array("q", (intern(b) for _a, b in canonical))
            columns = ComparisonColumns(intern.ids, first, second, distinct=distinct)
            expected = (len(set(canonical)), len(set(canonical) & truth.matching_pairs()))
            assert expected[1] > 0
            assert metrics._count_detected_columns(columns, truth) == expected

    def test_evaluate_comparisons_distinct_columns_skip_dedup(self):
        from repro.datamodel.pairs import ComparisonColumns, OrdinalInterner
        from array import array

        truth = GroundTruth([["a", "b"]])
        intern = OrdinalInterner()
        columns = ComparisonColumns(
            intern.ids,
            array("q", [intern("a")]),
            array("q", [intern("b")]),
            distinct=True,
        )
        quality = evaluate_comparisons(columns, truth, 10)
        assert quality.num_comparisons == 1
        assert quality.num_detected_matches == 1

    def test_evaluate_matches_decision_columns_use_positive_rows(self):
        from repro.datamodel.pairs import Comparison, DecisionColumns
        from repro.matching.matchers import MatchDecision

        truth = GroundTruth([["a", "b"], ["c", "d"]])
        decisions = [
            MatchDecision(Comparison("a", "b"), 0.9, True),
            MatchDecision(Comparison("a", "c"), 0.8, True),
            MatchDecision(Comparison("c", "d"), 0.3, False),  # negative: ignored
        ]
        columns = DecisionColumns.from_decisions(decisions)
        via_columns = evaluate_matches(columns, truth)
        via_pairs = evaluate_matches([("a", "b"), ("a", "c")], truth)
        assert via_columns == via_pairs
        assert via_columns.num_declared == 3  # closure of {a,b,c}
        assert via_columns.num_correct == 1

    def test_evaluate_matches_closure_equals_pair_set_reference(self):
        """The closed-form counts equal an explicit pair-set computation."""
        from repro.core.unionfind import UnionFind
        from repro.datamodel.pairs import canonical_pair

        for seed in (2, 9, 31):
            truth, pairs = self._random_case(seed)
            quality = evaluate_matches(pairs, truth)
            # reference: seed formulation with explicit quadratic pair sets
            links = UnionFind()
            for a, b in pairs:
                links.union(a, b)
            declared = set()
            for members in links.groups().values():
                ordered = sorted(members)
                for i, a in enumerate(ordered):
                    for b in ordered[i + 1 :]:
                        declared.add(canonical_pair(a, b))
            correct = len(declared & truth.matching_pairs())
            assert quality.num_declared == len(declared)
            assert quality.num_correct == correct
            assert quality.precision == (correct / len(declared) if declared else 0.0)
            assert quality.recall == (
                correct / len(truth.matching_pairs()) if truth.matching_pairs() else 0.0
            )

    def test_evaluate_matches_expands_merged_identifiers(self):
        truth = GroundTruth([["a", "b", "c"]])
        quality = evaluate_matches([("a+b", "c")], truth)
        # expansion declares a-c, b-c and a-b: all three are correct
        assert quality.num_declared == 3
        assert quality.num_correct == 3
        assert quality.recall == 1.0

    def test_cluster_spanning_pairs_close_to_same_metrics(self):
        from repro.evaluation.metrics import cluster_spanning_pairs

        truth = GroundTruth([["a", "b", "c"], ["d", "e"]])
        clusters = [frozenset({"a", "b", "c"}), frozenset({"d", "x"})]
        full = [("a", "b"), ("a", "c"), ("b", "c"), ("d", "x")]
        assert evaluate_matches(cluster_spanning_pairs(clusters), truth) == evaluate_matches(
            full, truth
        )

    def test_cluster_pairs_equal_the_closure_of_spanning_pairs(self):
        from repro.evaluation.metrics import cluster_spanning_pairs, evaluate_cluster_pairs

        truth = GroundTruth([["a", "b", "c"], ["d", "e"], ["f", "g"]])
        cases = [
            [],
            [["a", "b", "c"], ["d", "x"], ["e"]],
            [{"a", "d"}, ("b", "c", "e", "f"), ["y", "z"]],
            # merged identifiers keep the provenance rule: a singleton
            # "a+b" declares nothing, constituents join across clusters
            [["a+b"], ["c", "d"]],
            [["a+b", "d"], ["b", "c"], ["f+g", "y"]],
        ]
        for clusters in cases:
            expected = evaluate_matches(cluster_spanning_pairs(clusters), truth)
            assert evaluate_cluster_pairs(clusters, truth) == expected, clusters
        merged = evaluate_cluster_pairs([["a+b", "d"], ["b", "c"]], truth)
        assert (merged.num_declared, merged.num_correct) == (6, 3)

    def test_ground_truth_ordinal_views(self):
        truth = GroundTruth([["a", "b"], ["c", "d"]])
        indices = truth.cluster_indices(["a", "b", "c", "z"])
        assert indices[0] == indices[1]
        assert indices[2] != indices[0] and indices[2] >= 0
        assert indices[3] == -1
        # arithmetic num_matches equals the pair-set size, before and after
        # the pair set is materialised
        assert truth.num_matches() == 2
        assert len(truth.matching_pairs()) == 2
        assert truth.num_matches() == 2


class TestClusterEvaluationFastPath:
    def test_matches_reference_composition(self):
        """evaluate_clusters equals composing the public reference helpers."""
        import random

        from repro.evaluation.clusters import (
            closest_cluster_score,
            evaluate_clusters,
            variation_of_information,
            _normalise_partition,
        )

        for seed in (4, 17):
            rng = random.Random(seed)
            universe = [f"u{i}" for i in range(40)]
            truth_pool = universe[:]
            rng.shuffle(truth_pool)
            truth_clusters = []
            while truth_pool:
                size = rng.randint(1, 5)
                truth_clusters.append(
                    [truth_pool.pop() for _ in range(min(size, len(truth_pool)))]
                )
            truth = GroundTruth([c for c in truth_clusters if len(c) > 1])
            produced_pool = universe[:]
            rng.shuffle(produced_pool)
            produced = []
            while produced_pool:
                size = rng.randint(1, 6)
                produced.append(
                    frozenset(
                        produced_pool.pop() for _ in range(min(size, len(produced_pool)))
                    )
                )
            quality = evaluate_clusters(produced, truth, universe)

            universe_set = set(universe)
            reference_produced = _normalise_partition(produced, universe_set)
            reference_truth = _normalise_partition(truth.clusters, universe_set)
            exact = len(set(reference_produced) & set(reference_truth))
            assert quality.cluster_precision == exact / len(set(reference_produced))
            assert quality.cluster_recall == exact / len(set(reference_truth))
            assert quality.closest_cluster_f1 == 0.5 * (
                closest_cluster_score(reference_produced, reference_truth)
                + closest_cluster_score(reference_truth, reference_produced)
            )
            assert quality.variation_of_information == variation_of_information(
                reference_produced, reference_truth, len(universe_set)
            )

    def test_duplicate_produced_clusters_collapse(self):
        from repro.evaluation.clusters import evaluate_clusters

        truth = GroundTruth([["a", "b"]])
        quality = evaluate_clusters(
            [{"a", "b"}, {"a", "b"}, {"c", "d"}], truth, ["a", "b", "c", "d"]
        )
        # duplicates count once: 2 distinct produced clusters ({a,b}, {c,d}),
        # 1 exact match, against 3 reference clusters ({a,b}, {c}, {d})
        assert quality.cluster_precision == 1 / 2
        assert quality.cluster_recall == 1 / 3
