"""Tests for the end-to-end ER workflow (tutorial Figure 1)."""

import dataclasses

import pytest
from conftest import ReadableBlocking, ReadableMatcher, ReadableScheduler

from repro.blocking.base import BlockCollection
from repro.blocking.token_blocking import TokenBlocking
from repro.core.config import WorkflowConfig
from repro.core.workflow import ERWorkflow, default_workflow
from repro.datamodel.pairs import DecisionColumns
from repro.datasets import DatasetConfig, generate_clean_clean_task, generate_dirty_dataset
from repro.matching.clustering import (
    CenterClustering,
    ConnectedComponentsClustering,
    MergeCenterClustering,
)
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.matching.oracle import OracleMatcher
from repro.progressive.schedulers import RandomOrderScheduler, WeightOrderScheduler
from repro.text.vectorizer import TfIdfVectorizer

#: the options the workflow had for choosing a stage's implementation
REMOVED_OPTIONS = (
    "blocking_engine",
    "metablocking_engine",
    "scheduling_engine",
    "matching_engine",
    "clustering_engine",
    "incremental_engine",
    "shared_context",
)


def readable_matcher(data):
    """The default TF-IDF matcher, as a subclass with a vectorizer fitted here."""
    return ReadableMatcher(threshold=0.55, vectorizer=TfIdfVectorizer().fit(iter(data)))


class TestWorkflowConfig:
    def test_describe_mentions_all_enabled_stages(self):
        config = WorkflowConfig(iterate_merges=True, budget=100)
        description = config.describe()
        assert "token" in description
        assert "metablocking" in description
        assert "budget=100" in description
        assert "iterative-merging" in description

    @pytest.mark.parametrize("budget", [-5, 2.5, float("nan"), True, False, "10"])
    def test_invalid_budget_fails_on_construction(self, budget):
        """Before any stage runs, naming the field."""
        with pytest.raises(ValueError, match="WorkflowConfig.budget"):
            WorkflowConfig(budget=budget)
        with pytest.raises(ValueError, match="WorkflowConfig.budget"):
            default_workflow(budget=budget)

    @pytest.mark.parametrize("budget", [None, 0, 40000])
    def test_valid_budget_is_kept(self, budget):
        assert WorkflowConfig(budget=budget).budget == budget

    def test_default_workflow_rejects_unknown_overrides(self):
        with pytest.raises(AttributeError):
            default_workflow(nonexistent_option=True)

    @pytest.mark.parametrize("name", ("describe",) + REMOVED_OPTIONS)
    def test_default_workflow_rejects_non_fields(self, name):
        """An attribute that is not a dataclass field -- a method, or an
        option that no longer exists -- is refused, not silently set."""
        with pytest.raises(AttributeError, match="num_workers"):  # lists the fields
            default_workflow(**{name: "x"})
        assert callable(WorkflowConfig().describe)

    def test_option_surface(self):
        """Which implementation runs a stage is not an option (the CLI's half
        of this is ``test_cli.py::test_no_engine_selection_flags``)."""
        assert [f.name for f in dataclasses.fields(WorkflowConfig)] == [
            "blocking",
            "enable_purging",
            "enable_filtering",
            "filtering_ratio",
            "enable_metablocking",
            "weighting_scheme",
            "pruning_scheme",
            "scheduler",
            "budget",
            "match_threshold",
            "use_tfidf",
            "iterate_merges",
            "max_iterations",
            "clustering",
            "num_workers",
        ]

    def test_stage_classes_take_no_engine_selector(self, tiny_collection):
        """The library's half: each stage runs the path its component's type
        selects, so no stage class or package exports an engine selector."""
        import inspect

        import repro.blocking
        import repro.iterative
        import repro.matching
        import repro.metablocking
        import repro.progressive
        from repro.blocking import BlockingEngine
        from repro.iterative import (
            AttributeOnlyER,
            CollectiveER,
            IncrementalResolver,
            NaivePairwiseER,
            RSwoosh,
        )
        from repro.matching import ClusteringEngine, MatchingEngine
        from repro.metablocking import MetaBlocking
        from repro.progressive import SchedulingEngine, run_progressive

        for stage in (
            BlockingEngine,
            MetaBlocking,
            SchedulingEngine,
            MatchingEngine,
            ClusteringEngine,
            IncrementalResolver,
            RSwoosh,
            NaivePairwiseER,
            CollectiveER,
            AttributeOnlyER,
        ):
            assert "engine" not in inspect.signature(stage).parameters, stage
        for package in (
            repro.blocking,
            repro.iterative,
            repro.matching,
            repro.metablocking,
            repro.progressive,
        ):
            assert not [name for name in package.__all__ if name.endswith("ENGINES")]
        for selector in ({"engine": "batch"}, {"scheduling": "array"}):
            with pytest.raises(AttributeError):
                run_progressive(
                    WeightOrderScheduler(),
                    ProfileSimilarityMatcher(),
                    tiny_collection,
                    [],
                    **selector,
                )

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_iteration_needs_at_least_one_round(self, small_dirty_dataset, max_iterations):
        with pytest.raises(ValueError, match="max_iterations"):
            default_workflow(iterate_merges=True, max_iterations=max_iterations)
        # the bound is only read by the update phase
        assert default_workflow(max_iterations=max_iterations).run(
            small_dirty_dataset.collection
        ).clusters


class TestWorkflowExecution:
    def test_default_workflow_resolves_dirty_collection(self, small_dirty_dataset):
        workflow = default_workflow()
        result = workflow.run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
        assert result.matching_quality is not None
        assert result.matching_quality.f1 > 0.7
        assert result.blocking_quality.pair_completeness > 0.9
        assert result.comparisons_executed < small_dirty_dataset.collection.total_comparisons()
        assert len(result.report) >= 4
        assert "clusters" in result.summary()

    def test_subclassed_builder_runs_its_own_build(self, small_dirty_dataset):
        """A trivial builder subclass gives the library outcome; one that
        overrides ``build`` gets its own blocks into the workflow."""

        class HalfBlocks(TokenBlocking):
            def build(self, data, context=None):
                return BlockCollection(list(super().build(data, context))[::2])

        data, truth = small_dirty_dataset.collection, small_dirty_dataset.ground_truth
        results = {
            label: ERWorkflow(WorkflowConfig(), blocking=blocking).run(data, truth)
            for label, blocking in (
                ("library", None),
                ("readable", ReadableBlocking()),
                ("half", HalfBlocks()),
            )
        }
        for result in results.values():
            stage_names = [stage.stage for stage in result.report]
            assert stage_names[:3] == [
                "blocking[token_blocking]",
                "block_purging",
                "block_filtering",
            ]
            assert result.report.stage("blocking[token_blocking]").notes == ""
        library, readable = results["library"], results["readable"]
        assert library.matches == readable.matches
        assert library.comparisons_executed == readable.comparisons_executed
        assert library.clusters == readable.clusters
        blocks = {
            label: result.report.stage("blocking[token_blocking]").get("blocks")
            for label, result in results.items()
        }
        assert blocks["half"] == (blocks["library"] + 1) // 2 == (blocks["readable"] + 1) // 2

    @pytest.mark.parametrize("iterate_merges", [False, True])
    def test_a_serial_run_leaves_no_reference_cycle(self, small_dirty_dataset, iterate_merges):
        """Everything a run builds is freed by reference counting: a
        long-lived caller's RSS does not wait for a full collection."""
        import gc

        data = small_dirty_dataset.collection
        default_workflow(iterate_merges=iterate_merges).run(data)  # first-use imports
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            default_workflow(iterate_merges=iterate_merges).run(data)
            gc.collect()
            left = [type(thing).__name__ for thing in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []

    def test_workflow_without_ground_truth_still_runs(self, small_dirty_dataset):
        result = default_workflow().run(small_dirty_dataset.collection)
        assert result.matching_quality is None
        assert result.blocking_quality is None
        assert result.clusters

    def test_clean_clean_workflow(self, small_clean_clean_dataset):
        workflow = default_workflow()
        result = workflow.run(small_clean_clean_dataset.task, small_clean_clean_dataset.ground_truth)
        assert result.matching_quality.f1 > 0.5
        # all declared matches must be cross-collection pairs
        task = small_clean_clean_dataset.task
        for first, second in result.matches:
            assert task.is_valid_pair(first, second)

    def test_budget_limits_comparisons(self, small_dirty_dataset):
        limited = default_workflow(budget=100).run(
            small_dirty_dataset.collection, small_dirty_dataset.ground_truth
        )
        assert limited.comparisons_executed <= 100

    def test_component_overrides_take_precedence(self, small_dirty_dataset):
        oracle = OracleMatcher(small_dirty_dataset.ground_truth)
        workflow = ERWorkflow(
            WorkflowConfig(enable_metablocking=False),
            matcher=oracle,
            scheduler=RandomOrderScheduler(seed=1),
        )
        result = workflow.run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
        assert result.matching_quality.precision == 1.0  # the oracle never errs
        assert oracle.calls == result.comparisons_executed

    @pytest.mark.parametrize(
        "field, error",
        [
            ("blocking", KeyError),
            ("weighting_scheme", KeyError),
            ("pruning_scheme", KeyError),
            ("scheduler", KeyError),
            ("clustering", KeyError),
        ],
    )
    def test_unknown_names_fail_before_any_stage_runs(
        self, small_dirty_dataset, monkeypatch, field, error
    ):
        from repro.core import workflow as workflow_module

        def no_stage_may_run(*args, **kwargs):
            raise AssertionError(f"a stage ran before {field!r} was checked")

        monkeypatch.setattr(workflow_module, "PipelineContext", no_stage_may_run)
        with pytest.raises(error, match="bogus"):
            ERWorkflow(WorkflowConfig(**{field: "bogus"})).run(small_dirty_dataset.collection)

    @pytest.mark.parametrize("num_workers", [0, -3])
    def test_worker_count_must_be_positive(self, small_dirty_dataset, num_workers):
        with pytest.raises(ValueError, match="num_workers"):
            default_workflow(num_workers=num_workers).run(small_dirty_dataset.collection)

    def test_unused_metablocking_names_are_not_resolved(self, small_dirty_dataset):
        workflow = default_workflow(enable_metablocking=False, weighting_scheme="bogus")
        assert workflow.run(small_dirty_dataset.collection).clusters

    def test_iterative_merging_finds_at_least_as_many_matches(self):
        dataset = generate_dirty_dataset(
            DatasetConfig(num_entities=60, duplicates_per_entity=2.0, seed=23)
        )
        plain = default_workflow(iterate_merges=False, use_tfidf=False, match_threshold=0.6).run(
            dataset.collection, dataset.ground_truth
        )
        iterative = default_workflow(iterate_merges=True, use_tfidf=False, match_threshold=0.6).run(
            dataset.collection, dataset.ground_truth
        )
        assert iterative.matching_quality.recall >= plain.matching_quality.recall
        assert iterative.iterations >= 1

    @pytest.mark.parametrize("blocking", ["token", "attribute_clustering", "sorted_neighborhood"])
    def test_alternative_blocking_schemes(self, small_dirty_dataset, blocking):
        workflow = default_workflow(blocking=blocking, enable_metablocking=blocking == "token")
        result = workflow.run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
        assert result.matching_quality is not None

    @pytest.mark.parametrize("scheduler", ["random", "sorted_list", "psnm", "progressive_blocks"])
    def test_alternative_schedulers(self, small_dirty_dataset, scheduler):
        workflow = default_workflow(scheduler=scheduler, budget=500)
        result = workflow.run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
        assert result.comparisons_executed <= 500


class TestBudgetedWorkflowRuns:
    """Progressive-curve and comparison accounting through budgeted runs.

    Exercises the full ``ERWorkflow.run`` path -- budget, ground truth and
    merge iteration together -- on the array schedule of the library
    scheduler and on the own ``schedule`` generator of a subclass, which
    must agree on every number they report.
    """

    SCHEDULERS = {"array": None, "object": ReadableScheduler}

    def workflow(self, engine, **options):
        scheduler = self.SCHEDULERS[engine]
        return ERWorkflow(
            WorkflowConfig(**options), scheduler=scheduler() if scheduler else None
        )

    BUDGET = 120

    @pytest.fixture(scope="class")
    def budget_dataset(self):
        return generate_dirty_dataset(
            DatasetConfig(num_entities=80, duplicates_per_entity=1.6, seed=77)
        )

    @pytest.mark.parametrize("engine", ["array", "object"])
    def test_budget_curve_and_accounting(self, budget_dataset, engine):
        workflow = self.workflow(
            engine, budget=self.BUDGET, iterate_merges=True, match_threshold=0.5
        )
        result = workflow.run(budget_dataset.collection, budget_dataset.ground_truth)

        # the budget caps the scheduling+matching phase; merge iteration runs
        # on top of it and its extra comparisons are accounted separately
        matching = next(s for s in result.report if s.stage.startswith("matching["))
        assert f"@{engine}+" in matching.stage
        assert matching.notes == ("" if engine == "array" else "object: ReadableScheduler")
        assert matching.metrics["comparisons"] <= self.BUDGET
        extra = result.comparisons_executed - matching.metrics["comparisons"]
        assert extra >= 0
        if result.iterations:
            update = next(s for s in result.report if s.stage == "update_iterate")
            assert update.metrics["comparisons"] == extra

        # the curve records exactly the budgeted comparisons, monotonically
        curve = result.curve
        assert curve is not None
        assert curve.num_comparisons == matching.metrics["comparisons"]
        history = curve.history()
        assert history[0] == (0, 0)
        assert all(
            later[0] == earlier[0] + 1 and later[1] >= earlier[1]
            for earlier, later in zip(history, history[1:])
        )
        assert 0.0 < curve.final_recall() <= 1.0
        assert 0.0 < curve.auc() <= 1.0

    def test_engines_agree_on_budgeted_runs(self, budget_dataset):
        results = {}
        for engine in ("array", "object"):
            workflow = self.workflow(
                engine, budget=self.BUDGET, iterate_merges=True, match_threshold=0.5
            )
            results[engine] = workflow.run(
                budget_dataset.collection, budget_dataset.ground_truth
            )
        assert results["array"].matches == results["object"].matches
        assert (
            results["array"].comparisons_executed
            == results["object"].comparisons_executed
        )
        assert results["array"].iterations == results["object"].iterations
        assert results["array"].curve.history() == results["object"].curve.history()
        assert results["array"].clusters == results["object"].clusters

    @pytest.mark.parametrize("engine", ["array", "object"])
    def test_unbudgeted_run_executes_all_candidates(self, budget_dataset, engine):
        workflow = self.workflow(engine)
        result = workflow.run(budget_dataset.collection, budget_dataset.ground_truth)
        metablocking = next(
            s for s in result.report if s.stage.startswith("metablocking[")
        )
        matching = next(s for s in result.report if s.stage.startswith("matching["))
        assert matching.metrics["comparisons"] == metablocking.metrics["retained"]


class TestClusteringEngineThreading:
    @pytest.mark.parametrize(
        "clustering, algorithm",
        [
            ("connected_components", ConnectedComponentsClustering),
            ("center", CenterClustering),
            ("merge_center", MergeCenterClustering),
        ],
    )
    def test_named_clusterings_equal_the_algorithms_own_output(
        self, small_dirty_dataset, clustering, algorithm
    ):
        """The array engine the workflow runs returns exactly what the
        algorithm's own ``cluster`` does for the declared matches -- the same
        cluster list, order included."""
        result = default_workflow(clustering=clustering).run(
            small_dirty_dataset.collection, small_dirty_dataset.ground_truth
        )
        assert f"clustering[{clustering}@array]" in [stage.stage for stage in result.report]
        own = algorithm().cluster(DecisionColumns.from_match_pairs(result.matches))
        assert result.clusters == own

    @pytest.mark.parametrize("iterate_merges", [False, True])
    def test_default_run_creates_no_match_decision_objects(
        self, small_dirty_dataset, iterate_merges, monkeypatch
    ):
        """The default engine path is object-free end to end: scheduling
        drains into decision columns, the update phase scores each merge's
        neighbourhood by ordinal and clustering consumes flat ordinals, so
        not a single MatchDecision or Comparison is ever constructed."""
        from repro.datamodel.pairs import Comparison
        from repro.matching.matchers import MatchDecision

        created = []
        decision_init = MatchDecision.__init__
        comparison_post_init = Comparison.__post_init__

        def counting_decision(self, *args, **kwargs):
            created.append("MatchDecision")
            decision_init(self, *args, **kwargs)

        def counting_comparison(self):
            created.append("Comparison")
            comparison_post_init(self)

        monkeypatch.setattr(MatchDecision, "__init__", counting_decision)
        monkeypatch.setattr(Comparison, "__post_init__", counting_comparison)
        result = default_workflow(iterate_merges=iterate_merges).run(
            small_dirty_dataset.collection, small_dirty_dataset.ground_truth
        )
        assert result.clusters  # the run actually resolved something
        assert result.matching_quality is not None
        if iterate_merges:
            update = result.report.stage("update_iterate")
            assert update.notes == "batch"
            assert update.get("comparisons") > 0
        assert not created, f"{len(created)} per-comparison objects on the default path"

    def test_update_phase_reports_its_path(self, small_dirty_dataset):
        """The stage row says how much the phase did and which path ran; the
        one reason for the per-pair path is the matcher's type."""
        data = small_dirty_dataset.collection
        config = WorkflowConfig(iterate_merges=True)
        runs = {
            "batch": ERWorkflow(config),
            "pairwise: ReadableMatcher": ERWorkflow(config, matcher=readable_matcher(data)),
            "pairwise: OracleMatcher": ERWorkflow(
                config, matcher=OracleMatcher(small_dirty_dataset.ground_truth)
            ),
        }
        results = {}
        for notes, workflow in runs.items():
            result = results[notes] = workflow.run(data)
            update = result.report.stage("update_iterate")
            assert update.notes == notes
            assert update.get("merges") >= len(result.matches) - update.get("new_matches")
            assert update.get("candidates") >= update.get("comparisons") > 0
            assert update.get("iterations") == result.iterations
        # the subclass *is* the default matcher, executed pair by pair
        batch, pairwise = results["batch"], results["pairwise: ReadableMatcher"]
        assert batch.matches == pairwise.matches
        assert batch.comparisons_executed == pairwise.comparisons_executed
        assert batch.iterations == pairwise.iterations
        assert batch.clusters == pairwise.clusters
        matching = next(s for s in pairwise.report if s.stage.startswith("matching["))
        assert matching.stage.endswith("+pairwise]")
        assert matching.notes == "pairwise: ReadableMatcher"

    def test_own_method_paths_do_create_decision_objects(self, small_dirty_dataset):
        """Sanity check of the zero-object assertion: a subclassed scheduler
        (drawn one comparison at a time) trips the same counter."""
        from repro.matching.matchers import MatchDecision

        calls = []
        original = MatchDecision.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        MatchDecision.__init__ = counting
        try:
            ERWorkflow(scheduler=ReadableScheduler()).run(
                small_dirty_dataset.collection, small_dirty_dataset.ground_truth
            )
        finally:
            MatchDecision.__init__ = original
        assert calls


class TestIncrementalWorkflow:
    """``run_incremental``: arrival-stream resolution with snapshot/restore."""

    def test_stage_labels_and_metrics(self, small_dirty_dataset):
        result = ERWorkflow(WorkflowConfig()).run_incremental(
            small_dirty_dataset.collection, small_dirty_dataset.ground_truth
        )
        stages = [stage.stage for stage in result.report]
        assert stages == ["incremental[profile_similarity@array]"]
        (stage,) = list(result.report)
        assert stage.get("arrivals") == len(small_dirty_dataset.collection)
        assert stage.get("comparisons") > 0
        assert result.clusters
        assert result.matching_quality is not None

    def test_subclassed_matcher_resolves_identically(self, small_dirty_dataset):
        results = {}
        for engine, matcher in (("array", None), ("object", ReadableMatcher(threshold=0.55))):
            result = ERWorkflow(matcher=matcher).run_incremental(
                small_dirty_dataset.collection
            )
            (stage,) = list(result.report)
            assert stage.stage == f"incremental[profile_similarity@{engine}]"
            assert stage.notes == ("" if matcher is None else "object: ReadableMatcher")
            results[engine] = (
                sorted(sorted(c) for c in result.clusters),
                sorted(result.matches),
                stage.get("comparisons"),
            )
        assert results["array"] == results["object"]

    def test_tfidf_matcher_reports_why_it_left_the_index(self, small_dirty_dataset):
        data = small_dirty_dataset.collection
        matcher = ProfileSimilarityMatcher(vectorizer=TfIdfVectorizer().fit(iter(data)))
        (stage,) = list(ERWorkflow(matcher=matcher).run_incremental(data).report)
        assert stage.stage.endswith("@object]")
        assert stage.notes == "object: TF-IDF"

    def test_snapshot_and_restore_stages(self, small_dirty_dataset, tmp_path):
        descriptions = list(small_dirty_dataset.collection)
        half = len(descriptions) // 2
        from repro.datamodel.collection import EntityCollection

        snapshot_dir = tmp_path / "snap"
        first = ERWorkflow(WorkflowConfig()).run_incremental(
            EntityCollection(descriptions[:half]), snapshot=snapshot_dir
        )
        assert [s.stage for s in first.report] == [
            "incremental[profile_similarity@array]",
            "incremental_snapshot",
        ]
        second = ERWorkflow(WorkflowConfig()).run_incremental(
            EntityCollection(descriptions[half:]), restore=snapshot_dir
        )
        assert [s.stage for s in second.report] == [
            "incremental_restore",
            "incremental[profile_similarity@array]",
        ]
        straight = ERWorkflow(WorkflowConfig()).run_incremental(
            EntityCollection(descriptions)
        )
        assert sorted(sorted(c) for c in second.clusters) == sorted(
            sorted(c) for c in straight.clusters
        )
