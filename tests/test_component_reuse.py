"""Reused components: two runs on one instance equal one run on each of two
fresh instances.

A component may keep scratch state between calls (a scheduler's emitted
set, a join's statistics), but nothing of a finished run may change what
the next run gives: the clusters, the counts of every stage and the order of
the matches must be those of a fresh instance.  Every scheduler, clustering
and builder the workflow names, the matchers, and the resolvers are run on
two seeded dirty inputs, once through one instance and once through two.
"""

from __future__ import annotations

import functools

import pytest
from conftest import ReadableMatcher

from repro.blocking.token_blocking import TokenBlocking
from repro.core.config import WorkflowConfig
from repro.core.workflow import (
    _BLOCKING_FACTORIES,
    _CLUSTERING_FACTORIES,
    _SCHEDULER_FACTORIES,
    ERWorkflow,
)
from repro.datamodel.pairs import Comparison
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.iterative.collective import AttributeOnlyER, CollectiveER
from repro.iterative.incremental import IncrementalResolver
from repro.iterative.iterative_blocking import IterativeBlocking
from repro.iterative.swoosh import NaivePairwiseER, RSwoosh
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import (
    AttributeWeightedMatcher,
    ProfileSimilarityMatcher,
    RuleBasedMatcher,
    ThresholdRule,
)


@functools.lru_cache(maxsize=None)
def _inputs():
    config = dict(num_entities=30, duplicates_per_entity=1.0, domain="person")
    return tuple(
        generate_dirty_dataset(DatasetConfig(seed=seed, **config)) for seed in (5, 6)
    )


def _workflow_outcome(workflow, dataset):
    result = workflow.run(dataset.collection, dataset.ground_truth)
    stages = [
        (stage.stage, {k: v for k, v in stage.metrics.items() if k != "seconds"}, stage.notes)
        for stage in result.report
    ]
    return result.clusters, result.matches, result.comparisons_executed, stages


def _decisions(dataset):
    blocks = TokenBlocking().build(dataset.collection)
    comparisons = [Comparison(*pair) for pair in sorted(blocks.distinct_pairs())]
    matcher = ProfileSimilarityMatcher(threshold=0.3)
    return MatchingEngine(matcher).decide_all(comparisons, dataset.collection)


def _serialised(blocks):
    return [(block.key, block.left_members, block.right_members, block.members) for block in blocks]


def _collective_outcome(resolver, dataset):
    result = resolver.resolve(dataset.collection)
    return (
        result.matches,
        result.comparisons_executed,
        result.relational_rescues,
        result.requeue_events,
        result.clusters,
    )


def _merging_outcome(resolver, dataset):
    result = resolver.resolve(dataset.collection)
    return result.clusters, result.comparisons_executed, result.merges


def _iterative_blocking_outcome(resolver, dataset):
    result = resolver.resolve(dataset.collection, TokenBlocking().build(dataset.collection))
    return result.clusters, result.comparisons_executed, result.merges, result.block_passes


def _incremental_outcome(matcher, dataset):
    arrivals = IncrementalResolver(matcher).add_all(dataset.collection)
    return [(a.identifier, a.matched_clusters, a.comparisons) for a in arrivals]


MATCHERS = {
    "profile_set": lambda: ProfileSimilarityMatcher(threshold=0.3),
    "profile_jaccard": lambda: ProfileSimilarityMatcher(
        threshold=0.4, similarity_name="jaccard"
    ),
    "readable_profile": lambda: ReadableMatcher(threshold=0.3),
    "attribute_weighted": lambda: AttributeWeightedMatcher(
        {"family_name": 2.0, "given_name": 1.0, "label": 1.0}, threshold=0.8
    ),
    "rule_based": lambda: RuleBasedMatcher([ThresholdRule("family_name", 0.9)]),
}


def _cases():
    """``(id, factory of the reused instance, run(instance, dataset))``."""
    for name, factory in _SCHEDULER_FACTORIES.items():
        yield f"scheduler-{name}", (
            lambda factory=factory: ERWorkflow(WorkflowConfig(), scheduler=factory()),
            _workflow_outcome,
        )
    for name, factory in _CLUSTERING_FACTORIES.items():
        yield f"clustering-{name}-workflow", (
            lambda name=name: ERWorkflow(WorkflowConfig(clustering=name)),
            _workflow_outcome,
        )
        yield f"clustering-{name}", (
            factory,
            lambda algorithm, dataset: algorithm.cluster(_decisions(dataset)),
        )
    for name, factory in _BLOCKING_FACTORIES.items():
        yield f"builder-{name}-workflow", (
            lambda factory=factory: ERWorkflow(WorkflowConfig(), blocking=factory()),
            _workflow_outcome,
        )
        yield f"builder-{name}", (
            factory,
            lambda builder, dataset: _serialised(builder.build(dataset.collection)),
        )
    for name, factory in MATCHERS.items():
        yield f"matcher-{name}", (
            lambda factory=factory: ERWorkflow(
                WorkflowConfig(iterate_merges=True), matcher=factory()
            ),
            _workflow_outcome,
        )
    yield "resolver-collective", (
        lambda: CollectiveER(ProfileSimilarityMatcher(threshold=1.0), match_threshold=0.5),
        _collective_outcome,
    )
    yield "resolver-attribute_only", (
        lambda: AttributeOnlyER(ProfileSimilarityMatcher(threshold=1.0), match_threshold=0.5),
        _collective_outcome,
    )
    yield "resolver-r_swoosh", (
        lambda: RSwoosh(ProfileSimilarityMatcher(threshold=0.5)),
        _merging_outcome,
    )
    yield "resolver-naive_pairwise", (
        lambda: NaivePairwiseER(ProfileSimilarityMatcher(threshold=0.5)),
        _merging_outcome,
    )
    yield "resolver-iterative_blocking", (
        lambda: IterativeBlocking(ProfileSimilarityMatcher(threshold=0.5)),
        _iterative_blocking_outcome,
    )
    yield "resolver-incremental-shared_matcher", (
        lambda: ProfileSimilarityMatcher(threshold=0.4),
        _incremental_outcome,
    )


@pytest.mark.parametrize(
    "factory, run", [pytest.param(*spec, id=name) for name, spec in _cases()]
)
def test_two_runs_on_one_instance_equal_two_fresh_instances(factory, run):
    first, second = _inputs()
    reused = factory()
    twice = [run(reused, first), run(reused, second)]
    fresh = [run(factory(), first), run(factory(), second)]
    assert twice[0] == fresh[0]
    assert twice[1] == fresh[1]
