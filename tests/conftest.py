"""Shared fixtures: small deterministic datasets and hand-built collections.

Also the readable subclasses the equivalence suites use as oracles: a
subclass is not the exact library type, so every stage runs the
component's own readable method for it instead of the columnar path (a
scheduler's overrides ``schedule``, the route the scheduling stage takes
for a scheduler of its own).

Set ``REPRO_TEST_START_METHOD`` (``fork`` / ``spawn``) to run every
:class:`~repro.mapreduce.parallel.ParallelEngine` the suite builds under that
start method; CI runs the pool's suites under both.
"""

from __future__ import annotations

import copy
import os

import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.ground_truth import GroundTruth
from repro.datasets import (
    DatasetConfig,
    generate_bibliographic_dataset,
    generate_clean_clean_task,
    generate_dirty_dataset,
)
from repro.datasets.corruption import CorruptionConfig
from repro.mapreduce.parallel import ParallelEngine
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.metablocking.graph import BlockingGraph
from repro.metablocking.pipeline import MetaBlocking
from repro.metablocking.pruning import get_pruning_scheme
from repro.metablocking.weighting import get_weighting_scheme
from repro.progressive.schedulers import ProgressiveScheduler, WeightOrderScheduler


class ReadableBlocking(TokenBlocking):
    pass


class ReadableScheduler(WeightOrderScheduler):
    def schedule(self, data, candidates):
        yield from super().schedule(data, candidates)


class ReadableMatcher(ProfileSimilarityMatcher):
    pass


def readable(component):
    """A copy of ``component`` whose type is a trivial subclass of its own,
    so every stage runs the component's own readable method for it (a
    scheduler's subclass overrides ``schedule`` with the inherited one,
    which sends the scheduling stage to that generator)."""
    clone = copy.copy(component)
    kind = type(component)
    namespace = {}
    if isinstance(component, ProgressiveScheduler):
        namespace["schedule"] = _inherited_schedule
    clone.__class__ = type(f"Readable{kind.__name__}", (kind,), namespace)
    return clone


def _inherited_schedule(self, data, candidates):
    yield from super(type(self), self).schedule(data, candidates)


def graph_retained(blocks, weighting, pruning):
    """The meta-blocking reference, ``pruning.prune(BlockingGraph(blocks),
    weighting)``, for scheme names or instances: ``(retained edges, graph)``."""
    if isinstance(weighting, str):
        weighting = get_weighting_scheme(weighting)
    if isinstance(pruning, str):
        pruning = get_pruning_scheme(pruning)
    graph = BlockingGraph(blocks)
    return pruning.prune(graph, weighting), graph


def graph_metablocking(weighting: str, pruning) -> MetaBlocking:
    """``MetaBlocking`` on its graph path: the weighting scheme as a subclass."""
    return MetaBlocking(readable(get_weighting_scheme(weighting)), pruning)


#: the start method every engine of the suite runs under (``None``: the default)
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None


@pytest.fixture(autouse=True)
def _forced_start_method(monkeypatch):
    """Run every engine under ``REPRO_TEST_START_METHOD`` unless the test
    names its own start method."""
    if START_METHOD is None:
        yield
        return
    original = ParallelEngine.__init__

    def patched(self, *args, **kwargs):
        kwargs.setdefault("start_method", START_METHOD)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ParallelEngine, "__init__", patched)
    yield


@pytest.fixture(scope="session")
def tiny_collection() -> EntityCollection:
    """A hand-built collection with two obvious duplicate pairs and two singletons."""
    descriptions = [
        EntityDescription(
            "a1",
            {"name": "Alan Turing", "city": "London", "occupation": "mathematician"},
        ),
        EntityDescription(
            "a2",
            {"label": "Alan M. Turing", "location": "London", "field": "mathematician"},
        ),
        EntityDescription(
            "b1",
            {"name": "Grace Hopper", "city": "New York", "occupation": "computer scientist"},
        ),
        EntityDescription(
            "b2",
            {"full_name": "Grace M. Hopper", "place": "New York", "job": "computer scientist"},
        ),
        EntityDescription(
            "c1",
            {"name": "Ada Lovelace", "city": "London", "occupation": "mathematician"},
        ),
        EntityDescription(
            "d1",
            {"name": "Edsger Dijkstra", "city": "Nuenen", "occupation": "computer scientist"},
        ),
    ]
    return EntityCollection(descriptions, name="tiny")


@pytest.fixture(scope="session")
def tiny_ground_truth() -> GroundTruth:
    return GroundTruth([["a1", "a2"], ["b1", "b2"], ["c1"], ["d1"]])


@pytest.fixture(scope="session")
def small_dirty_dataset():
    """A seeded small dirty dataset (~200 descriptions)."""
    return generate_dirty_dataset(
        DatasetConfig(num_entities=100, duplicates_per_entity=1.0, seed=11)
    )


@pytest.fixture(scope="session")
def small_clean_clean_dataset():
    """A seeded small clean--clean task."""
    return generate_clean_clean_task(
        DatasetConfig(num_entities=100, missing_in_right=0.2, seed=13)
    )


@pytest.fixture(scope="session")
def small_bibliographic_dataset():
    """A seeded small two-type (publications + authors) dataset."""
    return generate_bibliographic_dataset(
        num_authors=15, num_publications=30, duplicates_per_publication=1.0, seed=17
    )


@pytest.fixture(scope="session")
def noisy_dirty_dataset():
    """A dirty dataset with the high-noise 'somehow similar' corruption profile."""
    return generate_dirty_dataset(
        DatasetConfig(
            num_entities=80,
            duplicates_per_entity=1.5,
            noise=CorruptionConfig.somehow_similar(),
            seed=19,
        )
    )
