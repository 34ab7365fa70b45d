"""Tests for the synthetic dataset generators."""

import pytest

from repro.datamodel.collection import CleanCleanTask
from repro.datasets import DatasetConfig, generate_bibliographic_dataset, generate_clean_clean_task, generate_dirty_dataset
from repro.datasets.corruption import CorruptionConfig
from repro.datasets.generator import iter_descriptions


class TestDirtyDataset:
    def test_size_and_ground_truth_consistency(self):
        config = DatasetConfig(num_entities=50, duplicates_per_entity=1.0, seed=1)
        dataset = generate_dirty_dataset(config)
        # at least one description per entity, identifiers unique
        assert len(dataset.collection) >= 50
        assert len(set(dataset.collection.identifiers)) == len(dataset.collection)
        # every ground-truth identifier is in the collection
        for cluster in dataset.ground_truth.clusters:
            for identifier in cluster:
                assert identifier in dataset.collection

    def test_determinism(self):
        config = DatasetConfig(num_entities=30, seed=9)
        first = generate_dirty_dataset(config)
        second = generate_dirty_dataset(config)
        assert first.collection.identifiers == second.collection.identifiers
        assert first.ground_truth.matching_pairs() == second.ground_truth.matching_pairs()

    def test_zero_duplicates_means_no_matches(self):
        dataset = generate_dirty_dataset(
            DatasetConfig(num_entities=20, duplicates_per_entity=0.0, seed=2)
        )
        assert dataset.ground_truth.num_matches() == 0
        assert len(dataset.collection) == 20

    @pytest.mark.parametrize("domain", ["person", "product", "publication"])
    def test_all_domains_generate(self, domain):
        dataset = generate_dirty_dataset(DatasetConfig(num_entities=10, domain=domain, seed=3))
        assert len(dataset.collection) >= 10
        assert all(len(d.attribute_names) > 0 for d in dataset.collection)

    def test_unknown_domain_raises(self):
        with pytest.raises(ValueError):
            generate_dirty_dataset(DatasetConfig(num_entities=5, domain="spaceship"))

    def test_descriptions_property_returns_collection(self):
        dataset = generate_dirty_dataset(DatasetConfig(num_entities=5, seed=4))
        assert dataset.descriptions is dataset.collection


def _content(description):
    """Everything a description carries (its ``repr`` shows three attributes)."""
    return (
        description.identifier,
        description.source,
        tuple(description.attributes.items()),
        tuple(description.relationships.items()),
    )


class TestStreamedDescriptions:
    @pytest.mark.parametrize("duplicates", [0.0, 0.4, 1.2, 2.5])
    @pytest.mark.parametrize("seed", [0, 17, 330])
    @pytest.mark.parametrize("domain", ["person", "product", "publication"])
    def test_stream_is_a_permutation_of_the_dirty_collection(self, domain, seed, duplicates):
        config = DatasetConfig(
            num_entities=25, duplicates_per_entity=duplicates, domain=domain, seed=seed
        )
        streamed = sorted(map(_content, iter_descriptions(config)))
        assert streamed == sorted(map(_content, generate_dirty_dataset(config).collection))

    def test_unknown_domain_raises(self):
        with pytest.raises(ValueError, match="spaceship"):
            next(iter_descriptions(DatasetConfig(num_entities=5, domain="spaceship")))


class TestCleanCleanTask:
    def test_structure_and_disjointness(self):
        dataset = generate_clean_clean_task(DatasetConfig(num_entities=40, seed=5))
        task = dataset.task
        assert isinstance(task, CleanCleanTask)
        assert len(task.left) == 40
        assert len(task.right) <= 40
        assert set(task.left.identifiers).isdisjoint(task.right.identifiers)

    def test_ground_truth_pairs_span_both_sides(self):
        dataset = generate_clean_clean_task(DatasetConfig(num_entities=40, seed=5))
        for first, second in dataset.ground_truth.matching_pairs():
            assert dataset.task.is_valid_pair(first, second)

    def test_missing_fraction_reduces_right_side(self):
        full = generate_clean_clean_task(DatasetConfig(num_entities=60, missing_in_right=0.0, seed=6))
        partial = generate_clean_clean_task(DatasetConfig(num_entities=60, missing_in_right=0.5, seed=6))
        assert len(partial.task.right) < len(full.task.right)
        assert len(full.task.right) == 60

    def test_vocabulary_styles_differ_across_sides(self):
        dataset = generate_clean_clean_task(DatasetConfig(num_entities=40, seed=7))
        left_attributes = set(dataset.task.left.attribute_names())
        right_attributes = set(dataset.task.right.attribute_names())
        # heterogeneous vocabularies: the two sides should not use an identical attribute set
        assert left_attributes != right_attributes

    def test_descriptions_property_unions_both_sides(self):
        dataset = generate_clean_clean_task(DatasetConfig(num_entities=10, seed=8))
        union = dataset.descriptions
        assert len(union) == len(dataset.task.left) + len(dataset.task.right)


class TestBibliographicDataset:
    def test_contains_both_entity_types_with_relationships(self):
        dataset = generate_bibliographic_dataset(num_authors=10, num_publications=20, seed=1)
        authors = [d for d in dataset.collection if "author/" in d.identifier]
        publications = [d for d in dataset.collection if "publication/" in d.identifier]
        assert authors and publications
        # every publication links to at least one author present in the collection
        for publication in publications:
            related = publication.related("author")
            assert related
            for author_id in related:
                assert author_id in dataset.collection

    def test_ground_truth_covers_both_types(self):
        dataset = generate_bibliographic_dataset(num_authors=10, num_publications=20, seed=2)
        pairs = dataset.ground_truth.matching_pairs()
        assert any("author/" in a for a, _ in pairs)
        assert any("publication/" in a for a, _ in pairs)

    def test_ambiguity_controls_surname_pool(self):
        ambiguous = generate_bibliographic_dataset(num_authors=30, num_publications=10, ambiguity=0.9, seed=3)
        surnames = {
            d.value("family_name")
            for d in ambiguous.collection
            if "author/" in d.identifier and d.value("family_name")
        }
        distinct = generate_bibliographic_dataset(num_authors=30, num_publications=10, ambiguity=0.0, seed=3)
        surnames_distinct = {
            d.value("family_name")
            for d in distinct.collection
            if "author/" in d.identifier and d.value("family_name")
        }
        assert len(surnames) <= len(surnames_distinct) + 5  # high ambiguity -> fewer distinct surnames
