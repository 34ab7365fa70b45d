"""Tests for the schema-free entity description model."""

import pytest

from repro.datamodel.description import EntityDescription, merge_descriptions, provenance


def test_requires_identifier():
    with pytest.raises(ValueError):
        EntityDescription("")


@pytest.mark.parametrize("identifier", (5, 0, None, b"e1", ("e", 1)))
def test_a_non_str_identifier_fails_at_construction(identifier):
    with pytest.raises(TypeError, match="identifier"):
        EntityDescription(identifier, {"name": "Alan Turing"})


def test_single_and_multi_valued_attributes():
    description = EntityDescription("e1", {"name": "Alan Turing", "topic": ["logic", "computing"]})
    assert description.value("name") == "Alan Turing"
    assert description.values("topic") == ("logic", "computing")
    assert description.values("missing") == ()
    assert description.value("missing", default="n/a") == "n/a"


def test_add_deduplicates_values():
    description = EntityDescription("e1")
    description.add("name", "Alan")
    description.add("name", "Alan")
    description.add("name", "Turing")
    assert description.values("name") == ("Alan", "Turing")


def test_numeric_values_are_stringified():
    description = EntityDescription("e1", {"year": 1954, "price": 12.5})
    assert description.value("year") == "1954"
    assert description.value("price") == "12.5"


def test_empty_and_none_values_are_ignored():
    description = EntityDescription("e1", {"name": "", "city": None, "topic": ["", None]})
    assert len(description) == 0
    assert "name" not in description


def test_set_values_are_added_in_sorted_order():
    # hash order changes with PYTHONHASHSEED; token streams, vocabulary ids
    # and sorted-neighbourhood keys all follow the value order
    assert EntityDescription("x", {"a": {"c", "b", "d"}}).values("a") == ("b", "c", "d")
    assert EntityDescription("x", {"a": frozenset({3, 1, 2})}).values("a") == ("1", "2", "3")
    # sequences keep their insertion order
    assert EntityDescription("x", {"a": ["c", "b", "d"]}).values("a") == ("c", "b", "d")


def test_iteration_yields_attribute_value_pairs():
    description = EntityDescription("e1", {"name": "Alan", "topic": ["a", "b"]})
    pairs = list(description)
    assert ("name", "Alan") in pairs
    assert ("topic", "a") in pairs and ("topic", "b") in pairs
    assert len(pairs) == len(description) == 3


def test_text_concatenation_respects_attribute_selection():
    description = EntityDescription("e1", {"name": "Alan Turing", "city": "London"})
    assert "Alan Turing" in description.text()
    assert description.text(attributes=["city"]) == "London"
    assert description.text(attributes=["missing"]) == ""


def test_relationships_are_separate_from_attributes():
    description = EntityDescription("p1", {"title": "A Paper"}, relationships={"author": ["a1", "a2"]})
    assert description.related("author") == ("a1", "a2")
    assert description.related() == ("a1", "a2")
    assert "author" not in description.attribute_names


def test_equality_and_hash_are_identifier_and_content_based():
    first = EntityDescription("e1", {"name": "Alan"})
    second = EntityDescription("e1", {"name": "Alan"})
    third = EntityDescription("e1", {"name": "Grace"})
    assert first == second
    assert first != third
    assert hash(first) == hash(second)


def test_copy_is_deep_and_supports_renaming():
    original = EntityDescription("e1", {"name": "Alan"}, relationships={"knows": "e2"})
    clone = original.copy("e1-copy")
    clone.add("name", "Mathison")
    assert original.values("name") == ("Alan",)
    assert clone.identifier == "e1-copy"
    assert clone.related("knows") == ("e2",)


def test_unsupported_attribute_type_raises():
    description = EntityDescription("e1")
    with pytest.raises(TypeError):
        description.add("name", object())


class TestMerge:
    def test_merge_unions_attributes_and_relationships(self):
        first = EntityDescription("a", {"name": "Alan Turing"}, relationships={"field": "math"})
        second = EntityDescription("b", {"name": "A. Turing", "city": "London"})
        merged = merge_descriptions(first, second)
        assert set(merged.values("name")) == {"Alan Turing", "A. Turing"}
        assert merged.value("city") == "London"
        assert merged.related("field") == ("math",)

    def test_merge_identifier_is_order_independent(self):
        first = EntityDescription("b", {"name": "x"})
        second = EntityDescription("a", {"name": "y"})
        assert merge_descriptions(first, second).identifier == "a+b"
        assert merge_descriptions(second, first).identifier == "a+b"

    def test_provenance_recovers_original_identifiers(self):
        first = EntityDescription("a", {"name": "x"})
        second = EntityDescription("b", {"name": "y"})
        third = EntityDescription("c", {"name": "z"})
        merged = merge_descriptions(merge_descriptions(first, second), third)
        assert set(provenance(merged.identifier)) == {"a", "b", "c"}

    def test_merge_with_explicit_identifier(self):
        first = EntityDescription("a", {"name": "x"})
        second = EntityDescription("b", {"name": "y"})
        merged = merge_descriptions(first, second, identifier="merged:1")
        assert merged.identifier == "merged:1"
