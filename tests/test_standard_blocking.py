"""Tests for standard, q-gram, suffix-array blocking and key functions."""

import pytest

from repro.blocking.standard import (
    ExtendedQGramsBlocking,
    QGramsBlocking,
    StandardBlocking,
    SuffixArrayBlocking,
    attribute_key,
    soundex,
    soundex_key,
)
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription


def make_people():
    return EntityCollection(
        [
            EntityDescription("p1", {"name": "Alan Turing", "family_name": "Turing"}),
            EntityDescription("p2", {"name": "Alan M Turing", "family_name": "Turing"}),
            EntityDescription("p3", {"name": "Grace Hopper", "family_name": "Hopper"}),
            EntityDescription("p4", {"name": "Grace M Hopper", "family_name": "Hopper"}),
            EntityDescription("p5", {"name": "Ada Lovelace", "family_name": "Lovelace"}),
        ]
    )


def test_attribute_key_concatenation_and_prefix():
    key = attribute_key(["family_name"], length=4)
    assert key(EntityDescription("x", {"family_name": "Turing"})) == ["turi"]
    assert key(EntityDescription("x", {"name": "no surname"})) == []
    multi = attribute_key(["family_name", "name"])
    assert multi(EntityDescription("x", {"family_name": "Turing", "name": "Alan"})) == ["turing alan"]


def test_soundex_known_codes():
    assert soundex("Robert") == soundex("Rupert") == "R163"
    assert soundex("Turing") == soundex("Tuering")
    assert soundex("") == ""


def test_standard_blocking_groups_equal_keys():
    blocks = StandardBlocking([attribute_key(["family_name"])]).build(make_people())
    keys = {block.key: set(block.members) for block in blocks}
    assert keys["turing"] == {"p1", "p2"}
    assert keys["hopper"] == {"p3", "p4"}
    assert "lovelace" not in keys  # singleton blocks induce no comparison


def test_standard_blocking_requires_key_functions():
    with pytest.raises(ValueError):
        StandardBlocking([])


def test_standard_blocking_multi_pass_union():
    blocks = StandardBlocking(
        [attribute_key(["family_name"]), soundex_key("name")]
    ).build(make_people())
    pairs = set()
    for block in blocks:
        pairs.update(block.pairs())
    assert ("p1", "p2") in pairs and ("p3", "p4") in pairs


def test_standard_blocking_clean_clean_is_bilateral():
    left = EntityCollection(
        [EntityDescription("a:1", {"family_name": "Turing"})], name="left"
    )
    right = EntityCollection(
        [
            EntityDescription("b:1", {"family_name": "Turing"}),
            EntityDescription("b:2", {"family_name": "Turing"}),
        ],
        name="right",
    )
    blocks = StandardBlocking([attribute_key(["family_name"])]).build(CleanCleanTask(left, right))
    assert len(blocks) == 1
    assert blocks[0].is_bilateral
    assert blocks[0].num_comparisons() == 2  # only cross-collection pairs


def test_qgram_blocking_is_robust_to_typos():
    collection = EntityCollection(
        [
            EntityDescription("x1", {"name": "Turing"}),
            EntityDescription("x2", {"name": "Turng"}),  # deletion typo
        ]
    )
    standard = StandardBlocking([attribute_key(["name"])]).build(collection)
    qgram = QGramsBlocking(q=3, attributes=["name"]).build(collection)
    assert standard.num_distinct_comparisons() == 0
    assert ("x1", "x2") in qgram.distinct_pairs()


def test_qgram_blocking_rejects_tiny_q():
    with pytest.raises(ValueError):
        QGramsBlocking(q=1)


@pytest.mark.parametrize(
    "make, parameter",
    [
        (lambda: QGramsBlocking(q=2.5), "q"),
        (lambda: QGramsBlocking(q=True), "q"),
        (lambda: ExtendedQGramsBlocking(q="3"), "q"),
        (lambda: ExtendedQGramsBlocking(max_qgrams_per_value=-3), "max_qgrams_per_value"),
        (lambda: ExtendedQGramsBlocking(max_qgrams_per_value=0), "max_qgrams_per_value"),
        (lambda: ExtendedQGramsBlocking(max_qgrams_per_value=4.0), "max_qgrams_per_value"),
        (lambda: ExtendedQGramsBlocking(threshold="0.8"), "threshold"),
        (lambda: SuffixArrayBlocking(max_block_size=-1), "max_block_size"),
        (lambda: SuffixArrayBlocking(max_block_size=0), "max_block_size"),
        (lambda: SuffixArrayBlocking(max_block_size="50"), "max_block_size"),
        (lambda: SuffixArrayBlocking(min_suffix_length=0), "min_suffix_length"),
        (lambda: SuffixArrayBlocking(min_suffix_length=-2), "min_suffix_length"),
    ],
)
def test_key_builders_reject_bad_parameters_at_construction(make, parameter):
    # construction only: a build with some of these values never ends
    with pytest.raises(ValueError, match=f"^{parameter} must be"):
        make()


def test_suffix_blocking_groups_shared_suffixes_and_prunes_frequent_ones():
    collection = make_people()
    blocks = SuffixArrayBlocking(attributes=["family_name"], min_suffix_length=4).build(collection)
    pairs = blocks.distinct_pairs()
    assert ("p1", "p2") in pairs
    assert ("p3", "p4") in pairs
    # frequency pruning: with a tiny max size every block disappears
    pruned = SuffixArrayBlocking(
        attributes=["family_name"], min_suffix_length=4, max_block_size=1
    ).build(collection)
    assert len(pruned) == 0
