"""Tests for CSV/JSON loading and saving of collections."""

import pytest

from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datasets.loaders import (
    collection_from_records,
    load_collection_csv,
    load_collection_json,
    save_collection_csv,
    save_collection_json,
)


def make_collection() -> EntityCollection:
    return EntityCollection(
        [
            EntityDescription("e1", {"name": "Alan Turing", "topic": ["logic", "computing"]}),
            EntityDescription("e2", {"name": "Grace Hopper", "city": "New York"}),
        ],
        name="people",
    )


def test_collection_from_records_splits_multi_values_and_skips_empties():
    records = [
        {"id": "r1", "name": "Alan", "topic": "logic|computing", "empty": ""},
        {"id": "r2", "name": "Grace", "topic": None},
        {"name": "NoId"},
    ]
    collection = collection_from_records(records, name="rec")
    assert len(collection) == 3
    assert collection["r1"].values("topic") == ("logic", "computing")
    assert "empty" not in collection["r1"]
    assert collection[2].identifier == "rec:2"


def test_csv_round_trip(tmp_path):
    collection = make_collection()
    path = tmp_path / "people.csv"
    save_collection_csv(collection, path)
    loaded = load_collection_csv(path)
    assert len(loaded) == 2
    assert loaded["e1"].values("topic") == ("logic", "computing")
    assert loaded["e2"].value("city") == "New York"
    # attributes absent for a description stay absent
    assert "city" not in loaded["e1"]


def test_json_round_trip_preserves_relationships(tmp_path):
    collection = EntityCollection(
        [
            EntityDescription(
                "p1", {"title": "A Paper"}, source="kb", relationships={"author": ["a1", "a2"]}
            ),
            EntityDescription("a1", {"name": "Alan"}),
            EntityDescription("a2", {"name": "Grace"}),
        ],
        name="papers",
    )
    path = tmp_path / "papers.json"
    save_collection_json(collection, path)
    loaded = load_collection_json(path)
    assert loaded.name == "papers"
    assert loaded["p1"].related("author") == ("a1", "a2")
    assert loaded["p1"].source == "kb"
    assert loaded["a1"].value("name") == "Alan"


def test_csv_load_uses_custom_id_field(tmp_path):
    path = tmp_path / "custom.csv"
    path.write_text("uri,name\nx:1,Alan\nx:2,Grace\n", encoding="utf-8")
    loaded = load_collection_csv(path, id_field="uri")
    assert set(loaded.identifiers) == {"x:1", "x:2"}


@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"x": 1}', "'descriptions' list"),
        ('[{"id": "a"}]', "'descriptions' list"),
        ('{"descriptions": {"id": "a"}}', "'descriptions' list"),
        ('{"descriptions": [{"id": "a"}, {"attributes": {"name": ["b"]}}]}', "description 1 has no 'id'"),
        ('{"descriptions": ["a"]}', "description 0 has no 'id'"),
        ('{"descriptions": [{"id": "a"}, {"id": 5}]}', "description 1 has a non-str 'id' 5"),
    ],
)
def test_json_load_rejects_a_payload_that_is_not_a_collection(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(payload, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_collection_json(path)
