"""Loading and saving entity collections (CSV and JSON).

Real deployments read descriptions from exported KB dumps; for the
reproduction we support two simple interchange formats:

* **CSV** -- one row per description, one column per attribute; the column
  named ``id`` (configurable) holds the identifier.  Multi-valued attributes
  are joined with ``"|"``.
* **JSON** -- a list of objects ``{"id": ..., "source": ..., "attributes":
  {...}, "relationships": {...}}`` which round-trips the full model.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription

_MULTI_VALUE_SEPARATOR = "|"


def collection_from_records(
    records: Iterable[Mapping[str, object]],
    id_field: str = "id",
    source: Optional[str] = None,
    name: str = "records",
) -> EntityCollection:
    """Build a collection from an iterable of flat mappings (e.g. csv.DictReader rows).

    Every key except ``id_field`` becomes an attribute; empty values are
    skipped.  Values containing the multi-value separator ``"|"`` are split.
    """
    collection = EntityCollection(name=name)
    for position, record in enumerate(records):
        identifier = str(record.get(id_field, "")) or f"{name}:{position}"
        description = EntityDescription(identifier, source=source)
        for key, value in record.items():
            if key == id_field or value is None:
                continue
            text = str(value).strip()
            if not text:
                continue
            if _MULTI_VALUE_SEPARATOR in text:
                description.add(key, text.split(_MULTI_VALUE_SEPARATOR))
            else:
                description.add(key, text)
        collection.add(description)
    return collection


def load_collection_csv(
    path: Union[str, Path],
    id_field: str = "id",
    source: Optional[str] = None,
) -> EntityCollection:
    """Load a collection from a CSV file with a header row."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return collection_from_records(
            reader, id_field=id_field, source=source, name=path.stem
        )


def save_collection_csv(collection: EntityCollection, path: Union[str, Path], id_field: str = "id") -> None:
    """Write a collection to CSV (attributes only; relationships are dropped)."""
    path = Path(path)
    attribute_names = list(collection.attribute_names())
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=[id_field] + attribute_names)
        writer.writeheader()
        for description in collection:
            row: Dict[str, str] = {id_field: description.identifier}
            for name in attribute_names:
                values = description.values(name)
                if values:
                    row[name] = _MULTI_VALUE_SEPARATOR.join(values)
            writer.writerow(row)


def load_collection_json(path: Union[str, Path]) -> EntityCollection:
    """Load a collection from the JSON interchange format (full round-trip).

    Raises :class:`ValueError` for a payload that is not an object with a
    ``descriptions`` list, or for a record without a ``str`` ``id``.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        payload = json.load(handle)
    records = payload.get("descriptions") if isinstance(payload, dict) else None
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON object with a 'descriptions' list")
    collection = EntityCollection(name=payload.get("name", path.stem))
    for position, record in enumerate(records):
        if not isinstance(record, dict) or "id" not in record:
            raise ValueError(f"{path}: description {position} has no 'id'")
        if not isinstance(record["id"], str):
            raise ValueError(f"{path}: description {position} has a non-str 'id' {record['id']!r}")
        description = EntityDescription(
            record["id"],
            attributes=record.get("attributes"),
            source=record.get("source"),
            relationships=record.get("relationships"),
        )
        collection.add(description)
    return collection


def save_collection_json(collection: EntityCollection, path: Union[str, Path]) -> None:
    """Write a collection to the JSON interchange format (full round-trip)."""
    path = Path(path)
    payload = {
        "name": collection.name,
        "descriptions": [
            {
                "id": description.identifier,
                "source": description.source,
                "attributes": {k: list(v) for k, v in description.attributes.items()},
                "relationships": {
                    k: list(v) for k, v in description.relationships.items()
                },
            }
            for description in collection
        ],
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
