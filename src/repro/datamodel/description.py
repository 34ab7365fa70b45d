"""Schema-free entity descriptions.

An *entity description* is the unit of data that every algorithm in this
library consumes: a named set of attribute--value pairs describing one
real-world entity, as published by one knowledge base (KB).  Descriptions in
the Web of data are partial, overlapping and structurally heterogeneous, so
the model intentionally makes no schema assumptions:

* an attribute may appear any number of times (multi-valued attributes),
* two descriptions of the same real-world entity may use entirely different
  attribute names,
* values are plain strings; links to other descriptions are represented by
  values that hold another description's identifier (see
  :attr:`EntityDescription.relationships`).
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


class EntityDescription:
    """A single schema-free description of a real-world entity.

    Parameters
    ----------
    identifier:
        A unique identifier for the description, typically a URI-like string
        (``"kb1:person/42"``).  Identifiers are unique within an
        :class:`~repro.datamodel.collection.EntityCollection`.
    attributes:
        A mapping from attribute name to either a single string value or a
        sequence of string values.  Internally all attributes are stored as
        tuples of values to support multi-valued attributes uniformly.
    source:
        Optional name of the KB the description originates from.
    relationships:
        Optional mapping from relationship name to identifiers of other
        descriptions (e.g. ``{"author": ("kb1:person/7",)}``).  Relationship
        values are identifiers, not literals, and are used by
        relationship-based iterative ER.
    """

    __slots__ = ("identifier", "_attributes", "source", "_relationships")

    def __init__(
        self,
        identifier: str,
        attributes: Optional[Mapping[str, object]] = None,
        source: Optional[str] = None,
        relationships: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not isinstance(identifier, str):
            raise TypeError(f"identifier must be a str, got {type(identifier).__name__}")
        if not identifier:
            raise ValueError("an entity description requires a non-empty identifier")
        self.identifier = identifier
        self.source = source
        self._attributes: Dict[str, Tuple[str, ...]] = {}
        self._relationships: Dict[str, Tuple[str, ...]] = {}
        if attributes:
            for name, value in attributes.items():
                self.add(name, value)
        if relationships:
            for name, value in relationships.items():
                self.add_relationship(name, value)

    # ------------------------------------------------------------------
    # attribute access
    # ------------------------------------------------------------------
    @staticmethod
    def _as_values(value: object) -> Tuple[str, ...]:
        if value is None:
            return ()
        if isinstance(value, str):
            return (value,) if value else ()
        if isinstance(value, (int, float)):
            return (str(value),)
        if isinstance(value, (list, tuple, set, frozenset)):
            values = [str(v) for v in value if v is not None and str(v) != ""]
            if isinstance(value, (set, frozenset)):
                # hash order differs between runs (PYTHONHASHSEED)
                values.sort()
            return tuple(values)
        raise TypeError(f"unsupported attribute value type: {type(value)!r}")

    def add(self, name: str, value: object) -> None:
        """Add one or more values for attribute ``name``.

        Lists and tuples keep their order; a ``set`` / ``frozenset`` is added
        in sorted order, so the same record gives the same value order --
        hence the same token streams and vocabulary ids -- in every run.
        """
        values = self._as_values(value)
        if not values:
            return
        existing = self._attributes.get(name, ())
        merged = existing + tuple(v for v in values if v not in existing)
        self._attributes[name] = merged

    def add_relationship(self, name: str, target: object) -> None:
        """Add a relationship ``name`` pointing to one or more identifiers."""
        values = self._as_values(target)
        if not values:
            return
        existing = self._relationships.get(name, ())
        merged = existing + tuple(v for v in values if v not in existing)
        self._relationships[name] = merged

    @property
    def attributes(self) -> Mapping[str, Tuple[str, ...]]:
        """The attribute--values mapping (read-only view)."""
        return MappingProxyType(self._attributes)

    @property
    def relationships(self) -> Mapping[str, Tuple[str, ...]]:
        """The relationship--targets mapping (read-only view)."""
        return dict(self._relationships)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(self._attributes)

    def values(self, name: Optional[str] = None) -> Tuple[str, ...]:
        """Return the values of attribute ``name``, or of all attributes.

        When ``name`` is ``None`` the values of every attribute are returned,
        in attribute insertion order.
        """
        if name is not None:
            return self._attributes.get(name, ())
        return tuple(itertools.chain.from_iterable(self._attributes.values()))

    def value(self, name: str, default: str = "") -> str:
        """Return the first value of ``name``, or ``default`` if absent."""
        values = self._attributes.get(name, ())
        return values[0] if values else default

    def related(self, name: Optional[str] = None) -> Tuple[str, ...]:
        """Return related identifiers for relationship ``name`` (or all)."""
        if name is not None:
            return self._relationships.get(name, ())
        return tuple(itertools.chain.from_iterable(self._relationships.values()))

    def __contains__(self, name: str) -> bool:
        return name in self._attributes

    def __len__(self) -> int:
        return sum(len(values) for values in self._attributes.values())

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        """Iterate over ``(attribute, value)`` pairs."""
        for name, values in self._attributes.items():
            for value in values:
                yield name, value

    # ------------------------------------------------------------------
    # text views used by blocking / matching
    # ------------------------------------------------------------------
    def text(self, attributes: Optional[Sequence[str]] = None, separator: str = " ") -> str:
        """Concatenate all values into a single string.

        Parameters
        ----------
        attributes:
            Restrict the concatenation to these attributes, in the given
            order.  ``None`` uses every attribute.
        separator:
            String placed between consecutive values.
        """
        if attributes is None:
            values: Iterable[str] = self.values()
        else:
            values = itertools.chain.from_iterable(self.values(a) for a in attributes)
        return separator.join(values)

    # ------------------------------------------------------------------
    # comparisons / representation
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityDescription):
            return NotImplemented
        return (
            self.identifier == other.identifier
            and self._attributes == other._attributes
            and self._relationships == other._relationships
        )

    def __hash__(self) -> int:
        return hash(self.identifier)

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in list(self._attributes.items())[:3])
        more = "..." if len(self._attributes) > 3 else ""
        return f"EntityDescription({self.identifier!r}, {attrs}{more})"

    def copy(self, identifier: Optional[str] = None) -> "EntityDescription":
        """Return a deep copy, optionally with a new identifier."""
        clone = EntityDescription(identifier or self.identifier, source=self.source)
        for name, values in self._attributes.items():
            clone.add(name, values)
        for name, values in self._relationships.items():
            clone.add_relationship(name, values)
        return clone


def merge_descriptions(
    first: EntityDescription,
    second: EntityDescription,
    identifier: Optional[str] = None,
) -> EntityDescription:
    """Merge two descriptions of the same real-world entity into one.

    The merge is the attribute-union merge used by merging-based iterative ER
    (the "merge" function of the Swoosh family): the resulting description
    carries the union of attribute values and relationships of both inputs.
    The identifier of the merged description defaults to
    ``"<id1>+<id2>"`` with the two identifiers in lexicographic order, which
    makes merging associative and commutative at the identifier level.
    """
    if identifier is None:
        left, right = sorted((first.identifier, second.identifier))
        identifier = f"{left}+{right}"
    merged = EntityDescription(identifier, source=first.source or second.source)
    for description in (first, second):
        for name, values in description.attributes.items():
            merged.add(name, values)
        for name, values in description.relationships.items():
            merged.add_relationship(name, values)
    return merged


def provenance(identifier: str) -> List[str]:
    """Return the original identifiers folded into a (possibly merged) id.

    Merged descriptions produced by :func:`merge_descriptions` concatenate
    their source identifiers with ``"+"``; this helper recovers them.
    """
    return identifier.split("+")
