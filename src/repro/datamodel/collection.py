"""Entity collections: the input of every ER task.

Two task settings are supported, following the tutorial's terminology:

* **Dirty ER** -- a single :class:`EntityCollection` that may contain any
  number of descriptions of the same real-world entity.  The task is to
  partition the collection into equivalence clusters.
* **Clean--clean ER** (record linkage) -- a :class:`CleanCleanTask` holding two
  individually duplicate-free collections; matches may only occur across the
  two collections, never within one.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datamodel.description import EntityDescription


class EntityCollection:
    """An ordered collection of entity descriptions with id-based lookup.

    Descriptions keep their insertion order, which gives every description a
    stable integer *position* used by position-based algorithms (e.g. sorted
    neighbourhood).
    """

    def __init__(
        self,
        descriptions: Optional[Iterable[EntityDescription]] = None,
        name: str = "collection",
    ) -> None:
        self.name = name
        self._descriptions: List[EntityDescription] = []
        self._index: Dict[str, int] = {}
        if descriptions:
            for description in descriptions:
                self.add(description)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, description: EntityDescription) -> None:
        """Append ``description``; identifiers must be unique."""
        if description.identifier in self._index:
            raise ValueError(f"duplicate identifier: {description.identifier!r}")
        self._index[description.identifier] = len(self._descriptions)
        self._descriptions.append(description)

    def extend(self, descriptions: Iterable[EntityDescription]) -> None:
        for description in descriptions:
            self.add(description)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._descriptions)

    def __iter__(self) -> Iterator[EntityDescription]:
        return iter(self._descriptions)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._index

    def __getitem__(self, key: object) -> EntityDescription:
        if isinstance(key, int):
            return self._descriptions[key]
        if isinstance(key, str):
            return self._descriptions[self._index[key]]
        raise TypeError("EntityCollection indices must be int positions or str identifiers")

    def get(self, identifier: str) -> Optional[EntityDescription]:
        position = self._index.get(identifier)
        return None if position is None else self._descriptions[position]

    def position(self, identifier: str) -> int:
        """Return the insertion position of ``identifier``."""
        return self._index[identifier]

    @property
    def identifiers(self) -> Tuple[str, ...]:
        return tuple(d.identifier for d in self._descriptions)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def attribute_names(self) -> Tuple[str, ...]:
        """All attribute names used anywhere in the collection (sorted)."""
        names = set()
        for description in self._descriptions:
            names.update(description.attribute_names)
        return tuple(sorted(names))

    def filter(self, predicate: Callable[[EntityDescription], bool], name: Optional[str] = None) -> "EntityCollection":
        """Return a new collection with the descriptions satisfying ``predicate``."""
        return EntityCollection(
            (d for d in self._descriptions if predicate(d)),
            name=name or f"{self.name}/filtered",
        )

    def sample(self, size: int, seed: int = 0) -> "EntityCollection":
        """Return a deterministic pseudo-random sample of ``size`` descriptions."""
        import random

        if size >= len(self):
            return EntityCollection(self._descriptions, name=f"{self.name}/sample")
        rng = random.Random(seed)
        chosen = rng.sample(range(len(self._descriptions)), size)
        return EntityCollection(
            (self._descriptions[i] for i in sorted(chosen)),
            name=f"{self.name}/sample",
        )

    def total_comparisons(self) -> int:
        """Number of comparisons of the exhaustive (quadratic) solution."""
        n = len(self._descriptions)
        return n * (n - 1) // 2

    def __repr__(self) -> str:
        return f"EntityCollection(name={self.name!r}, size={len(self)})"


class CleanCleanTask:
    """A clean--clean ER task: match descriptions across two clean collections.

    The two collections are individually duplicate-free (e.g. two distinct
    KBs each describing every entity at most once); candidate comparisons are
    only meaningful between a description of ``left`` and one of ``right``.
    """

    def __init__(self, left: EntityCollection, right: EntityCollection) -> None:
        overlap = set(left.identifiers) & set(right.identifiers)
        if overlap:
            raise ValueError(
                "clean-clean collections must use disjoint identifier spaces; "
                f"shared identifiers include {sorted(overlap)[:3]}"
            )
        self.left = left
        self.right = right

    def __len__(self) -> int:
        return len(self.left) + len(self.right)

    def __iter__(self) -> Iterator[EntityDescription]:
        yield from self.left
        yield from self.right

    def side_of(self, identifier: str) -> str:
        """Return ``"left"`` or ``"right"`` depending on which collection holds ``identifier``."""
        if identifier in self.left:
            return "left"
        if identifier in self.right:
            return "right"
        raise KeyError(identifier)

    def get(self, identifier: str) -> Optional[EntityDescription]:
        # ``is not None``, not truthiness: a description with no attribute
        # values has ``len() == 0`` and would otherwise resolve to ``None``
        description = self.left.get(identifier)
        return description if description is not None else self.right.get(identifier)

    def is_valid_pair(self, first: str, second: str) -> bool:
        """A comparison is valid only across the two collections."""
        return (first in self.left and second in self.right) or (
            first in self.right and second in self.left
        )

    def as_single_collection(self, name: str = "union") -> EntityCollection:
        """Union of both sides as one collection (used by schema-agnostic blocking)."""
        return EntityCollection(iter(self), name=name)

    def total_comparisons(self) -> int:
        """Number of comparisons of the exhaustive clean--clean solution."""
        return len(self.left) * len(self.right)

    def __repr__(self) -> str:
        return f"CleanCleanTask(left={len(self.left)}, right={len(self.right)})"
