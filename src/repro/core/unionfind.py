"""Shared union--find (disjoint-set) structures.

Half the library needs a union--find: clustering turns match decisions into
equivalence clusters, evaluation closes declared matches transitively,
iterative blocking and collective ER propagate merges, attribute clustering
groups similar attribute names.  Historically each module hand-rolled its own
string-keyed ``parent`` dict; this module is the single definition both of
that keyed structure (:class:`UnionFind`) and of the array-backed ordinal
variant (:class:`IntUnionFind`) the columnar engines run on.

Both implementations use path halving and the same union rule -- *the root of
the first argument wins* -- so a keyed and an ordinal union--find fed the same
union sequence end up with identical set representatives.  :class:`UnionFind`
additionally preserves *first-touch insertion order* (keys are registered the
first time :meth:`~UnionFind.find` or :meth:`~UnionFind.union` sees them),
which is what makes the enumeration order of :meth:`~UnionFind.groups`
deterministic and lets the array engines replicate it exactly.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence

import numpy as _np

__all__ = ["UnionFind", "IntUnionFind"]


class UnionFind:
    """Disjoint sets over hashable keys (path halving, first-root-wins union).

    Keys are registered lazily in first-touch order; iterating the structure
    (or calling :meth:`groups`) enumerates them in exactly that order, which
    makes every derived cluster list deterministic.
    """

    __slots__ = ("parent",)

    def __init__(self, keys: Optional[Iterable[Hashable]] = None) -> None:
        self.parent: Dict[Hashable, Hashable] = {}
        if keys is not None:
            for key in keys:
                self.parent.setdefault(key, key)

    def __len__(self) -> int:
        return len(self.parent)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.parent

    def __iter__(self) -> Iterator[Hashable]:
        """Registered keys, in first-touch order."""
        return iter(self.parent)

    def find(self, key: Hashable) -> Hashable:
        """Representative of ``key``'s set, registering ``key`` if unseen."""
        parent = self.parent
        root = parent.setdefault(key, key)
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    def union(self, winner: Hashable, loser: Hashable) -> bool:
        """Join the sets of the two keys; the root of ``winner``'s set wins.

        Returns whether the two keys were in different sets (a merge
        happened).  ``find`` runs on ``winner`` first, so first-touch order
        registers ``winner`` before ``loser``.
        """
        root_a = self.find(winner)
        root_b = self.find(loser)
        if root_a == root_b:
            return False
        self.parent[root_b] = root_a
        return True

    def connected(self, first: Hashable, second: Hashable) -> bool:
        """Whether the two keys are currently in the same set."""
        return self.find(first) == self.find(second)

    def groups(self) -> "Dict[Hashable, List[Hashable]]":
        """Mapping root -> members; roots and members in first-touch order."""
        groups: Dict[Hashable, List[Hashable]] = {}
        for key in self.parent:
            groups.setdefault(self.find(key), []).append(key)
        return groups

    def clusters(self, min_size: int = 1) -> List[FrozenSet[Hashable]]:
        """The disjoint sets as frozensets, in first-touch order of their roots."""
        return [
            frozenset(members)
            for members in self.groups().values()
            if len(members) >= min_size
        ]

    def __repr__(self) -> str:
        return f"UnionFind({len(self.parent)} keys)"


class IntUnionFind:
    """Disjoint sets over the ordinals ``0..size-1`` as one flat parent array.

    The columnar counterpart of :class:`UnionFind`: same path halving, same
    first-root-wins union, but over ``array('q')`` ordinals -- no hashing, no
    string comparisons.  :meth:`grow` extends the universe on the fly, which
    streaming consumers (interners that discover ordinals as they go) use.
    """

    __slots__ = ("parent",)

    def __init__(self, size: int = 0) -> None:
        self.parent = array("q", range(size))

    def __len__(self) -> int:
        return len(self.parent)

    def grow(self, size: int) -> None:
        """Extend the universe to ``size`` ordinals (new ones are singletons)."""
        parent = self.parent
        if size > len(parent):
            parent.extend(range(len(parent), size))

    def find(self, ordinal: int) -> int:
        parent = self.parent
        while parent[ordinal] != ordinal:
            parent[ordinal] = parent[parent[ordinal]]
            ordinal = parent[ordinal]
        return ordinal

    def union(self, winner: int, loser: int) -> bool:
        """Join the two sets; the root of ``winner``'s set wins."""
        root_a = self.find(winner)
        root_b = self.find(loser)
        if root_a == root_b:
            return False
        self.parent[root_b] = root_a
        return True

    def connected(self, first: int, second: int) -> bool:
        return self.find(first) == self.find(second)

    def roots(self, ordinals: Sequence[int]):
        """The root of every ordinal in ``ordinals``, as an int64 ndarray.

        The roots :meth:`find` returns, from one pointer chase over all of
        them at once that leaves the parent array as it is.
        """
        parent = _np.frombuffer(self.parent, dtype=_np.int64)
        roots = parent[_np.asarray(ordinals, dtype=_np.int64)]
        while True:
            up = parent[roots]
            if (up == roots).all():
                return roots
            roots = up

    def __repr__(self) -> str:
        return f"IntUnionFind({len(self.parent)} ordinals)"
