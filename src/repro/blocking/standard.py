"""Traditional key-based blocking schemes for (semi-)structured records.

These are the schemes the tutorial describes as "traditional blocking
algorithms proposed for relational records": they derive one or more
*blocking keys* from selected attributes and group descriptions with equal
(or similar) keys.  They work well when a common schema exists and key
attributes are clean, and they serve as baselines that lose recall on the
heterogeneous, schema-free descriptions of the Web of data.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.blocking.base import Block, BlockBuilder, BlockCollection, ERInput
from repro.datamodel.description import EntityDescription
from repro.text.tokenize import normalize, prefix, qgrams, suffixes

KeyFunction = Callable[[EntityDescription], Iterable[str]]


def attribute_key(
    attributes: Sequence[str],
    length: Optional[int] = None,
    separator: str = " ",
) -> KeyFunction:
    """Build a key function concatenating (prefixes of) normalised attribute values.

    ``attribute_key(["family_name"], length=4)`` reproduces the classical
    "first four letters of the surname" blocking key.
    """

    def key_of(description: EntityDescription) -> Iterable[str]:
        parts = []
        for attribute in attributes:
            value = description.value(attribute)
            if not value:
                return []  # descriptions missing a key attribute produce no key
            normalized = normalize(value).replace(" ", separator.strip() or "_")
            parts.append(normalized)
        key = separator.join(parts)
        if length is not None:
            key = key.replace(" ", "")[:length]
        return [key] if key else []

    return key_of


def soundex(value: str) -> str:
    """American Soundex code of the first word of ``value`` (classical phonetic key)."""
    normalized = normalize(value).replace(" ", "")
    if not normalized:
        return ""
    codes = {
        **dict.fromkeys("bfpv", "1"),
        **dict.fromkeys("cgjkqsxz", "2"),
        **dict.fromkeys("dt", "3"),
        "l": "4",
        **dict.fromkeys("mn", "5"),
        "r": "6",
    }
    first, rest = normalized[0], normalized[1:]
    encoded = [codes.get(first, "")]
    for char in rest:
        code = codes.get(char, "")
        if code and code != encoded[-1]:
            encoded.append(code)
        elif not code:
            encoded.append("")
    digits = "".join(c for c in encoded[1:] if c)
    return (first.upper() + digits + "000")[:4]


def soundex_key(attribute: str) -> KeyFunction:
    """Key function producing the Soundex code of an attribute's first value."""

    def key_of(description: EntityDescription) -> Iterable[str]:
        value = description.value(attribute)
        code = soundex(value)
        return [code] if code else []

    return key_of


class StandardBlocking(BlockBuilder):
    """Classical standard blocking: one block per distinct blocking-key value.

    Parameters
    ----------
    key_functions:
        One or more functions mapping a description to its blocking keys.
        A description is placed in one block per produced key.  Multiple key
        functions model the common multi-pass blocking setup.
    """

    name = "standard"

    def __init__(self, key_functions: Sequence[KeyFunction]) -> None:
        if not key_functions:
            raise ValueError("standard blocking requires at least one key function")
        self.key_functions = list(key_functions)

    def build(self, data: ERInput, context=None) -> BlockCollection:
        key_index: Dict[str, Dict[str, List[str]]] = {}
        for side, description in self._iter_with_side(data):
            for key_function in self.key_functions:
                for key in key_function(description):
                    key_index.setdefault(key, {}).setdefault(side, []).append(
                        description.identifier
                    )
        return self._blocks_from_key_index(key_index, data, name=self.name)


class QGramsBlocking(BlockBuilder):
    """Q-gram blocking: descriptions sharing a character q-gram of a key value co-occur.

    More robust to typos than standard blocking because a single edit affects
    only ``q`` of the key's q-grams.  Applied schema-agnostically when
    ``attributes`` is ``None`` (q-grams of every token of every value), or to
    selected attributes otherwise.
    """

    name = "qgrams"

    def __init__(self, q: int = 3, attributes: Optional[Sequence[str]] = None) -> None:
        if q < 2:
            raise ValueError("q must be at least 2 for q-gram blocking")
        self.q = q
        self.attributes = list(attributes) if attributes else None

    def _keys(self, description: EntityDescription) -> Iterable[str]:
        values = (
            description.values()
            if self.attributes is None
            else [v for a in self.attributes for v in description.values(a)]
        )
        keys = set()
        for value in values:
            keys.update(qgrams(value, q=self.q))
        return keys

    def build(self, data: ERInput, context=None) -> BlockCollection:
        key_index: Dict[str, Dict[str, List[str]]] = {}
        for side, description in self._iter_with_side(data):
            for key in self._keys(description):
                key_index.setdefault(key, {}).setdefault(side, []).append(
                    description.identifier
                )
        return self._blocks_from_key_index(key_index, data, name=self.name)


class ExtendedQGramsBlocking(QGramsBlocking):
    """Extended q-gram blocking: keys are *combinations* of q-grams, not single q-grams.

    Plain q-gram blocking is very recall-oriented but produces many oversized
    blocks (any shared q-gram suffices).  The extended variant concatenates
    combinations of at least ``ceil(threshold * k)`` of a value's ``k`` q-grams
    into composite keys, so two descriptions co-occur only if they share a
    large fraction of their q-grams -- a middle ground between standard
    blocking (exact key equality) and plain q-gram blocking.
    """

    name = "extended_qgrams"

    def __init__(
        self,
        q: int = 3,
        threshold: float = 0.8,
        attributes: Optional[Sequence[str]] = None,
        max_qgrams_per_value: int = 10,
    ) -> None:
        super().__init__(q=q, attributes=attributes)
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self.max_qgrams_per_value = max_qgrams_per_value

    def _keys(self, description: EntityDescription) -> Iterable[str]:
        import itertools
        import math

        values = (
            description.values()
            if self.attributes is None
            else [v for a in self.attributes for v in description.values(a)]
        )
        keys = set()
        for value in values:
            grams = sorted(set(qgrams(value, q=self.q)))[: self.max_qgrams_per_value]
            if not grams:
                continue
            minimum = max(1, math.floor(self.threshold * len(grams)))
            if minimum == len(grams):
                keys.add("".join(grams))
                continue
            for size in range(minimum, len(grams) + 1):
                for combination in itertools.combinations(grams, size):
                    keys.add("".join(combination))
        return keys


class SuffixArrayBlocking(BlockBuilder):
    """Suffix-array blocking: descriptions sharing a long-enough key suffix co-occur.

    Suffixes of the blocking-key value with at least ``min_suffix_length``
    characters become block keys; suffixes appearing in more than
    ``max_block_size`` descriptions are discarded as too frequent (the
    standard frequency pruning of the original method).
    """

    name = "suffix_array"

    def __init__(
        self,
        attributes: Optional[Sequence[str]] = None,
        min_suffix_length: int = 4,
        max_block_size: int = 50,
    ) -> None:
        self.attributes = list(attributes) if attributes else None
        self.min_suffix_length = min_suffix_length
        self.max_block_size = max_block_size

    def _keys(self, description: EntityDescription) -> Iterable[str]:
        values = (
            description.values()
            if self.attributes is None
            else [v for a in self.attributes for v in description.values(a)]
        )
        keys = set()
        for value in values:
            keys.update(suffixes(value, min_length=self.min_suffix_length))
        return keys

    def build(self, data: ERInput, context=None) -> BlockCollection:
        key_index: Dict[str, Dict[str, List[str]]] = {}
        for side, description in self._iter_with_side(data):
            for key in self._keys(description):
                key_index.setdefault(key, {}).setdefault(side, []).append(
                    description.identifier
                )
        # frequency pruning: drop suffixes that occur too often
        pruned = {
            key: sides
            for key, sides in key_index.items()
            if sum(len(ids) for ids in sides.values()) <= self.max_block_size
        }
        return self._blocks_from_key_index(pruned, data, name=self.name)
