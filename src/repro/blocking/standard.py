"""Traditional key-based blocking schemes for (semi-)structured records.

These are the schemes the tutorial describes as "traditional blocking
algorithms proposed for relational records": they derive one or more
*blocking keys* from selected attributes and group descriptions with equal
(or similar) keys.  They work well when a common schema exists and key
attributes are clean, and they serve as baselines that lose recall on the
heterogeneous, schema-free descriptions of the Web of data.

Each builder names the keys of one description; the build gathers the
ordinal posting of every key (a description given a key twice joins its
block once) and turns the postings into
:class:`~repro.blocking.columns.BlockColumns` in sorted-key order through
:meth:`~repro.blocking.columns.BlockColumns.from_postings`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.blocking.base import (
    BlockBuilder,
    BlockCollection,
    ERInput,
    check_count,
    check_unit_interval,
    identifier_table,
)
from repro.blocking.columns import BlockColumns, append_posting, concatenated
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


def _values(description: EntityDescription, attributes: Optional[List[str]]) -> Sequence[str]:
    """The values of ``attributes`` (of every attribute when ``None``)."""
    if attributes is None:
        return description.values()
    return [value for name in attributes for value in description.values(name)]


class _KeyBlocking(BlockBuilder):
    """One block per distinct blocking key; a subclass gives a description's keys."""

    def _keys(self, description: EntityDescription) -> Iterable[str]:
        raise NotImplementedError

    def _member_limit(self) -> Optional[int]:
        """Keys shared by more descriptions than this are dropped (``None``: no bound)."""
        return None

    def build(self, data: ERInput, context=None) -> BlockCollection:
        """The ordinal posting of every key, as blocks in sorted-key order.

        Ordinals follow the ``_iter_with_side`` order (the shared context's
        table when ``context`` owns ``data``); no value is tokenised.
        """
        ids, left_count = identifier_table(data, context)
        postings: Dict = {}
        for ordinal, (_side, description) in enumerate(self._iter_with_side(data)):
            for key in self._keys(description):
                posting = postings.get(key)
                if posting is None or posting[-1] != ordinal:
                    append_posting(postings, key, ordinal)
        ptr, members = concatenated(postings)
        columns = BlockColumns.from_postings(
            list(postings), ptr, members, ids, left_count, self._member_limit()
        )
        return BlockCollection.from_columns(columns, name=self.name)


class StandardBlocking(_KeyBlocking):
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

    def _keys(self, description: EntityDescription) -> Iterable[str]:
        return [key for key_function in self.key_functions for key in key_function(description)]


class QGramsBlocking(_KeyBlocking):
    """Q-gram blocking: descriptions sharing a character q-gram of a key value co-occur.

    More robust to typos than standard blocking because a single edit affects
    only ``q`` of the key's q-grams.  Applied schema-agnostically when
    ``attributes`` is ``None`` (q-grams of every token of every value), or to
    selected attributes otherwise.
    """

    name = "qgrams"

    def __init__(self, q: int = 3, attributes: Optional[Sequence[str]] = None) -> None:
        self.q = check_count("q", q, 2)
        self.attributes = list(attributes) if attributes else None

    def _keys(self, description: EntityDescription) -> Iterable[str]:
        values = _values(description, self.attributes)
        return {gram for value in values for gram in qgrams(value, q=self.q)}


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
        self.threshold = check_unit_interval("threshold", threshold, open_low=True)
        self.max_qgrams_per_value = check_count("max_qgrams_per_value", max_qgrams_per_value, 1)

    def _keys(self, description: EntityDescription) -> Iterable[str]:
        keys = set()
        for value in _values(description, self.attributes):
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


class SuffixArrayBlocking(_KeyBlocking):
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
        self.min_suffix_length = check_count("min_suffix_length", min_suffix_length, 1)
        self.max_block_size = check_count("max_block_size", max_block_size, 1)

    def _keys(self, description: EntityDescription) -> Iterable[str]:
        values = _values(description, self.attributes)
        return {key for value in values for key in suffixes(value, self.min_suffix_length)}

    def _member_limit(self) -> Optional[int]:
        return self.max_block_size
