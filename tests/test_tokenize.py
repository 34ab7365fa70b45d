"""Tests for tokenisation and normalisation."""

import random
import re
import unicodedata

from repro.text.tokenize import (
    DEFAULT_STOP_WORDS,
    SLOT_MARK,
    normalize,
    prefix,
    qgrams,
    sorted_tokens_by_rarity,
    suffixes,
    token_set,
    tokenize,
    tokenize_slots,
    uri_tokens,
)


def test_normalize_lowercases_strips_accents_and_punctuation():
    assert normalize("Alán  Türing!") == "alan turing"
    assert normalize("  ") == ""
    assert normalize("") == ""
    assert normalize("C3-PO, droid.") == "c3 po droid"


def test_tokenize_basic_and_min_length():
    assert tokenize("Alan M. Turing") == ["alan", "m", "turing"]
    assert tokenize("Alan M. Turing", min_length=2) == ["alan", "turing"]


def test_tokenize_stop_words():
    tokens = tokenize("The University of Crete", stop_words=DEFAULT_STOP_WORDS)
    assert "the" not in tokens and "of" not in tokens
    assert "university" in tokens and "crete" in tokens


def test_tokenize_preserves_duplicates_token_set_does_not():
    assert tokenize("data data data") == ["data", "data", "data"]
    assert token_set(["data data", "data"]) == {"data"}


def test_token_set_unions_multiple_values():
    assert token_set(["Alan Turing", "London"]) == {"alan", "turing", "london"}


def test_qgrams_with_and_without_padding():
    padded = qgrams("abc", q=3)
    assert padded[0].startswith("##")
    assert padded[-1].endswith("$$")
    assert "abc" in padded
    unpadded = qgrams("abcd", q=3, pad=False)
    assert unpadded == ["abc", "bcd"]


def test_qgrams_short_strings_and_invalid_q():
    assert qgrams("ab", q=3, pad=False) == ["ab"]
    assert qgrams("", q=3) == []
    import pytest

    with pytest.raises(ValueError):
        qgrams("abc", q=0)


def test_suffixes_respect_min_length():
    result = suffixes("turing", min_length=4)
    assert result == ["turing", "uring", "ring"]
    assert suffixes("ab", min_length=4) == ["ab"]
    assert suffixes("", min_length=3) == []


def test_prefix_is_space_free():
    assert prefix("Alan Turing", 6) == "alantu"


def test_uri_tokens_extracts_prefix_and_infix():
    uri_prefix, infix, tokens = uri_tokens("http://dbpedia.org/resource/Berlin_Wall")
    assert infix == "Berlin_Wall"
    assert "berlin" in tokens and "wall" in tokens
    assert "dbpedia" in uri_prefix

    simple_prefix, simple_infix, simple_tokens = uri_tokens("kb:person/42")
    assert simple_infix == "42"
    assert simple_tokens == ["42"]

    assert uri_tokens("") == ("", "", [])


def test_sorted_tokens_by_rarity_orders_ascending_frequency():
    document_frequency = {"common": 100, "rare": 1, "mid": 10}
    ordered = sorted_tokens_by_rarity(["common", "rare", "mid"], document_frequency)
    assert ordered == ["rare", "mid", "common"]


def _join_and_split_normalize(value):
    """The formulation ``normalize`` had before the shared word split."""
    if not value:
        return ""
    decomposed = unicodedata.normalize("NFKD", value)
    ascii_only = decomposed.encode("ascii", "ignore").decode("ascii")
    return " ".join(re.findall(r"[a-z0-9]+", ascii_only.lower()))


def _join_and_split_tokenize(value, stop_words=None, min_length=1):
    normalized = _join_and_split_normalize(value)
    if not normalized:
        return []
    stops = frozenset(stop_words) if stop_words else frozenset()
    return [
        token
        for token in normalized.split(" ")
        if len(token) >= min_length and token not in stops
    ]


_FUZZ_ALPHABET = (
    "abcXYZ019 .,-_/\t\n\x00"  # ASCII letters, digits, punctuation, controls
    "\x1f|\uff5c"  # the slot kernel's separator and mark, fullwidth vertical line
    "\u00e9\u00fc\u00d1\u00df"  # accented Latin, sharp s
    "\ufb01\u2167\u00bd\uff21"  # fi ligature, roman numeral, one half, fullwidth A
    "\u212a\u0130\u03a3\u03c2"  # Kelvin sign, dotted capital I, sigma, final sigma
    "\u6771\u4eac\u0416\u0301"  # CJK, Cyrillic, a lone combining accent
)


def _fuzz_values(seed, count, max_length):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(0, max_length)))
        for _ in range(count)
    ]


def test_word_split_equals_join_and_split_formulation():
    """ASCII values skip NFKD, non-ASCII ones do not: same output either way."""
    values = ["", " ", "---", "The\x00Data\tBase", "\u212a\u0130\u03a3"]
    values += _fuzz_values(19, 600, 24)
    for value in values:
        assert normalize(value) == _join_and_split_normalize(value)
        assert tokenize(value) == _join_and_split_tokenize(value)
        assert tokenize(value, stop_words=DEFAULT_STOP_WORDS, min_length=2) == (
            _join_and_split_tokenize(value, stop_words=DEFAULT_STOP_WORDS, min_length=2)
        )


def _per_slot(slots):
    return [token for slot in slots for token in [*_join_and_split_tokenize(slot), SLOT_MARK]]


def test_slot_kernel_equals_per_slot_tokenize():
    """One chunk-wide split gives every slot's words, each slot closed by the mark."""
    assert tokenize_slots([]) == []  # no slot, no stray mark
    assert tokenize_slots(["", "---"]) == [SLOT_MARK, SLOT_MARK]
    assert tokenize_slots(["a\x1fb|c", "K İ"]) == ["a", "b", "c", "|", "k", "i", "|"]
    values = _fuzz_values(23, 1800, 12)
    rng = random.Random(29)
    position = 0
    while position < len(values):
        size = rng.randint(0, 9)
        slots = values[position : position + size]
        assert tokenize_slots(slots) == _per_slot(slots)
        position += max(size, 1)
