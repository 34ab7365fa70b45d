"""Tokenisation and normalisation utilities.

Token blocking, attribute-clustering blocking and the string-similarity-join
algorithms all build inverted indices over the tokens of attribute values.
The functions here define precisely what a "token" is for the whole library so
that blocking, meta-blocking and matching agree on it.
"""

from __future__ import annotations

import re
import unicodedata
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

_URI_SPLIT_RE = re.compile(r"[/#:]")

#: ``bytes.translate`` table of the word split: A-Z lowered, a-z and 0-9
#: kept, every other byte a space, so one ``split()`` yields the words
_WORD_TABLE = bytes(
    ord(c.lower()) if c.isascii() and c.isalnum() else 32 for c in map(chr, range(256))
)
#: The slot table's image of ``\x1f``, closing each slot; a ``|`` in a value is a space
SLOT_MARK = "|"
_SLOT_TABLE = _WORD_TABLE[:0x1F] + SLOT_MARK.encode() + _WORD_TABLE[0x20:]

#: A small stop-word list; highly frequent tokens produce enormous blocks and
#: carry almost no matching evidence, so blocking implementations may drop them.
DEFAULT_STOP_WORDS: FrozenSet[str] = frozenset(
    {
        "a",
        "an",
        "and",
        "at",
        "by",
        "de",
        "for",
        "from",
        "in",
        "of",
        "on",
        "or",
        "the",
        "to",
        "with",
    }
)


def _words(value: str, table: bytes = _WORD_TABLE) -> List[str]:
    """The one word split: NFKD + ASCII-ignore unless ASCII, ``table``, ``split()``."""
    if not value.isascii():
        value = unicodedata.normalize("NFKD", value).encode("ascii", "ignore").decode("ascii")
    return value.encode("ascii").translate(table).decode("ascii").split()


def tokenize_slots(slots: Sequence[str]) -> List[str]:
    """``tokenize(slot) + [SLOT_MARK]`` over every slot: the interning chunk kernel.

    One split of the slots joined by ``" \\x1f "`` (a ``\\x1f`` inside a slot is
    a space first); NFKD never reorders across a space.
    """
    text = " \x1f ".join([*slots, ""])
    if text.count("\x1f") != len(slots):
        text = " \x1f ".join([slot.replace("\x1f", " ") for slot in slots] + [""])
    return _words(text, _SLOT_TABLE)


def normalize(value: str) -> str:
    """Normalise a string value: lowercase, strip accents, collapse whitespace.

    Normalisation is deliberately conservative -- it keeps digits and letters
    and removes punctuation -- so that tokens extracted from heterogeneous KBs
    remain comparable without destroying distinguishing content.
    """
    return " ".join(_words(value))


def tokenize(
    value: str,
    stop_words: Optional[Iterable[str]] = None,
    min_length: int = 1,
) -> List[str]:
    """Split ``value`` into normalised word tokens (duplicates preserved).

    Parameters
    ----------
    value:
        The raw attribute value.
    stop_words:
        Tokens to drop; ``None`` keeps everything (callers that want the
        default list pass :data:`DEFAULT_STOP_WORDS` explicitly).
    min_length:
        Minimum number of characters a token must have to be kept.
    """
    words = _words(value)
    if min_length <= 1 and not stop_words:
        return words
    stops: FrozenSet[str] = frozenset(stop_words) if stop_words else frozenset()
    return [token for token in words if len(token) >= min_length and token not in stops]


def token_set(
    values: Iterable[str],
    stop_words: Optional[Iterable[str]] = None,
    min_length: int = 1,
) -> Set[str]:
    """The set of distinct tokens appearing in any of ``values``."""
    tokens: Set[str] = set()
    for value in values:
        tokens.update(tokenize(value, stop_words=stop_words, min_length=min_length))
    return tokens


def check_min_token_length(value) -> int:
    """``value`` if it is an ``int >= 0`` (not a ``bool``), else ``ValueError``."""
    if type(value) is not int or value < 0:
        raise ValueError(f"min_token_length must be an int >= 0, got {value!r}")
    return value


def qgrams(value: str, q: int = 3, pad: bool = True) -> List[str]:
    """Character q-grams of the normalised value.

    With ``pad`` enabled the string is padded with ``q - 1`` ``#``/``$``
    characters at its start/end, the standard construction that gives the
    first and last characters the same number of q-grams as middle ones.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    normalized = normalize(value).replace(" ", "_")
    if not normalized:
        return []
    if pad and q > 1:
        normalized = "#" * (q - 1) + normalized + "$" * (q - 1)
    if len(normalized) < q:
        return [normalized]
    return [normalized[i : i + q] for i in range(len(normalized) - q + 1)]


def suffixes(value: str, min_length: int = 3) -> List[str]:
    """All suffixes of the normalised value with at least ``min_length`` characters.

    Used by suffix-array blocking: descriptions sharing a sufficiently long
    suffix of a blocking-key value are placed in the same block.
    """
    normalized = normalize(value).replace(" ", "")
    if len(normalized) < min_length:
        return [normalized] if normalized else []
    return [normalized[i:] for i in range(0, len(normalized) - min_length + 1)]


def prefix(value: str, length: int) -> str:
    """The first ``length`` characters of the normalised, space-free value."""
    normalized = normalize(value).replace(" ", "")
    return normalized[:length]


def uri_tokens(identifier: str) -> Tuple[str, str, List[str]]:
    """Split a URI-like identifier into (prefix, infix, infix tokens).

    Prefix--infix(--suffix) blocking for Web entities exploits the observation
    that URIs frequently encode naming information: the *prefix* is the
    namespace (authority + path head), and the *infix* is the local,
    name-bearing part.  For ``"http://dbpedia.org/resource/Berlin_Wall"`` the
    prefix is ``"http://dbpedia.org/resource"`` and the infix ``"Berlin_Wall"``.

    Returns a triple ``(prefix, infix, tokens-of-infix)``.
    """
    if not identifier:
        return "", "", []
    trimmed = identifier.rstrip("/#")
    pieces = _URI_SPLIT_RE.split(trimmed)
    pieces = [p for p in pieces if p]
    if not pieces:
        return "", "", []
    infix = pieces[-1]
    prefix_part = trimmed[: len(trimmed) - len(infix)].rstrip("/#:")
    tokens = tokenize(infix.replace("_", " ").replace("-", " "))
    return prefix_part, infix, tokens


def sorted_tokens_by_rarity(tokens: Iterable[str], document_frequency: dict) -> List[str]:
    """Order tokens from rarest to most frequent (global ordering for prefix filtering).

    String-similarity joins with prefix filtering require a total order on
    tokens; ordering by ascending document frequency minimises the expected
    size of the inverted-index postings that must be scanned.
    """
    return sorted(set(tokens), key=lambda t: (document_frequency.get(t, 0), t))
