"""MinHash / LSH blocking: approximate similarity-join blocking.

The similarity-join view of blocking ("identify all pairs of descriptions
whose string values similarities are above a certain threshold ... without
computing the similarity of all pairs") can also be realised approximately
with locality-sensitive hashing: each description's token set is summarised by
a MinHash signature, the signature is split into bands, and two descriptions
co-occur in a block whenever they agree on all rows of at least one band.  The
probability of sharing a band is ``1 - (1 - s^r)^b`` for Jaccard similarity
``s``, ``b`` bands and ``r`` rows per band, which approximates a step function
around the similarity threshold ``(1/b)^(1/r)``.

Compared to the exact prefix-filtering join (:mod:`repro.blocking.similarity_join`)
LSH blocking trades exactness for an indexing cost that is linear in the
number of descriptions and independent of the pair-similarity distribution.

Seed handling
-------------
The whole hash family derives from the single ``seed`` argument: one
``random.Random(seed)`` stream yields the per-permutation coefficient pairs
``(a_i, b_i)`` in interleaved order (``a_0, b_0, a_1, b_1, ...``), with
``a_i`` uniform on ``[1, 2**32 - 1]`` and ``b_i`` uniform on
``[0, 2**61 - 2]``.  Keeping the multipliers in 32 bits bounds
``a_i * h(token)`` by ``2**64`` for the 32-bit token hashes, so the build
evaluates the identical family in vectorised ``uint64`` arithmetic
(``((a * h) % P + b) % P == (a * h + b) % P`` exactly, since
``(a * h) % P + b < 2**62``).  Signatures are therefore reproducible
bit-for-bit between :meth:`MinHashSignature.signature` and the build, from
the seed alone.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.blocking.base import BlockBuilder, BlockCollection, ERInput, check_count, interned
from repro.blocking.columns import BlockColumns, TokenColumnView, append_posting, concatenated
from repro.text.tokenize import DEFAULT_STOP_WORDS, check_min_token_length

import numpy as _np

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def _token_hash(token: str) -> int:
    """Stable 32-bit hash of a token (Python's ``hash`` is salted per process)."""
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class MinHashSignature:
    """A family of ``num_hashes`` universal hash functions producing MinHash signatures.

    The coefficients come from one ``random.Random(seed)`` stream, drawn
    interleaved per permutation: ``a_i = randint(1, 2**32 - 1)`` then
    ``b_i = randint(0, 2**61 - 2)`` (see the module docstring for why the
    multipliers stay within 32 bits).
    """

    def __init__(self, num_hashes: int = 64, seed: int = 1) -> None:
        if num_hashes < 1:
            raise ValueError("num_hashes must be positive")
        rng = random.Random(seed)
        self.num_hashes = num_hashes
        self.seed = seed
        coefficients_a: List[int] = []
        coefficients_b: List[int] = []
        for _ in range(num_hashes):
            coefficients_a.append(rng.randint(1, _MAX_HASH))
            coefficients_b.append(rng.randint(0, _MERSENNE_PRIME - 1))
        self._coefficients_a = coefficients_a
        self._coefficients_b = coefficients_b

    def signature(self, tokens: Iterable[str]) -> Tuple[int, ...]:
        """MinHash signature of a token set (all-``MAX_HASH`` for the empty set)."""
        hashed = [_token_hash(token) for token in tokens]
        return self.signature_of_hashes(hashed)

    def signature_of_hashes(self, hashed: Sequence[int]) -> Tuple[int, ...]:
        """Signature of pre-hashed token values (the inner kernel of :meth:`signature`)."""
        if not hashed:
            return tuple([_MAX_HASH] * self.num_hashes)
        signature = []
        for a, b in zip(self._coefficients_a, self._coefficients_b):
            signature.append(min(((a * value + b) % _MERSENNE_PRIME) & _MAX_HASH for value in hashed))
        return tuple(signature)

    @staticmethod
    def estimate_jaccard(first: Sequence[int], second: Sequence[int]) -> float:
        """Estimated Jaccard similarity: fraction of agreeing signature positions."""
        if not first or len(first) != len(second):
            raise ValueError("signatures must be non-empty and of equal length")
        agreements = sum(1 for a, b in zip(first, second) if a == b)
        return agreements / len(first)


class MinHashLSHBlocking(BlockBuilder):
    """LSH banding over MinHash signatures of the descriptions' token sets.

    Parameters
    ----------
    num_bands, rows_per_band:
        The signature has ``num_bands * rows_per_band`` positions; two
        descriptions co-occur whenever one band of their signatures is
        identical.  The implied similarity threshold is roughly
        ``(1 / num_bands) ** (1 / rows_per_band)``.
    seed:
        Seed of the hash family (fixed for reproducibility).
    """

    name = "minhash_lsh"

    def __init__(
        self,
        num_bands: int = 16,
        rows_per_band: int = 4,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
        seed: int = 1,
    ) -> None:
        self.num_bands = check_count("num_bands", num_bands, 1)
        self.rows_per_band = check_count("rows_per_band", rows_per_band, 1)
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = check_min_token_length(min_token_length)
        self._minhash = MinHashSignature(num_hashes=num_bands * rows_per_band, seed=seed)

    @property
    def approximate_threshold(self) -> float:
        """The Jaccard similarity at which the banding curve crosses ~50% recall."""
        return (1.0 / self.num_bands) ** (1.0 / self.rows_per_band)

    def build(self, data: ERInput, context=None) -> BlockCollection:
        """One signature matrix over the token columns, integer band bucketing.

        Every distinct token is md5-hashed once, the signatures are the
        universal-hash minima of :meth:`MinHashSignature.signature_of_hashes`
        (:func:`_signature_rows`), bands bucket by integer tuples, and the
        blocks come out in the sorted order of their key strings
        ``b<band>:<v1>-<v2>-...``.  Descriptions without a token join no band.
        """
        view = TokenColumnView.from_context(
            interned(data, context), self.stop_words, self.min_token_length
        )
        hash_cache: Dict[int, int] = {}
        token_of = view.token_of
        entities: List[int] = []
        hashed_columns: List[array] = []
        for ordinal, column in enumerate(view.columns):
            if not len(column):
                continue
            hashed = array("q")
            for token_id in column:
                value = hash_cache.get(token_id)
                if value is None:
                    value = hash_cache[token_id] = _token_hash(token_of(token_id))
                hashed.append(value)
            entities.append(ordinal)
            hashed_columns.append(hashed)

        rows = _signature_rows(self._minhash, hashed_columns)
        rows_per_band = self.rows_per_band
        postings: Dict[Tuple[int, ...], array] = {}
        for ordinal, signature in zip(entities, rows):
            for band in range(self.num_bands):
                start = band * rows_per_band
                key = (band, *signature[start : start + rows_per_band])
                append_posting(postings, key, ordinal)
        columns = BlockColumns.from_postings(
            [f"b{key[0]}:" + "-".join(map(str, key[1:])) for key in postings],
            *concatenated(postings),
            view.ids,
            view.left_count,
            None,
        )
        return BlockCollection.from_columns(columns, name=self.name)


def _signature_rows(
    minhash: MinHashSignature, hashed_columns: List[array]
) -> List[Sequence[int]]:
    """One signature per (non-empty) hashed column, as ``num_hashes``-long rows.

    Each permutation is evaluated over the concatenation of all columns and
    segment minima are taken with ``np.minimum.reduceat``; the integers are
    those of :meth:`MinHashSignature.signature_of_hashes` (see the module
    docstring).
    """
    if not hashed_columns:
        return []
    np = _np
    lengths = [len(column) for column in hashed_columns]
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(np.asarray(lengths[:-1], dtype=np.int64), out=starts[1:])
    values = np.concatenate(
        [np.frombuffer(column, dtype=np.int64) for column in hashed_columns]
    ).astype(np.uint64)
    prime = np.uint64(_MERSENNE_PRIME)
    mask = np.uint64(_MAX_HASH)
    rows = np.empty((minhash.num_hashes, len(hashed_columns)), dtype=np.uint64)
    for position, (a, b) in enumerate(zip(minhash._coefficients_a, minhash._coefficients_b)):
        # (a*h) % P + b < 2**62, so the split form is exact in uint64
        permuted = (np.uint64(a) * values) % prime
        permuted += np.uint64(b)
        permuted %= prime
        permuted &= mask
        np.minimum.reduceat(permuted, starts, out=rows[position])
    return rows.T.tolist()
