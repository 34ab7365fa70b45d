"""TF-IDF weighting of entity descriptions and weighted cosine similarity.

Matching highly heterogeneous descriptions benefits from down-weighting
tokens that appear in many descriptions (e.g. "university", "john") and
up-weighting rare, discriminative tokens.  The :class:`TfIdfVectorizer` fits
document frequencies over a collection of descriptions and produces sparse
weight vectors used by value matchers and by the ARCS-style weighting in
meta-blocking.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.datamodel.description import EntityDescription
from repro.text.tokenize import tokenize

import numpy as _np


def l2_norm(vector: Mapping[str, float]) -> float:
    """L2 norm of a sparse weight vector, exactly rounded via :func:`math.fsum`.

    ``fsum`` makes the result independent of the accumulation order, so the
    norm of a vector is the same float whether it is derived from a ``dict``
    (insertion order) or from a sorted columnar array (see
    :mod:`repro.text.profile_store`).
    """
    return math.sqrt(math.fsum(w * w for w in vector.values()))


class SparseVector(Dict[str, float]):
    """A sparse ``token -> weight`` vector carrying its L2 norm.

    :meth:`TfIdfVectorizer.transform` returns these so that
    :func:`weighted_cosine` never recomputes ``sqrt(sum(w * w))`` for a vector
    that is compared many times.  The norm is computed lazily on first access
    and **invalidated by every mutating dict operation**, so a caller that
    edits the vector after ``transform`` still gets correct similarities.
    The class is a plain ``dict`` otherwise and remains interchangeable with
    one.
    """

    __slots__ = ("_norm",)

    def __init__(self, weights=(), norm: Optional[float] = None) -> None:
        super().__init__(weights)
        self._norm = norm

    @property
    def norm(self) -> float:
        """The L2 norm of the current weights (cached until a mutation)."""
        if self._norm is None:
            self._norm = l2_norm(self)
        return self._norm

    def __setitem__(self, key, value) -> None:
        self._norm = None
        super().__setitem__(key, value)

    def __delitem__(self, key) -> None:
        self._norm = None
        super().__delitem__(key)

    def pop(self, *args):
        self._norm = None
        return super().pop(*args)

    def popitem(self):
        self._norm = None
        return super().popitem()

    def clear(self) -> None:
        self._norm = None
        super().clear()

    def update(self, *args, **kwargs) -> None:
        self._norm = None
        super().update(*args, **kwargs)

    def setdefault(self, key, default=None):
        self._norm = None
        return super().setdefault(key, default)


def weighted_cosine(first: Mapping[str, float], second: Mapping[str, float]) -> float:
    """Cosine similarity of two sparse weight vectors (dicts token -> weight).

    Norms precomputed by :class:`SparseVector` are reused; plain dicts fall
    back to computing them on the fly.  The dot product goes through
    :func:`math.fsum`, so the result does not depend on which operand's tokens
    are iterated first -- the property that lets the batched matching engine
    reproduce this function bit for bit from columnar profiles.
    """
    if not first or not second:
        return 0.0
    # iterate over the smaller vector
    if len(second) < len(first):
        first, second = second, first
    products = [
        weight * other
        for token, weight in first.items()
        if (other := second.get(token)) is not None
    ]
    dot = math.fsum(products)
    if dot == 0.0:
        return 0.0
    norm_a = first.norm if isinstance(first, SparseVector) else l2_norm(first)
    norm_b = second.norm if isinstance(second, SparseVector) else l2_norm(second)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


class TfIdfVectorizer:
    """Fits token document frequencies and vectorises descriptions.

    The vectoriser treats each entity description as one document whose
    tokens are the union of the tokens of all its attribute values
    (schema-agnostic, as required for the Web of data where attribute names
    are not comparable across KBs).
    """

    def __init__(self, min_token_length: int = 1) -> None:
        self.min_token_length = min_token_length
        self._document_frequency: Dict[str, int] = {}
        self._num_documents = 0

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    @classmethod
    def from_document_frequencies(
        cls,
        document_frequency: Mapping[str, int],
        num_documents: int,
        min_token_length: int = 1,
    ) -> "TfIdfVectorizer":
        """A fitted vectoriser from precomputed document frequencies.

        Used by :class:`~repro.core.context.PipelineContext` to fit from its
        interned postings instead of a second tokenisation pass.  Because the
        frequencies and the document count are exact integers, the resulting
        ``idf`` values are bit-identical to a :meth:`fit` pass that counted
        the same documents.
        """
        if num_documents < 0:
            raise ValueError("num_documents must be non-negative")
        vectorizer = cls(min_token_length=min_token_length)
        vectorizer._document_frequency = dict(document_frequency)
        vectorizer._num_documents = num_documents
        return vectorizer

    def fit(self, descriptions: Iterable[EntityDescription]) -> "TfIdfVectorizer":
        """Count in how many descriptions each token appears."""
        for description in descriptions:
            self._num_documents += 1
            seen = set()
            for value in description.values():
                for token in tokenize(value, min_length=self.min_token_length):
                    if token not in seen:
                        seen.add(token)
                        self._document_frequency[token] = (
                            self._document_frequency.get(token, 0) + 1
                        )
        return self

    @property
    def num_documents(self) -> int:
        return self._num_documents

    @property
    def vocabulary_size(self) -> int:
        return len(self._document_frequency)

    def document_frequency(self, token: str) -> int:
        return self._document_frequency.get(token, 0)

    def idf(self, token: str) -> float:
        """Smoothed inverse document frequency ``ln(1 + N / (1 + df))``."""
        if self._num_documents == 0:
            return 0.0
        df = self._document_frequency.get(token, 0)
        return math.log(1.0 + self._num_documents / (1.0 + df))

    def idf_column(self, tokens: Sequence[str]):
        """:meth:`idf` of every token of ``tokens`` as a float64 array: the
        quotients in one vector expression (the scalar one's IEEE
        operations), then :func:`math.log` per entry (``np.log`` need not
        round like it)."""
        if self._num_documents == 0:
            return _np.zeros(len(tokens))
        frequencies = _np.fromiter(
            map(self._document_frequency.get, tokens, repeat(0)), _np.float64, len(tokens)
        )
        quotients = 1.0 + self._num_documents / (1.0 + frequencies)
        return _np.fromiter(map(math.log, quotients.tolist()), _np.float64, len(tokens))

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def transform(
        self,
        description: EntityDescription,
        attributes: Optional[Sequence[str]] = None,
    ) -> "SparseVector":
        """Return the sparse TF-IDF vector of one description.

        The returned :class:`SparseVector` carries its L2 norm, precomputed at
        build time so similarity computations can reuse it.
        """
        counts: Dict[str, int] = {}
        values = (
            description.values()
            if attributes is None
            else tuple(v for a in attributes for v in description.values(a))
        )
        for value in values:
            for token in tokenize(value, min_length=self.min_token_length):
                counts[token] = counts.get(token, 0) + 1
        if not counts:
            return SparseVector()
        max_count = max(counts.values())
        return SparseVector(
            (token, (0.5 + 0.5 * count / max_count) * self.idf(token))
            for token, count in counts.items()
        )

    def similarity(
        self,
        first: EntityDescription,
        second: EntityDescription,
        attributes: Optional[Sequence[str]] = None,
    ) -> float:
        """Weighted cosine similarity of two descriptions."""
        return weighted_cosine(
            self.transform(first, attributes), self.transform(second, attributes)
        )
