"""Text processing substrate: tokenisation, normalisation and string similarity.

Every blocking and matching algorithm in the library ultimately operates on
tokens or character sequences extracted from attribute values.  This package
centralises:

* :mod:`repro.text.tokenize` -- normalisation, word tokenisation, character
  q-grams, blocking-key extraction helpers.
* :mod:`repro.text.similarity` -- set, sequence and hybrid string similarity
  measures (Jaccard, Dice, overlap, cosine, Levenshtein, Jaro, Jaro--Winkler,
  Monge--Elkan).
* :mod:`repro.text.vectorizer` -- TF-IDF weighting and weighted cosine
  similarity over token vectors.
* :mod:`repro.text.profile_store` -- columnar token profiles over a pipeline context
  (interned token ids, TF-IDF weight columns, precomputed norms) backing the
  batched matching engine.
"""

from repro.text.similarity import (
    cosine_similarity,
    dice_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
    overlap_coefficient,
)
from repro.text.tokenize import (
    normalize,
    qgrams,
    token_set,
    tokenize,
)
from repro.text.profile_store import Profile, ProfileStore
from repro.text.vectorizer import SparseVector, TfIdfVectorizer, l2_norm, weighted_cosine

__all__ = [
    "Profile",
    "ProfileStore",
    "SparseVector",
    "TfIdfVectorizer",
    "cosine_similarity",
    "dice_similarity",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "l2_norm",
    "levenshtein_distance",
    "levenshtein_similarity",
    "monge_elkan_similarity",
    "normalize",
    "overlap_coefficient",
    "qgrams",
    "token_set",
    "tokenize",
    "weighted_cosine",
]
