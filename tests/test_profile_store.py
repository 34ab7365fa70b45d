"""Unit tests for the columnar profile store behind the batch matching engine."""

from __future__ import annotations

import math

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import PipelineContext
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.text.profile_store import ProfileStore
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set
from repro.text.vectorizer import TfIdfVectorizer


def alan() -> EntityDescription:
    return EntityDescription("a1", {"name": "Alan Turing", "city": "London"})


def grace() -> EntityDescription:
    return EntityDescription("b1", {"name": "Grace Hopper", "city": "New York"})


def foreign_store(**options) -> ProfileStore:
    """A store over a context that owns neither :func:`alan` nor :func:`grace`:
    every profile below is tokenised by ``build``."""
    context = PipelineContext(EntityCollection([EntityDescription("other", {"name": "london"})]))
    return ProfileStore(context, **options)


class TestInterning:
    def test_ids_are_dense_and_stable(self):
        """The store interns into its context's vocabulary."""
        store = ProfileStore(PipelineContext(EntityCollection([])))
        first = store.intern("alan")
        second = store.intern("turing")
        assert (first, second) == (0, 1)
        assert store.intern("alan") == first  # idempotent
        assert store.token(first) == store.context.token(first) == "alan"
        assert store.vocabulary_size == store.context.vocabulary_size == 2

    def test_vocabulary_is_shared_across_profiles(self):
        store = foreign_store(stop_words=None, min_token_length=1)
        profile_a = store.build(EntityDescription("x", {"name": "alan turing"}))
        profile_b = store.build(EntityDescription("y", {"name": "turing machine"}))
        shared = set(profile_a.token_ids) & set(profile_b.token_ids)
        assert len(shared) == 1  # "turing" got the same id in both profiles


class TestSetModeProfiles:
    def test_profile_matches_token_set(self):
        store = foreign_store(stop_words=DEFAULT_STOP_WORDS, min_token_length=2)
        description = alan()
        profile = store.build(description)
        expected = token_set(description.values(), stop_words=DEFAULT_STOP_WORDS, min_length=2)
        assert {store.token(i) for i in profile.token_ids} == expected
        assert list(profile.token_ids) == sorted(profile.token_ids)
        assert profile.weights is None and profile.norm == 0.0

    def test_stale_object_under_same_identifier_is_rebuilt(self):
        old = EntityDescription("a1", {"name": "alan"})
        store = ProfileStore(PipelineContext(EntityCollection([old])))
        new = EntityDescription("a1", {"name": "grace"})
        assert store.build(old) is store.ordinal_profile(0)
        new_profile = store.build(new)
        assert new_profile is not store.ordinal_profile(0)
        assert {store.token(i) for i in new_profile.token_ids} == {"grace"}


class TestTfIdfModeProfiles:
    def test_columns_are_bit_identical_to_transform(self):
        descriptions = [alan(), grace()]
        vectorizer = TfIdfVectorizer().fit(iter(descriptions))
        store = foreign_store(vectorizer=vectorizer)
        assert store.mode == "tfidf"
        for description in descriptions:
            profile = store.build(description)
            vector = vectorizer.transform(description)
            rebuilt = {
                store.token(i): weight
                for i, weight in zip(profile.token_ids, profile.weights)
            }
            assert rebuilt == vector  # exact float equality, key by key
            assert profile.norm == vector.norm
            assert profile.norm == math.sqrt(math.fsum(w * w for w in vector.values()))

    def test_empty_description_has_empty_profile(self):
        vectorizer = TfIdfVectorizer().fit(iter([alan()]))
        store = foreign_store(vectorizer=vectorizer)
        profile = store.build(EntityDescription("void", {}))
        assert len(profile) == 0
        assert profile.norm == 0.0


class TestContextOrdinalViews:
    """Profiles by context ordinal: exact ones one at a time, all as one CSR."""

    @staticmethod
    def _store(tfidf: bool, min_token_length: int = 1) -> ProfileStore:
        from repro.core.context import PipelineContext
        from repro.datamodel.collection import EntityCollection

        context = PipelineContext(
            EntityCollection(
                [
                    alan(),
                    EntityDescription("void", {}),
                    grace(),
                    # "of" twice: the only repeated token, and it is short
                    EntityDescription("c1", {"name": "Tower of London of old"}),
                ]
            )
        )
        vectorizer = context.fit_vectorizer(min_token_length) if tfidf else None
        return ProfileStore(context, vectorizer=vectorizer, min_token_length=min_token_length)

    @pytest.mark.parametrize("tfidf", [False, True])
    def test_ordinal_profiles_are_built_lazily_and_shared_with_profile(self, tfidf):
        store = self._store(tfidf)
        assert store.ordinal_profile(2).identifier == "b1"
        assert store._ordinal_profiles == [None, None, store.ordinal_profile(2), None]
        assert store.build(store.context.description(2)) is store.ordinal_profile(2)
        assert [store.ordinal_profile(o).identifier for o in range(4)] == [
            "a1", "void", "b1", "c1"
        ]

    @pytest.mark.parametrize("min_token_length", [1, 3])
    @pytest.mark.parametrize("tfidf", [False, True])
    def test_columns_hold_the_floats_of_the_exact_profiles(self, tfidf, min_token_length):
        """Same ids and bit-equal weights, the filter applied before the
        maximal count; only the norms are summed differently."""
        store = self._store(tfidf, min_token_length)
        columns = store.columns()
        assert store.columns() is columns
        assert (columns.weights is not None) == tfidf
        ptr = columns.ptr
        for ordinal in range(4):
            profile = store.ordinal_profile(ordinal)
            rows = slice(ptr[ordinal], ptr[ordinal + 1])
            assert columns.ids[rows].tolist() == list(profile.token_ids)
            assert columns.sizes[ordinal] == len(profile)
            assert (numpy.diff(columns.ids[rows]) > 0).all()
            if tfidf:
                assert columns.weights[rows].tolist() == list(profile.weights or ())
                assert columns.norms[ordinal] == pytest.approx(profile.norm, rel=1e-15)
        assert len(columns.sizes) == len(ptr) - 1 == 4
        assert (columns.ids < columns.stride).all()
        # the transpose lists, per token id, the rows holding it in row order
        token_ptr, token_rows, token_weights, _slot = columns._transpose()
        for token_id in range(columns.stride):
            segment = slice(token_ptr[token_id], token_ptr[token_id + 1])
            holders = [o for o in range(4) if token_id in store.ordinal_profile(o).token_ids]
            assert token_rows[segment].tolist() == holders
            if tfidf:
                assert token_weights[segment].tolist() == [
                    dict(zip(store.ordinal_profile(o).token_ids, store.ordinal_profile(o).weights))[
                        token_id
                    ]
                    for o in holders
                ]

    def test_a_store_without_context_has_no_ordinals(self):
        with pytest.raises(TypeError):
            ProfileStore()

    def test_build_does_not_cache(self):
        store = self._store(tfidf=False)
        outsider = EntityDescription("outsider", {"name": "Alan Turing"})
        first, second = store.build(outsider), store.build(outsider)
        assert first is not second
        assert list(first.token_ids) == list(second.token_ids)
        assert store._ordinal_profiles is None


#: short words, so descriptions share tokens often; "x" falls to min length 2
_WORDS = st.sampled_from(["aa", "bb", "cc", "dd", "ee", "ff", "gg", "x"])


def _shared_reference(columns, first: int, second: int):
    """Per pair, the shared ids of the two rows in ascending order, their
    weight products summed left to right from ``0.0`` (set mode: counted)."""
    ptr, ids = columns.ptr, columns.ids.tolist()
    tfidf = columns.weights is not None
    weights = columns.weights.tolist() if tfidf else [1] * len(ids)
    row_a, row_b = (
        {ids[entry]: weights[entry] for entry in range(ptr[row], ptr[row + 1])}
        for row in (first, second)
    )
    total = 0.0 if tfidf else 0
    for token_id in sorted(row_a.keys() & row_b.keys()):
        total += row_a[token_id] * row_b[token_id]
    return total


@settings(max_examples=60, deadline=None)
@given(
    descriptions=st.lists(st.lists(_WORDS, max_size=9), min_size=1, max_size=12),
    picks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
    tfidf=st.booleans(),
)
def test_shared_equals_the_ordered_per_pair_sum(descriptions, picks, tfidf):
    """``ProfileColumns.shared`` is bit-equal to the per-pair reference: set
    and TF-IDF mode, empty rows, a row with itself, rows of unequal length."""
    collection = EntityCollection(
        [
            EntityDescription(f"d{index}", {"name": " ".join(words)})
            for index, words in enumerate(descriptions)
        ]
    )
    context = PipelineContext(collection)
    vectorizer = context.fit_vectorizer(2) if tfidf else None
    store = ProfileStore(context, min_token_length=2, vectorizer=vectorizer)
    columns = store.columns()
    size = len(descriptions)
    pairs = [(a % size, b % size) for a, b in picks] + [(0, 0), (0, size - 1)]
    first = [a for a, _ in pairs]
    second = [b for _, b in pairs]
    expected = [_shared_reference(columns, a, b) for a, b in pairs]
    assert columns.shared(first, second).tolist() == expected
    assert columns.shared([], []).tolist() == []
