"""Unit tests for the columnar profile store behind the batch matching engine."""

from __future__ import annotations

import math

import numpy
import pytest

from repro.datamodel.description import EntityDescription
from repro.text.profile_store import ProfileStore
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set
from repro.text.vectorizer import TfIdfVectorizer


def alan() -> EntityDescription:
    return EntityDescription("a1", {"name": "Alan Turing", "city": "London"})


def grace() -> EntityDescription:
    return EntityDescription("b1", {"name": "Grace Hopper", "city": "New York"})


class TestInterning:
    def test_ids_are_dense_and_stable(self):
        store = ProfileStore()
        first = store.intern("alan")
        second = store.intern("turing")
        assert (first, second) == (0, 1)
        assert store.intern("alan") == first  # idempotent
        assert store.token(first) == "alan"
        assert store.vocabulary_size == 2

    def test_vocabulary_is_shared_across_profiles(self):
        store = ProfileStore(stop_words=None, min_token_length=1)
        profile_a = store.profile(EntityDescription("x", {"name": "alan turing"}))
        profile_b = store.profile(EntityDescription("y", {"name": "turing machine"}))
        shared = set(profile_a.token_ids) & set(profile_b.token_ids)
        assert len(shared) == 1  # "turing" got the same id in both profiles


class TestSetModeProfiles:
    def test_profile_matches_token_set(self):
        store = ProfileStore(stop_words=DEFAULT_STOP_WORDS, min_token_length=2)
        description = alan()
        profile = store.profile(description)
        expected = token_set(description.values(), stop_words=DEFAULT_STOP_WORDS, min_length=2)
        assert {store.token(i) for i in profile.token_ids} == expected
        assert list(profile.token_ids) == sorted(profile.token_ids)
        assert profile.weights is None and profile.norm == 0.0

    def test_cache_hits_and_misses(self):
        store = ProfileStore()
        description = alan()
        first = store.profile(description)
        second = store.profile(description)
        assert first is second
        assert (store.hits, store.misses) == (1, 1)

    def test_stale_object_under_same_identifier_is_rebuilt(self):
        store = ProfileStore(stop_words=None, min_token_length=1)
        old = EntityDescription("a1", {"name": "alan"})
        new = EntityDescription("a1", {"name": "grace"})
        old_profile = store.profile(old)
        new_profile = store.profile(new)
        assert new_profile is not old_profile
        assert {store.token(i) for i in new_profile.token_ids} == {"grace"}

    def test_invalidate_and_clear(self):
        store = ProfileStore()
        store.profile(alan())
        store.profile(grace())
        assert len(store) == 2
        assert store.invalidate("a1") and not store.invalidate("a1")
        assert len(store) == 1
        vocabulary = store.vocabulary_size
        store.clear()
        assert len(store) == 0
        assert store.vocabulary_size == vocabulary  # interned tokens survive


class TestTfIdfModeProfiles:
    def test_columns_are_bit_identical_to_transform(self):
        descriptions = [alan(), grace()]
        vectorizer = TfIdfVectorizer().fit(iter(descriptions))
        store = ProfileStore(vectorizer=vectorizer)
        assert store.mode == "tfidf"
        for description in descriptions:
            profile = store.profile(description)
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
        store = ProfileStore(vectorizer=vectorizer)
        profile = store.profile(EntityDescription("void", {}))
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
        return ProfileStore(
            vectorizer=vectorizer, min_token_length=min_token_length, context=context
        )

    @pytest.mark.parametrize("tfidf", [False, True])
    def test_ordinal_profiles_are_built_lazily_and_shared_with_profile(self, tfidf):
        store = self._store(tfidf)
        assert store.ordinal_profile(2).identifier == "b1"
        assert store._ordinal_profiles == [None, None, store.ordinal_profile(2), None]
        assert store.profile(store.context.description(2)) is store.ordinal_profile(2)
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
            assert (columns.keys[rows] // columns.stride == ordinal).all()
            if tfidf:
                assert columns.weights[rows].tolist() == list(profile.weights or ())
                assert columns.norms[ordinal] == pytest.approx(profile.norm, rel=1e-15)
        assert len(columns.sizes) == len(ptr) - 1 == 4
        assert (numpy.diff(columns.keys) > 0).all()
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
        with pytest.raises(ValueError, match="shared pipeline context"):
            ProfileStore().ordinal_profile(0)
        with pytest.raises(ValueError, match="shared pipeline context"):
            ProfileStore().columns()

    def test_build_does_not_cache(self):
        store = ProfileStore()
        profile = store.build(alan())
        assert list(profile.token_ids) == list(store.profile(alan()).token_ids)
        assert len(store) == 1 and store.misses == 1
        store.build(grace())
        assert len(store) == 1
