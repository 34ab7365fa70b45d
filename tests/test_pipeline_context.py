"""Tests for the shared columnar pipeline context.

Covers three guarantees: the derived token views (blocking keys, TF-IDF fit,
matching profiles) are bit-identical to the per-stage tokenising paths; a
full ``ERWorkflow.run`` produces exactly the output of a run whose
components never read the context (a builder and a matcher subclass, which
tokenise for themselves); and -- the single-interning guarantee -- a default
workflow run tokenises every attribute value exactly once.
"""

import importlib

import pytest

# ``import repro.text.tokenize as ...`` would resolve to the *function* the
# package __init__ re-exports under the same name; fetch the module itself
tokenize_module = importlib.import_module("repro.text.tokenize")
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
)
from repro.core.config import WorkflowConfig
from repro.core.context import PipelineContext
from repro.core.workflow import ERWorkflow, default_workflow
from repro.datasets import (
    DatasetConfig,
    generate_clean_clean_task,
    generate_dirty_dataset,
)
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.text.profile_store import ProfileStore
from repro.text.tokenize import DEFAULT_STOP_WORDS
from repro.text.vectorizer import TfIdfVectorizer


@pytest.fixture(scope="module")
def dirty():
    return generate_dirty_dataset(
        DatasetConfig(num_entities=70, duplicates_per_entity=1.4, domain="person", seed=41)
    )


@pytest.fixture(scope="module")
def clean_clean():
    return generate_clean_clean_task(
        DatasetConfig(num_entities=50, domain="person", seed=43)
    )


class SelfTokenisingBlocking(TokenBlocking):
    """Not the exact library type: the workflow runs its own ``build``."""


class SelfTokenisingMatcher(ProfileSimilarityMatcher):
    """Not the exact library type: decided pair by pair, from raw values."""


def self_tokenising_workflow(data, **options):
    """The default pipeline on components that do not read the shared context."""
    matcher = SelfTokenisingMatcher(
        threshold=0.55, vectorizer=TfIdfVectorizer().fit(iter(data))
    )
    return ERWorkflow(
        WorkflowConfig(**options), blocking=SelfTokenisingBlocking(), matcher=matcher
    )


def _block_tuples(blocks):
    return [
        (block.key, block.members, block.left_members, block.right_members)
        for block in blocks
    ]


class TestContextStructure:
    def test_ordinals_follow_iteration_order(self, clean_clean):
        task = clean_clean.task
        context = PipelineContext(task)
        expected = [d.identifier for d in task.left] + [d.identifier for d in task.right]
        assert context.ids == expected
        assert context.left_count == len(task.left)
        for ordinal, identifier in enumerate(expected):
            assert context.ordinal(identifier) == ordinal
            assert context.description(ordinal).identifier == identifier

    def test_ownership_is_identity(self, dirty):
        context = PipelineContext(dirty.collection)
        assert context.owns(dirty.collection)
        assert not context.owns(
            generate_dirty_dataset(DatasetConfig(num_entities=5, seed=1)).collection
        )

    def test_token_counts_match_transform_counts(self, dirty):
        context = PipelineContext(dirty.collection)
        from repro.text.tokenize import tokenize

        for ordinal, description in enumerate(context.descriptions):
            expected = {}
            for value in description.values():
                for token in tokenize(value):
                    expected[token] = expected.get(token, 0) + 1
            ids, counts = context.token_counts(ordinal)
            got = {context.token(t): c for t, c in zip(ids, counts)}
            assert got == expected


class TestDerivedViews:
    def test_fit_vectorizer_equals_full_fit(self, dirty, clean_clean):
        for data in (dirty.collection, clean_clean.task):
            fitted = TfIdfVectorizer().fit(iter(data))
            derived = PipelineContext(data).fit_vectorizer()
            assert derived._num_documents == fitted._num_documents
            assert derived._document_frequency == fitted._document_frequency
            for token in fitted._document_frequency:
                assert derived.idf(token) == fitted.idf(token)

    def test_fit_vectorizer_respects_min_token_length(self, dirty):
        data = dirty.collection
        fitted = TfIdfVectorizer(min_token_length=3).fit(iter(data))
        derived = PipelineContext(data).fit_vectorizer(min_token_length=3)
        assert derived._document_frequency == fitted._document_frequency

    @pytest.mark.parametrize(
        "builder_factory",
        [
            TokenBlocking,
            PrefixInfixSuffixBlocking,
            AttributeClusteringBlocking,
            lambda: TokenBlocking(max_block_fraction=0.3),
            lambda: TokenBlocking(stop_words=None, min_token_length=1),
        ],
    )
    def test_context_blocking_equals_per_engine_blocking(
        self, dirty, clean_clean, builder_factory
    ):
        for data in (dirty.collection, clean_clean.task):
            context = PipelineContext(data)
            plain = BlockingEngine(builder_factory()).build(data)
            shared = BlockingEngine(builder_factory(), context=context).build(data)
            assert _block_tuples(shared) == _block_tuples(plain)

    def test_foreign_data_ignores_context(self, dirty):
        other = generate_dirty_dataset(DatasetConfig(num_entities=20, seed=2)).collection
        context = PipelineContext(dirty.collection)
        engine = BlockingEngine(TokenBlocking(), context=context)
        blocks = engine.build(other)  # falls back to per-engine interning
        assert _block_tuples(blocks) == _block_tuples(BlockingEngine(TokenBlocking()).build(other))

    def test_profiles_bit_identical(self, dirty):
        data = dirty.collection
        context = PipelineContext(data)
        vectorizer = TfIdfVectorizer().fit(iter(data))
        plain_store = ProfileStore(vectorizer=vectorizer)
        shared_store = ProfileStore(vectorizer=context.fit_vectorizer(), context=context)
        for description in data:
            plain = plain_store.profile(description)
            shared = shared_store.profile(description)
            assert plain.norm == shared.norm
            plain_weights = {
                plain_store.token(t): w
                for t, w in zip(plain.token_ids, plain.weights or ())
            }
            shared_weights = {
                shared_store.token(t): w
                for t, w in zip(shared.token_ids, shared.weights or ())
            }
            assert plain_weights == shared_weights

    def test_set_mode_profiles_bit_identical(self, dirty):
        data = dirty.collection
        context = PipelineContext(data)
        plain_store = ProfileStore(stop_words=DEFAULT_STOP_WORDS, min_token_length=2)
        shared_store = ProfileStore(
            stop_words=DEFAULT_STOP_WORDS, min_token_length=2, context=context
        )
        for description in data:
            plain = {plain_store.token(t) for t in plain_store.profile(description).token_ids}
            shared = {shared_store.token(t) for t in shared_store.profile(description).token_ids}
            assert plain == shared

    def test_replaced_description_bypasses_context_columns(self, dirty):
        """A new object under a known identifier must not serve stale columns."""
        data = dirty.collection
        context = PipelineContext(data)
        store = ProfileStore(stop_words=None, min_token_length=1, context=context)
        original = next(iter(data))
        replacement = original.copy()
        replacement.add("extra", "zzzuniquetoken")
        profile = store.profile(replacement)
        token_strings = {store.token(t) for t in profile.token_ids}
        assert "zzzuniquetoken" in token_strings

    def test_matching_engine_decisions_identical_with_context(self, dirty):
        data = dirty.collection
        context = PipelineContext(data)
        comparisons = list(
            BlockingEngine(TokenBlocking()).build(data).distinct_comparisons()
        )[:300]
        matcher = ProfileSimilarityMatcher(
            threshold=0.55, vectorizer=TfIdfVectorizer().fit(iter(data))
        )
        matcher_shared = ProfileSimilarityMatcher(
            threshold=0.55, vectorizer=context.fit_vectorizer()
        )
        plain = MatchingEngine(matcher).decide_all(comparisons, data)
        shared = MatchingEngine(matcher_shared, context=context).decide_all(
            comparisons, data
        )
        assert [(d.pair, d.similarity, d.is_match) for d in plain] == [
            (d.pair, d.similarity, d.is_match) for d in shared
        ]


class TestWorkflowEquivalence:
    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    def test_shared_context_run_is_bit_identical(self, dirty, clean_clean, kind):
        dataset = dirty if kind == "dirty" else clean_clean
        data = dataset.collection if kind == "dirty" else dataset.task
        results = {True: default_workflow(iterate_merges=True).run(data, dataset.ground_truth)}
        with pytest.warns(RuntimeWarning, match="SelfTokenisingBlocking"):
            results[False] = self_tokenising_workflow(data, iterate_merges=True).run(
                data, dataset.ground_truth
            )
        stages = [stage.stage for stage in results[False].report]
        assert "blocking[token_blocking@oracle]" in stages
        assert "matching[weight_order@array+pairwise]" in stages
        assert results[True].iterations == results[False].iterations
        assert results[True].matches == results[False].matches
        assert (
            results[True].comparisons_executed == results[False].comparisons_executed
        )
        assert results[True].curve.history() == results[False].curve.history()
        assert results[True].clusters == results[False].clusters


class TestSingleInterning:
    def _count_normalize_calls(self, monkeypatch):
        calls = []
        original = tokenize_module.normalize

        def counting(value):
            calls.append(value)
            return original(value)

        # ``tokenize`` resolves ``normalize`` through its module globals, so
        # patching the module attribute intercepts every tokenisation no
        # matter which module called it
        monkeypatch.setattr(tokenize_module, "normalize", counting)
        return calls

    def test_default_workflow_tokenises_each_value_exactly_once(
        self, dirty, monkeypatch
    ):
        data = dirty.collection
        num_values = sum(len(description.values()) for description in data)
        calls = self._count_normalize_calls(monkeypatch)
        default_workflow().run(data, dirty.ground_truth)
        assert len(calls) == num_values

    def test_merge_iteration_only_tokenises_merged_descriptions(
        self, dirty, monkeypatch
    ):
        """With merging enabled, extra tokenisation is only for merge products."""
        data = dirty.collection
        num_values = sum(len(description.values()) for description in data)
        calls = self._count_normalize_calls(monkeypatch)
        result = default_workflow(iterate_merges=True).run(data, dirty.ground_truth)
        extra = len(calls) - num_values
        assert extra >= 0
        # every original value was tokenised exactly once; anything beyond
        # that belongs to transient merged descriptions ("a+b" identifiers)
        if result.iterations == 0:
            assert extra == 0

    def test_self_tokenising_components_tokenise_several_times(self, dirty, monkeypatch):
        """Sanity check of the counter: components that do not read the
        context pay their own passes on top of the interning one."""
        data = dirty.collection
        num_values = sum(len(description.values()) for description in data)
        workflow = self_tokenising_workflow(data)
        calls = self._count_normalize_calls(monkeypatch)
        with pytest.warns(RuntimeWarning):
            workflow.run(data, dirty.ground_truth)
        assert len(calls) >= 2 * num_values

    @pytest.mark.parametrize(
        "blocking",
        (
            "minhash_lsh",
            "canopy",
            "sorted_neighborhood",
            "extended_sorted_neighborhood",
            "similarity_join",
        ),
    )
    def test_ported_schemes_tokenise_each_value_exactly_once(
        self, dirty, monkeypatch, blocking
    ):
        """Every newly ported family rides the context: zero extra tokenisation."""
        data = dirty.collection
        num_values = sum(len(description.values()) for description in data)
        calls = self._count_normalize_calls(monkeypatch)
        default_workflow(blocking=blocking).run(data, dirty.ground_truth)
        assert len(calls) == num_values
