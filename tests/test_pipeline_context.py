"""Tests for the shared columnar pipeline context.

Covers four guarantees: the chunked interning pass fills exactly the columns
of the token-by-token loop it replaced (``reference_columns``, kept here as
the reference) at every chunk size, whichever accessor comes first -- the
slot columns are derived on demand, by attribute-clustering blocking only,
and the stop-word/length mask follows the per-token rule; the derived
token views (blocking keys, TF-IDF fit, matching profiles) are bit-identical
to the per-stage tokenising paths; a full ``ERWorkflow.run`` produces exactly
the output of a run whose components never read the context (a builder and a
matcher subclass, which tokenise for themselves); and -- the
single-interning guarantee -- a default workflow run sends every
(description, attribute) slot through the chunk kernel exactly once and
splits no value on its own.
"""

import importlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# ``import repro.text.tokenize as ...`` would resolve to the *function* the
# package __init__ re-exports under the same name; fetch the module itself
tokenize_module = importlib.import_module("repro.text.tokenize")
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
)
from repro.core import context as context_module
from repro.core.config import WorkflowConfig
from repro.core.context import PipelineContext
from repro.core.growable import GrowableContext
from repro.core.workflow import ERWorkflow, default_workflow
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datasets import (
    DatasetConfig,
    generate_clean_clean_task,
    generate_dirty_dataset,
)
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.text.profile_store import ProfileStore
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set
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
    """Ignores the shared context: interns its input privately."""

    def build(self, data, context=None):
        return super().build(data)


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


def reference_columns(data):
    """The token-by-token interning loop the chunked pass replaced.

    One ``dict.get`` / count / append per token occurrence; the vocabulary
    order, ordinals and every column of ``PipelineContext`` must equal it.
    """
    if isinstance(data, CleanCleanTask):
        descriptions = list(data.left) + list(data.right)
        left_count = len(data.left)
    else:
        descriptions = list(data)
        left_count = -1
    token_ids = {}
    tokens = []
    ordinal = {}
    attribute_entries, token_counts, token_stream = [], [], []
    for description in descriptions:
        ordinal[description.identifier] = len(token_stream)
        entries = []
        merged = {}
        stream = []
        for attribute in description.attribute_names:
            counts = {}
            for value in description.values(attribute):
                for token in tokenize_module.tokenize(value):
                    token_id = token_ids.get(token)
                    if token_id is None:
                        token_id = len(tokens)
                        token_ids[token] = token_id
                        tokens.append(token)
                    counts[token_id] = counts.get(token_id, 0) + 1
                    merged[token_id] = merged.get(token_id, 0) + 1
                    stream.append(token_id)
            items = sorted(counts.items())
            entries.append((attribute, [t for t, _ in items], [c for _, c in items]))
        items = sorted(merged.items())
        attribute_entries.append(entries)
        token_counts.append(([t for t, _ in items], [c for _, c in items]))
        token_stream.append(stream)
    return {
        "ids": [description.identifier for description in descriptions],
        "ordinal": ordinal,
        "left_count": left_count,
        "tokens": tokens,
        "attribute_entries": attribute_entries,
        "token_counts": token_counts,
        "token_stream": token_stream,
    }


def interned_columns(context):
    """What ``PipelineContext`` serves, in ``reference_columns``' shape."""
    ordinals = range(context.num_descriptions)
    ptr, ids, counts = (column.tolist() for column in context.token_columns())
    token_counts = [
        tuple(column.tolist() for column in context.token_counts(o)) for o in ordinals
    ]
    # the whole-column accessor is the per-description one, concatenated
    assert [(ids[a:b], counts[a:b]) for a, b in zip(ptr, ptr[1:])] == token_counts
    return {
        "ids": context.ids,
        "ordinal": {identifier: context.ordinal(identifier) for identifier in context.ids},
        "left_count": context.left_count,
        "tokens": [context.token(t) for t in range(context.vocabulary_size)],
        "attribute_entries": [
            [(name, a.tolist(), c.tolist()) for name, a, c in context.attribute_entries(o)]
            for o in ordinals
        ],
        "token_counts": token_counts,
        "token_stream": [context.token_stream(o).tolist() for o in ordinals],
    }


def _odd_values_collection():
    """Values the word split treats specially, around chunk boundaries of 7."""
    plain = {"name": "Alan Turing", "city": ["London", "Wilmslow"]}
    descriptions = [
        EntityDescription("odd:0", {"name": "Zo\u00eb Caf\u00e9 CAF\u00c9", "note": "na\u00efve caf\u00e9"}),
        EntityDescription("odd:1", {"name": "\ufb01nal \ufb02ight \u2167 \u00bd", "cjk": "\u6771\u4eac"}),
        EntityDescription("odd:2", {"punct": ["---", "!!!"], "name": "alan"}),
        EntityDescription("odd:3"),  # no attributes, middle of a chunk
        EntityDescription("odd:4", {"ctrl": "The\x00Data\tBase data", "name": "data"}),
        EntityDescription("odd:5", {"cjk": ["\u6771\u4eac", "\u5927\u962a"]}),  # no token at all
        EntityDescription("odd:6"),  # no attributes, end of the first chunk of 7
        EntityDescription("odd:7", plain),
        EntityDescription("odd:8", {"name": "turing turing alan", "alias": "Alan"}),
        # the chunk kernel's separator and slot mark inside values
        EntityDescription("odd:9", {"punct": "---", "sep": ["x\x1fy|z", "|\x1f|", "\x1f"]}),
        EntityDescription("odd:10"),  # no attributes, end of the collection
    ]
    return EntityCollection(descriptions, name="odd")


#: text that exercises both word-split branches, values without tokens, the
#: kernel's separator and mark (``\x1f``, ``|``), the Kelvin sign, dotted I
#: and sigma
_value_text = st.text(
    alphabet="abcAB01 -.\t\x00\x1f|\u00e9\u00df\ufb01\u6771\u212a\u0130\u03a3",
    min_size=0,
    max_size=12,
)


@st.composite
def _generated_collections(draw):
    attributes = st.dictionaries(
        st.sampled_from(["name", "title", "note", "venue"]),
        st.one_of(_value_text, st.lists(_value_text, max_size=3)),
        max_size=3,
    )
    records = draw(st.lists(attributes, max_size=12))
    return EntityCollection(
        [EntityDescription(f"gen:{index}", record) for index, record in enumerate(records)],
        name="generated",
    )


@pytest.fixture(params=[1, 7, None], ids=["chunk1", "chunk7", "chunk-default"])
def chunk_size(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(context_module, "_CHUNK_DESCRIPTIONS", request.param)
    return request.param


class TestColumnsEqualReference:
    """The chunked pass reproduces the token-by-token loop, column for column."""

    @pytest.mark.parametrize("first", ["attribute_entries", "token_columns"])
    @pytest.mark.parametrize("kind", ["dirty", "clean_clean", "odd"])
    def test_fixture_columns(self, dirty, clean_clean, kind, chunk_size, first):
        data = {
            "dirty": dirty.collection,
            "clean_clean": clean_clean.task,
            "odd": _odd_values_collection(),
        }[kind]
        reference = reference_columns(data)
        context = PipelineContext(data)
        if first == "attribute_entries":
            # interns and derives the slot columns in one call
            entries = [(n, a.tolist(), c.tolist()) for n, a, c in context.attribute_entries(0)]
            assert entries == reference["attribute_entries"][0]
        else:
            context.token_columns()
            assert context._slots is None  # interned, slot columns not derived yet
        assert interned_columns(context) == reference

    def test_odd_values_hit_the_special_cases(self):
        reference = reference_columns(_odd_values_collection())
        entries = reference["attribute_entries"]
        tokens = reference["tokens"]
        assert [tokens[t] for t in reference["token_stream"][0]] == [
            "zoe", "cafe", "cafe", "naive", "cafe",
        ]
        assert [tokens[t] for t in reference["token_stream"][1]] == [
            "final", "flight", "viii", "12",
        ]
        assert entries[2][0] == ("punct", [], [])  # an attribute without tokens
        assert entries[3] == [] and entries[6] == [] and entries[10] == []
        assert [tokens[t] for t in reference["token_stream"][4]] == [
            "the", "data", "base", "data", "data",
        ]
        assert reference["token_stream"][5] == []
        assert [tokens[t] for t in reference["token_stream"][9]] == ["x", "y", "z"]
        assert [(name, counts) for name, _ids, counts in entries[9]] == [
            ("punct", []),
            ("sep", [1, 1, 1]),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        data=_generated_collections(),
        chunk=st.sampled_from([1, 7, context_module._CHUNK_DESCRIPTIONS]),
    )
    def test_generated_columns(self, data, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(context_module, "_CHUNK_DESCRIPTIONS", chunk)
            assert interned_columns(PipelineContext(data)) == reference_columns(data)

    def test_interrupted_pass_publishes_nothing(self, dirty, monkeypatch):
        """A pass that raises leaves the context un-interned, not truncated."""
        data = dirty.collection
        calls = []
        kernel = context_module.tokenize_slots

        def failing_once(slots):
            calls.append(slots)
            if len(calls) == 3:  # two chunks are interned, the third raises
                raise KeyboardInterrupt
            return kernel(slots)

        monkeypatch.setattr(context_module, "_CHUNK_DESCRIPTIONS", 16)
        monkeypatch.setattr(context_module, "tokenize_slots", failing_once)
        context = PipelineContext(data)
        with pytest.raises(KeyboardInterrupt):
            context.num_descriptions
        assert context.vocabulary_size == len(reference_columns(data)["tokens"])
        assert interned_columns(context) == reference_columns(data)
        assert context.num_descriptions == len(data)

    def test_interrupted_slot_derivation_publishes_nothing(self, dirty, monkeypatch):
        """A derivation that raises leaves no partial slot CSR; the next call succeeds."""
        data = dirty.collection
        monkeypatch.setattr(context_module, "_CHUNK_DESCRIPTIONS", 16)
        context = PipelineContext(data)
        context.token_columns()
        calls = []
        kernel = context_module._sorted_distinct

        def failing_once(*args):
            calls.append(args)
            if len(calls) == 2:  # one chunk of slots is derived, the second raises
                raise KeyboardInterrupt
            return kernel(*args)

        monkeypatch.setattr(context_module, "_sorted_distinct", failing_once)
        with pytest.raises(KeyboardInterrupt):
            list(context.attribute_entries(0))
        assert context._slots is None and context._slot_names is None
        assert interned_columns(context) == reference_columns(data)
        chunks = -(-len(data) // 16)
        assert len(calls) == 2 + chunks

    def test_token_on_a_fresh_context_interns_first(self, dirty):
        data = dirty.collection
        assert PipelineContext(data).token(0) == reference_columns(data)["tokens"][0]


class TestOnDemandSlots:
    """Only attribute-clustering blocking reads the slot columns, so only it
    derives them -- once per context."""

    @pytest.fixture
    def derived(self, monkeypatch):
        contexts = []
        derive = PipelineContext._derive_slots

        def counting_derive(context):
            contexts.append(context)
            derive(context)

        monkeypatch.setattr(PipelineContext, "_derive_slots", counting_derive)
        return contexts

    def test_default_workflow_never_derives_slots(self, dirty, derived):
        default_workflow().run(dirty.collection, dirty.ground_truth)
        assert derived == []

    @pytest.mark.parametrize("builder_factory", [TokenBlocking, PrefixInfixSuffixBlocking])
    def test_token_blocking_never_derives_slots(self, dirty, derived, builder_factory):
        data = dirty.collection
        BlockingEngine(builder_factory(), context=PipelineContext(data)).build(data)
        assert derived == []

    def test_attribute_clustering_derives_slots_once(self, dirty, derived):
        data = dirty.collection
        context = PipelineContext(data)
        engine = BlockingEngine(AttributeClusteringBlocking(), context=context)
        assert _block_tuples(engine.build(data)) == _block_tuples(engine.build(data))
        assert derived == [context]
        default_workflow(blocking="attribute_clustering").run(data, dirty.ground_truth)
        assert len(derived) == 2 and derived[1] is not context


#: stop words that hit the odd-values vocabulary, and none
_FILTER_STOP_WORDS = [None, DEFAULT_STOP_WORDS | {"alan", "data", "x"}]


def _per_token_flags(tokens, stop_words, min_length):
    stops = frozenset(stop_words or ())
    return np.array([len(token) >= min_length and token not in stops for token in tokens], bool)


class TestTokenFilter:
    """The C-level mask equals the per-token admission rule."""

    @pytest.mark.parametrize("stop_words", _FILTER_STOP_WORDS, ids=["no-stops", "stops"])
    @pytest.mark.parametrize("min_length", [0, 1, 2, 3])
    def test_batch_flags_follow_the_per_token_rule(self, stop_words, min_length):
        context = PipelineContext(_odd_values_collection())
        token_filter = context.token_filter(stop_words, min_length)
        tokens = [context.token(t) for t in range(context.vocabulary_size)]
        expected = _per_token_flags(tokens, stop_words, min_length)
        mask = token_filter.mask(len(tokens))
        assert mask.dtype == expected.dtype == np.bool_
        assert np.array_equal(mask, expected)
        assert list(map(token_filter.allows, range(len(tokens)))) == expected.tolist()

    @pytest.mark.parametrize("stop_words", _FILTER_STOP_WORDS, ids=["no-stops", "stops"])
    @pytest.mark.parametrize("min_length", [0, 1, 2, 3])
    def test_growable_flags_follow_the_per_token_rule(self, stop_words, min_length):
        growable = GrowableContext()
        token_filter = growable.token_filter(stop_words, min_length)
        for description in _odd_values_collection():
            growable.add_record(description)
            tokens = [growable.token(t) for t in range(growable.vocabulary_size)]
            expected = _per_token_flags(tokens, stop_words, min_length)
            mask = token_filter.mask(len(tokens))
            assert mask.dtype == expected.dtype == np.bool_
            assert np.array_equal(mask, expected)


class TestGrowableTwin:
    """``GrowableContext`` fed one record at a time interns like the batch pass."""

    @pytest.mark.parametrize("kind", ["dirty", "odd"])
    def test_record_by_record_equals_batch(self, dirty, kind, chunk_size):
        data = {"dirty": dirty.collection, "odd": _odd_values_collection()}[kind]
        batch = PipelineContext(data)
        growable = GrowableContext()
        for description in data:
            growable.add_record(description)
        assert growable._tokens == [batch.token(t) for t in range(batch.vocabulary_size)]
        for ordinal in range(batch.num_descriptions):
            ids, _counts = batch.token_counts(ordinal)
            assert list(growable.token_ids_of(ordinal)) == ids.tolist()


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

    def test_plain_token_build_reads_whole_columns(self, dirty, monkeypatch):
        """The postings come from the merged column at once: no per-token
        filter call, no per-token posting append -- and the same blocks."""
        from repro.blocking import token_blocking as token_module

        data = dirty.collection
        expected = _block_tuples(TokenBlocking().build(data))

        def per_token_call(*_args):
            raise AssertionError("per-token call in the whole-column build")

        monkeypatch.setattr(context_module.TokenFilter, "allows", per_token_call)
        monkeypatch.setattr(token_module, "append_posting", per_token_call)
        shared = BlockingEngine(TokenBlocking(), context=PipelineContext(data))
        assert _block_tuples(shared.build(data)) == expected

    def test_foreign_data_ignores_context(self, dirty):
        other = generate_dirty_dataset(DatasetConfig(num_entities=20, seed=2)).collection
        context = PipelineContext(dirty.collection)
        engine = BlockingEngine(TokenBlocking(), context=context)
        blocks = engine.build(other)  # falls back to per-engine interning
        assert _block_tuples(blocks) == _block_tuples(BlockingEngine(TokenBlocking()).build(other))

    def test_profiles_bit_identical(self, dirty):
        """The context-backed TF-IDF profiles are the transform's vectors,
        and the scores over them are ``matcher.similarity``, bit for bit."""
        data = dirty.collection
        context = PipelineContext(data)
        vectorizer = TfIdfVectorizer().fit(iter(data))
        store = ProfileStore(context, vectorizer=vectorizer)
        for ordinal, description in enumerate(data):
            profile = store.ordinal_profile(ordinal)
            vector = vectorizer.transform(description)
            assert profile.norm == vector.norm
            weights = {store.token(t): w for t, w in zip(profile.token_ids, profile.weights or ())}
            assert weights == vector
        matcher = ProfileSimilarityMatcher(threshold=0.5, vectorizer=vectorizer)
        descriptions = list(data)
        pairs = list(zip(descriptions, descriptions[1:] + descriptions[:1]))
        assert MatchingEngine(matcher, context=context).similarity_scores(pairs) == [
            matcher.similarity(first, second) for first, second in pairs
        ]

    def test_set_mode_profiles_bit_identical(self, dirty):
        data = dirty.collection
        context = PipelineContext(data)
        store = ProfileStore(context, stop_words=DEFAULT_STOP_WORDS, min_token_length=2)
        for ordinal, description in enumerate(data):
            shared = {store.token(t) for t in store.ordinal_profile(ordinal).token_ids}
            assert shared == token_set(
                description.values(), stop_words=DEFAULT_STOP_WORDS, min_length=2
            )
        for name in ("jaccard", "cosine"):
            matcher = ProfileSimilarityMatcher(
                threshold=0.5,
                stop_words=DEFAULT_STOP_WORDS,
                min_token_length=2,
                similarity_name=name,
            )
            descriptions = list(data)
            pairs = list(zip(descriptions, descriptions[1:] + descriptions[:1]))
            assert MatchingEngine(matcher, context=context).similarity_scores(pairs) == [
                matcher.similarity(first, second) for first, second in pairs
            ]

    def test_replaced_description_bypasses_context_columns(self, dirty):
        """A new object under a known identifier must not serve stale columns."""
        data = dirty.collection
        context = PipelineContext(data)
        store = ProfileStore(context, stop_words=None, min_token_length=1)
        original = next(iter(data))
        replacement = original.copy()
        replacement.add("extra", "zzzuniquetoken")
        assert store.build(original) is store.ordinal_profile(0)
        profile = store.build(replacement)
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
        results[False] = self_tokenising_workflow(data, iterate_merges=True).run(
            data, dataset.ground_truth
        )
        stages = [stage.stage for stage in results[False].report]
        assert "blocking[token_blocking]" in stages
        assert "matching[weight_order@array+pairwise]" in stages
        assert results[True].iterations == results[False].iterations
        assert results[True].matches == results[False].matches
        assert (
            results[True].comparisons_executed == results[False].comparisons_executed
        )
        assert results[True].curve.history() == results[False].curve.history()
        assert results[True].clusters == results[False].clusters


def _slots(data):
    """Every (description, attribute) slot's values, joined as the kernel sees them."""
    return Counter(
        " ".join(description.values(attribute))
        for description in data
        for attribute in description.attribute_names
    )


class TestSingleInterning:
    def _count_tokenisation(self, monkeypatch):
        """The slots the interning kernel sees and the per-value word splits."""
        slots, values = Counter(), []
        kernel, words = context_module.tokenize_slots, tokenize_module._words

        def counting_kernel(pieces):
            slots.update(pieces)
            return kernel(pieces)

        def counting_words(value, table=tokenize_module._WORD_TABLE):
            if table is tokenize_module._WORD_TABLE:  # not the kernel's own split
                values.append(value)
            return words(value, table)

        monkeypatch.setattr(context_module, "tokenize_slots", counting_kernel)
        # ``tokenize`` and ``normalize`` resolve their shared word split
        # through the module globals, so patching the module attribute
        # intercepts every per-value tokenisation, whichever module called it
        monkeypatch.setattr(tokenize_module, "_words", counting_words)
        return slots, values

    def test_default_workflow_tokenises_each_slot_exactly_once(self, dirty, monkeypatch):
        data = dirty.collection
        slots, values = self._count_tokenisation(monkeypatch)
        default_workflow().run(data, dirty.ground_truth)
        assert slots == _slots(data)
        assert values == []

    def test_merge_iteration_only_tokenises_merged_descriptions(
        self, dirty, monkeypatch
    ):
        """With merging enabled, extra tokenisation is only for merge products."""
        data = dirty.collection
        slots, values = self._count_tokenisation(monkeypatch)
        result = default_workflow(iterate_merges=True).run(data, dirty.ground_truth)
        # every original slot went through the kernel exactly once; a
        # per-value split belongs to a transient merged description
        assert slots == _slots(data)
        if result.iterations == 0:
            assert values == []

    def test_self_tokenising_components_tokenise_several_times(self, dirty, monkeypatch):
        """Sanity check of the counter: components that do not read the
        context pay their own per-value passes."""
        data = dirty.collection
        num_values = sum(len(description.values()) for description in data)
        workflow = self_tokenising_workflow(data)
        slots, values = self._count_tokenisation(monkeypatch)
        workflow.run(data, dirty.ground_truth)
        # the blocking's private context interns every slot a second time
        assert slots == _slots(data) + _slots(data)
        assert len(values) >= 2 * num_values

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
        slots, values = self._count_tokenisation(monkeypatch)
        default_workflow(blocking=blocking).run(data, dirty.ground_truth)
        assert slots == _slots(data)
        assert values == []
