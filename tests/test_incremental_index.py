"""Equivalence and golden suites for the growable incremental index.

:class:`repro.iterative.index.IncrementalIndex` (the ``"array"`` engine) must
be **bit-identical** to the object oracle in
:mod:`repro.iterative.incremental` at every prefix of an arrival stream:
same per-arrival :class:`ArrivalResult` (matched clusters in declaration
order, comparison counts), same clusters, same merged representations, same
``resolve`` answers -- including after ``update``/``remove`` and after a
snapshot save/load round trip, with and without NumPy.

Snapshots must load or fail with :class:`~repro.core.snapshot.SnapshotError`:
hand-damaged meta fields and columns name what is wrong, and a Hypothesis
fuzz drops, replaces, truncates and flips its way through a saved index.

``tests/fixtures/incremental/golden_stream.json`` freezes a seeded
adds/removes/updates stream **and the oracle's outputs on it**, so future
changes to either engine cannot silently alter what incremental resolution
produces.  Regenerating the fixture (only when the semantics change on
purpose): run this module as a script::

    PYTHONPATH=src python tests/test_incremental_index.py
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import ReadableMatcher, readable

from repro.core.snapshot import SnapshotError, write_npy
from repro.datamodel.description import EntityDescription
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.iterative import IncrementalResolver
from repro.iterative.index import IncrementalIndex
from repro.matching import ProfileSimilarityMatcher
from repro.matching.engine import _set_matches, _set_score

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "incremental" / "golden_stream.json"
#: The first 40 arrivals of ``_stream_descriptions(num_entities=30, seed=41)``
#: at threshold 0.5, saved by the format-1.1 writer
SNAPSHOT_1_1 = Path(__file__).parent / "fixtures" / "incremental" / "snapshot_1_1"


# ----------------------------------------------------------------------
# stream construction
# ----------------------------------------------------------------------
def _stream_descriptions(num_entities=40, duplicates=1.5, seed=29):
    dataset = generate_dirty_dataset(
        DatasetConfig(
            num_entities=num_entities, duplicates_per_entity=duplicates, seed=seed
        )
    )
    return list(dataset.collection)


def _mixed_operations(descriptions):
    """A deterministic add/remove/update interleaving over ``descriptions``."""
    operations = []
    for position, description in enumerate(descriptions):
        operations.append(("add", description))
        if position >= 10 and position % 7 == 0:
            # remove a record added a while ago (still present: removes only
            # target positions that are multiples of 7+3 once)
            victim = descriptions[position - 9]
            operations.append(("remove", victim.identifier))
        if position >= 12 and position % 11 == 0:
            changed = descriptions[position - 5]
            revised = EntityDescription(
                changed.identifier,
                attributes={
                    name: list(changed.values(name)) + ["revised"]
                    for name in changed.attribute_names
                },
            )
            operations.append(("update", revised))
    return operations


def _apply(resolver, operation):
    """Run one operation, returning a comparable serialisation of the result."""
    kind, payload = operation
    if kind == "add":
        result = resolver.add(payload)
        return _arrival(result)
    if kind == "update":
        result = resolver.update(payload)
        return _arrival(result)
    replays = resolver.remove(payload)
    return [_arrival(result) for result in replays]


def _arrival(result):
    return {
        "identifier": result.identifier,
        "matched_clusters": [sorted(cluster) for cluster in result.matched_clusters],
        "comparisons": result.comparisons,
    }


def _state(resolver):
    return {
        "clusters": sorted(sorted(cluster) for cluster in resolver.clusters()),
        "num_clusters": resolver.num_clusters,
        "comparisons_executed": resolver.comparisons_executed,
        "size": len(resolver),
    }


def _representations(resolver, identifiers):
    output = {}
    for identifier in identifiers:
        representation = resolver.representation_of(identifier)
        if representation is None:
            output[identifier] = None
        else:
            output[identifier] = {
                "identifier": representation.identifier,
                "attributes": {
                    name: list(representation.values(name))
                    for name in representation.attribute_names
                },
            }
    return output


# ----------------------------------------------------------------------
# array-vs-oracle equivalence
# ----------------------------------------------------------------------
def test_array_matches_oracle_at_every_prefix():
    descriptions = _stream_descriptions()
    matcher = ProfileSimilarityMatcher(threshold=0.5)
    oracle = IncrementalResolver(readable(matcher))
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    for description in descriptions:
        expected = _arrival(oracle.add(description))
        actual = _arrival(index.add(description))
        assert actual == expected
        assert _state(index) == _state(oracle)
    live = [d.identifier for d in descriptions if oracle.cluster_of(d.identifier)]
    assert _representations(index, live) == _representations(oracle, live)
    assert [d.identifier for d in index.as_collection()] == [
        d.identifier for d in oracle.as_collection()
    ]


@pytest.mark.parametrize("matcher_min_length", [2, 3], ids=["shared", "own-filter"])
@pytest.mark.parametrize("max_candidates", [1, 2, 20])
@pytest.mark.parametrize(
    "similarity_name, threshold",
    [("jaccard", 0.5), ("dice", 0.6), ("overlap", 0.7), ("cosine", 0.6)],
)
def test_array_matches_oracle_through_removes_and_updates(
    similarity_name, threshold, max_candidates, matcher_min_length
):
    """Adds, removes, updates and a ``resolve`` before every add and update,
    on the shared-filter count path and the own-filter ranked path alike."""
    descriptions = _stream_descriptions(num_entities=30, duplicates=1.8, seed=31)
    operations = _mixed_operations(descriptions)

    def matcher():
        return ProfileSimilarityMatcher(
            threshold=threshold,
            similarity_name=similarity_name,
            min_token_length=matcher_min_length,
        )

    oracle = IncrementalResolver(readable(matcher()), max_candidates=max_candidates)
    index = IncrementalIndex(matcher(), max_candidates=max_candidates)
    assert (index._match_tokens is index._root_tokens) == (matcher_min_length == 2)
    merges = 0
    for operation in operations:
        if operation[0] != "remove":
            assert index.resolve(operation[1]) == oracle.resolve(operation[1])
        expected = _apply(oracle, operation)
        assert _apply(index, operation) == expected
        assert _state(index) == _state(oracle)
        merges += operation[0] == "add" and bool(expected["matched_clusters"])
    assert merges >= 30, "the stream must merge"


def _add_both(index, oracle, identifier, text):
    description = EntityDescription(identifier, {"name": text})
    result = _arrival(index.add(description))
    assert result == _arrival(oracle.add(description))
    return result


def _index_and_oracle(max_candidates, **options):
    return (
        IncrementalIndex(ProfileSimilarityMatcher(**options), max_candidates=max_candidates),
        IncrementalResolver(
            readable(ProfileSimilarityMatcher(**options)), max_candidates=max_candidates
        ),
    )


def test_a_match_ranked_outside_the_selection_does_not_merge():
    """``b`` matches the arrival but shares fewer tokens than ``x``, which
    takes the one slot: nothing merges and one comparison is charged."""
    for limit, merged in ((1, []), (2, [["b"]])):
        index, oracle = _index_and_oracle(limit, threshold=0.5)
        _add_both(index, oracle, "x", "alpha bravo xray yankee zulu kilo lima mike")
        _add_both(index, oracle, "b", "alpha")
        result = _add_both(index, oracle, "a", "alpha bravo")
        assert result["matched_clusters"] == merged
        assert result["comparisons"] == limit
        assert _state(index) == _state(oracle)


def test_a_candidate_matches_after_an_earlier_merge_grew_the_arrival():
    """``n`` shares one of the arrival's three tokens (overlap 1/2 < 0.6); the
    merge of ``m`` brings ``charlie`` in, and ``n`` then matches (2/2)."""
    index, oracle = _index_and_oracle(20, threshold=0.6, similarity_name="overlap")
    _add_both(index, oracle, "n", "xray charlie")
    assert _add_both(index, oracle, "m", "alpha bravo charlie delta")["matched_clusters"] == []
    result = _add_both(index, oracle, "a", "alpha bravo xray")
    assert result == {"identifier": "a", "matched_clusters": [["m"], ["n"]], "comparisons": 2}
    alone, oracle_alone = _index_and_oracle(20, threshold=0.6, similarity_name="overlap")
    _add_both(alone, oracle_alone, "n", "xray charlie")
    assert _add_both(alone, oracle_alone, "a", "alpha bravo xray")["matched_clusters"] == []


def test_of_two_matches_tied_at_the_cut_only_the_smaller_identifier_is_selected():
    """``p`` (3 shared tokens, no match) takes one of two slots; ``q`` and
    ``r`` both match on 2 shared tokens, and the free slot goes to ``q``."""
    for limit, merged in ((2, [["q"]]), (3, [["q"], ["r"]])):
        index, oracle = _index_and_oracle(limit, threshold=0.6)
        _add_both(index, oracle, "p", "alpha bravo charlie papa pearl piano pilot plum")
        _add_both(index, oracle, "r", "alpha charlie")
        _add_both(index, oracle, "q", "alpha bravo")
        assert index.num_clusters == 3
        result = _add_both(index, oracle, "a", "alpha bravo charlie")
        assert result["matched_clusters"] == merged
        assert result["comparisons"] == limit
        assert _state(index) == _state(oracle)


def test_resolver_facade_uses_array_engine():
    resolver = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5))
    resolver.add(EntityDescription("a", {"name": "alan turing"}))
    assert resolver.last_engine == "array"
    # TF-IDF matchers are not batch-scorable as plain token sets: fall back
    from repro.text.vectorizer import TfIdfVectorizer

    vectorizer = TfIdfVectorizer().fit(
        [EntityDescription("c", {"name": "alan turing"})]
    )
    fallback = IncrementalResolver(
        ProfileSimilarityMatcher(threshold=0.5, vectorizer=vectorizer)
    )
    fallback.add(EntityDescription("a", {"name": "alan turing"}))
    assert fallback.last_engine == "object"


def test_engine_validation():
    # the matcher's type is the only selector: there is no engine knob
    with pytest.raises(TypeError):
        IncrementalResolver(ProfileSimilarityMatcher(), engine="vectorised")


def test_duplicate_and_unknown_identifiers():
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    index.add(EntityDescription("a", {"name": "alan"}))
    with pytest.raises(ValueError):
        index.add(EntityDescription("a", {"name": "alan"}))
    with pytest.raises(KeyError):
        index.remove("ghost")
    # after a remove the identifier becomes free again
    index.remove("a")
    index.add(EntityDescription("a", {"name": "alan"}))
    assert index.cluster_of("a") == {"a"}


def test_resolve_is_read_only_and_matches_oracle():
    descriptions = _stream_descriptions(num_entities=25, seed=37)
    matcher = ProfileSimilarityMatcher(threshold=0.5)
    oracle = IncrementalResolver(readable(matcher))
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    oracle.add_all(descriptions)
    index.add_all(descriptions)
    queries = descriptions[::5] + [
        EntityDescription("q:unknown", {"name": "zzz qqq completely novel tokens"})
    ]
    for query in queries:
        before = _state(index)
        assert index.resolve(query) == oracle.resolve(query)
        assert _state(index) == before  # no counters moved, no clusters changed


# ----------------------------------------------------------------------
# array internals: postings invariants and the cut-off selection
# ----------------------------------------------------------------------
def _assert_postings_invariants(index):
    """``_postings`` is the exact inversion of ``_root_tokens``, over arrays
    of distinct live roots, and the reverse index is what a rebuild from the
    members' interned columns gives."""
    context = index.context
    assert set(index._root_tokens) == set(index._members)
    assert set(index._match_tokens) == set(index._members)
    inverted = {}
    for root, members in index._members.items():
        for name, token_filter in (
            ("_root_tokens", index._index_filter),
            ("_match_tokens", index._match_filter),
        ):
            rebuilt = set()
            for member in members:
                rebuilt.update(token_filter.select(context.token_ids_of(member)))
            assert list(getattr(index, name)[root]) == sorted(rebuilt)
        assert index._sizes[root] == len(index._root_tokens[root])
        for token_id in index._root_tokens[root].tolist():
            inverted.setdefault(token_id, []).append(root)
    assert set(index._postings) == set(inverted)
    for token_id, roots in index._postings.items():
        posted = roots.tolist()
        assert posted, "emptied postings are deleted"
        assert len(set(posted)) == len(posted), "a posting holds distinct roots"
        assert set(posted) <= set(index._members), "a posting names live roots only"
        assert sorted(posted) == sorted(inverted[token_id])


@pytest.mark.parametrize("matcher_min_length", [2, 3], ids=["shared", "own-filter"])
def test_postings_stay_the_inversion_of_root_tokens(tmp_path, matcher_min_length):
    """After every add / remove / update -- multi-merge arrivals included, and
    on across a snapshot restore -- with the oracle's results throughout."""
    descriptions = _stream_descriptions(num_entities=30, duplicates=2.5, seed=53)
    operations = _mixed_operations(descriptions)

    def matcher():
        return ProfileSimilarityMatcher(threshold=0.45, min_token_length=matcher_min_length)

    oracle = IncrementalResolver(readable(matcher()))
    index = IncrementalIndex(matcher())
    assert (index._match_tokens is index._root_tokens) == (matcher_min_length == 2)
    most_merged = 0
    for position, operation in enumerate(operations):
        if position == len(operations) // 2:
            index.save(tmp_path / "snap")
            index = IncrementalIndex.load(tmp_path / "snap")
            _assert_postings_invariants(index)
        if operation[0] != "remove":
            assert index.resolve(operation[1]) == oracle.resolve(operation[1])
        expected = _apply(oracle, operation)
        assert _apply(index, operation) == expected
        assert _state(index) == _state(oracle)
        _assert_postings_invariants(index)
        if operation[0] == "add":
            most_merged = max(most_merged, len(expected["matched_clusters"]))
    assert most_merged >= 2, "the stream must contain multi-merge arrivals"


def test_candidate_selection_is_the_prefix_of_the_full_sort():
    """More roots tied at the cut-off count than ``max_candidates`` leaves
    room for: the selection equals the ``(-shared, identifier)`` sort's prefix."""
    probe = ["alpha", "bravo", "charlie", "delta"]
    shared_tokens = {  # identifier -> probe tokens it holds
        "m": probe[:3],
        "k": probe[1:3],
        "z": probe[2:],
        # six roots tied on one shared token; arrival order is not identifier order
        **{name: [probe[position % 4]] for position, name in enumerate("tdxbwf")},
        "a": [],
    }
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.99))
    for name, tokens in shared_tokens.items():
        # private filler keeps every record its own cluster
        index.add(EntityDescription(name, {"name": " ".join(tokens + [f"only{name}"] * 3)}))
    assert index.num_clusters == len(shared_tokens)
    probe_ids = [index.context.token_id(token) for token in probe]
    full = sorted(
        (name for name, tokens in shared_tokens.items() if tokens),
        key=lambda name: (-len(shared_tokens[name]), name),
    )
    assert full == ["m", "k", "z", "b", "d", "f", "t", "w", "x"]
    for limit in (1, 2, 3, 4, 5, 8, 9, 20):
        index.max_candidates = limit
        assert _ranked_order(index, probe_ids) == full[:limit]
        assert _count_path_order(index, probe_ids) == full[:limit]
    # max_candidates=1 with the tie at the very top: the smallest identifier wins
    index.max_candidates = 1
    tied_top = [index.context.token_id(probe[3])]  # held by z and b
    assert _ranked_order(index, tied_top) == ["b"]
    assert _count_path_order(index, tied_top) == ["b"]
    assert index._shared_counts([]) is None


def _ranked_order(index, token_ids):
    """The identifiers the own-filter path compares, in order."""
    return [index.context.ids[root] for root in index._ranked(*index._shared_counts(token_ids))]


def _count_path_order(index, token_ids):
    """The identifiers the shared-filter path would visit if every root matched."""
    distinct, counts = index._shared_counts(token_ids)
    every = np.arange(len(distinct))
    cut, order, after = index._cut(counts), [], None
    while (first := index._first_selected(distinct, counts, cut, every, after)) is not None:
        after, position = first
        order.append(index.context.ids[distinct[position]])
    return order


def test_vector_set_decisions_equal_the_scalar_ones():
    """``_set_matches`` decides every pair as ``_set_score(...) >= threshold``
    does, at thresholds on, just below and just above each exact score."""
    sizes = np.array([size for size in range(1, 31) for shared in range(1, size + 1)])
    shared = np.array([shared for size in range(1, 31) for shared in range(1, size + 1)])
    for name in ("jaccard", "dice", "overlap", "cosine"):
        for size_a in (1, 2, 3, 7, 12, 30):
            fits = shared <= size_a
            sizes_b, counts = sizes[fits], shared[fits]
            scores = [_set_score(name, size_a, b, s) for b, s in zip(sizes_b.tolist(), counts.tolist())]
            for score in sorted(set(scores)):
                for threshold in (np.nextafter(score, 0.0), score, np.nextafter(score, 2.0)):
                    expected = [value >= threshold for value in scores]
                    actual = _set_matches(name, size_a, sizes_b, counts, float(threshold))
                    assert actual.tolist() == expected, (name, size_a, threshold)


# ----------------------------------------------------------------------
# snapshot persistence
# ----------------------------------------------------------------------
def test_snapshot_round_trip_then_continue(tmp_path):
    descriptions = _stream_descriptions(num_entities=30, seed=41)
    half = len(descriptions) // 2

    straight = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    straight.add_all(descriptions[:half])

    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    index.add_all(descriptions[:half])
    index.save(tmp_path / "snap")
    restored = IncrementalIndex.load(tmp_path / "snap")
    assert _state(restored) == _state(index)

    # continuing to add on the restored index reproduces the straight run
    for description in descriptions[half:]:
        assert _arrival(restored.add(description)) == _arrival(
            straight.add(description)
        )
    assert _state(restored) == _state(straight)

    # removes and resolves keep working after a restore
    victim = descriptions[0].identifier
    probe = descriptions[3]
    assert restored.resolve(probe) == straight.resolve(probe)
    assert [_arrival(r) for r in restored.remove(victim)] == [
        _arrival(r) for r in straight.remove(victim)
    ]
    assert _state(restored) == _state(straight)


def test_format_1_1_snapshot_loads_and_continues(tmp_path):
    """A format-1.1 snapshot -- the first 40 arrivals, saved with the eleven
    ``context.*`` entries the context used to write -- continues exactly
    like a live index fed the same operations, and saves again as 1.2."""
    manifest = json.loads((SNAPSHOT_1_1 / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["format_version"], manifest["format_minor"]) == (1, 1)
    assert len(_context_entries(manifest)) == 11
    descriptions = _stream_descriptions(num_entities=30, seed=41)
    live = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    live.add_all(descriptions)
    restored = IncrementalIndex.load(SNAPSHOT_1_1)
    assert len(restored) == 40
    restored.add_all(descriptions[40:])
    victim = descriptions[0].identifier
    assert [_arrival(r) for r in restored.remove(victim)] == [
        _arrival(r) for r in live.remove(victim)
    ]
    assert restored.clusters() == live.clusters()
    assert restored.comparisons_executed == live.comparisons_executed
    restored.save(tmp_path / "snap")
    resaved = json.loads((tmp_path / "snap" / "manifest.json").read_text(encoding="utf-8"))
    assert resaved["format_minor"] == 2
    assert _context_entries(resaved) == [
        "context.ids",
        "context.token_ids",
        "context.token_ptr",
        "context.tokens",
    ]


def _context_entries(manifest):
    names = [*manifest["columns"], *manifest["strings"]]
    return sorted(name for name in names if name.startswith("context."))


@pytest.mark.parametrize(
    "kind, name",
    [
        ("columns", "context.token_ids"),
        ("strings", "context.tokens"),
        ("columns", "index.tree_data"),
    ],
)
def test_a_missing_inventory_entry_is_a_snapshot_error(tmp_path, kind, name):
    """An entry the loader reads but the manifest lacks is named in a
    :class:`SnapshotError` before anything is read."""
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    index.add_all(_stream_descriptions(num_entities=30, seed=41)[:50])
    index.save(tmp_path / "snap")
    manifest_path = tmp_path / "snap" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest[kind][name]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(SnapshotError, match=f"has no (string )?column {name!r}"):
        IncrementalIndex.load(tmp_path / "snap")


def test_restored_index_has_no_descriptions(tmp_path):
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    index.add(EntityDescription("a", {"name": "alan turing"}))
    index.save(tmp_path / "snap")
    restored = IncrementalIndex.load(tmp_path / "snap")
    assert restored.cluster_of("a") == {"a"}
    with pytest.raises(RuntimeError):
        restored.representation_of("a")
    with pytest.raises(RuntimeError):
        restored.as_collection()


def test_snapshot_rejects_mismatched_matcher(tmp_path):
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    index.add(EntityDescription("a", {"name": "alan turing"}))
    index.save(tmp_path / "snap")
    with pytest.raises(ValueError, match="matcher"):
        IncrementalIndex.load(
            tmp_path / "snap", matcher=ProfileSimilarityMatcher(threshold=0.7)
        )
    # a matching configuration is accepted
    restored = IncrementalIndex.load(
        tmp_path / "snap", matcher=ProfileSimilarityMatcher(threshold=0.5)
    )
    assert restored.cluster_of("a") == {"a"}


def _saved_index(target, shared_filter=True):
    """Save an index over a stream prefix with removes and updates; return
    a description outside it that shares tokens with it."""
    matcher = ProfileSimilarityMatcher(threshold=0.5, min_token_length=2 if shared_filter else 3)
    index = IncrementalIndex(matcher)
    descriptions = _stream_descriptions(num_entities=30, seed=41)
    for operation in _mixed_operations(descriptions[:40]):
        _apply(index, operation)
    index.save(target)
    manifest = json.loads((target / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["meta"]["shared_filter"] is shared_filter
    return descriptions[45]


def _edit_manifest(target, edit):
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize(
    "field, value",
    [
        ("live", None),
        ("max_candidates", 0),
        ("stop_words", [["the"]]),
        ("min_token_length", "2"),
        ("shared_filter", "yes"),
        ("matcher.threshold", "0.5"),
        ("matcher.threshold", 1.5),
        ("matcher.similarity_name", "levenshtein"),
        ("matcher.cost", -1),
    ],
)
def test_invalid_meta_fields_are_snapshot_errors(tmp_path, field, value):
    _saved_index(tmp_path / "snap")
    *parents, name = field.split(".")

    def edit(manifest):
        meta = manifest["meta"]
        for parent in parents:
            meta = meta[parent]
        if value is None:
            del meta[name]
        else:
            meta[name] = value

    _edit_manifest(tmp_path / "snap", edit)
    with pytest.raises(SnapshotError, match=f"meta field {re.escape(repr(field))}"):
        IncrementalIndex.load(tmp_path / "snap")


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("shared_filter", False, "shared_filter"),
        ("stop_words", ["zzz"], "shared_filter"),
        ("live", 1, "live"),
    ],
)
def test_meta_fields_contradicting_the_state_are_snapshot_errors(tmp_path, field, value, named):
    _saved_index(tmp_path / "snap")
    _edit_manifest(tmp_path / "snap", lambda manifest: manifest["meta"].update({field: value}))
    with pytest.raises(SnapshotError, match=f"meta field {named!r}"):
        IncrementalIndex.load(tmp_path / "snap")


@pytest.mark.parametrize(
    "column, damage, named",
    [
        ("index.member_ptr", lambda values: values[:-1], "index.member_ptr"),
        ("index.member_ptr", lambda values: [1, *values[1:]], "index.member_ptr"),
        (
            "index.member_ptr",
            lambda values: [values[0], values[2], values[1], *values[3:]],
            "index.member_ptr",
        ),
        ("index.root_token_ptr", lambda values: [*values[:-1], 0], "index.root_token_ptr"),
        ("index.member_data", lambda values: [10**6, *values[1:]], "index.member_data"),
        ("index.roots", lambda values: [-1, *values[1:]], "index.roots"),
        ("index.alive", lambda values: [2, *values[1:]], "index.alive"),
        ("index.tree_data", lambda values: values[1:] + values[:1], "index.tree_data"),
    ],
)
def test_inconsistent_columns_are_snapshot_errors(tmp_path, column, damage, named):
    """Columns rewritten behind the checksums' back (as a pre-1.1 snapshot
    could carry them) fail with a :class:`SnapshotError` naming the column."""
    target = tmp_path / "snap"
    _saved_index(target)
    values = damage(np.load(target / f"{column}.npy").tolist())
    write_npy(target / f"{column}.npy", [array("q", values)], len(values))

    def legacy(manifest):
        del manifest["checksums"], manifest["format_minor"]
        manifest["columns"][column] = len(values)

    _edit_manifest(target, legacy)
    with pytest.warns(RuntimeWarning, match="integrity cannot be verified"):
        with pytest.raises(SnapshotError, match=re.escape(f"'{named}'")):
            IncrementalIndex.load(target)


#: what a fuzzed manifest value is replaced with
_HOSTILE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.just(2**40),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(min_value=-1, max_value=3), max_size=2),
    st.lists(st.text(max_size=2), max_size=2),
    st.just({}),
    st.just({"x": 1}),
)


def _manifest_paths(node, prefix=()):
    """Every key path into the manifest, the root ``()`` first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _manifest_paths(child, (*prefix, key))


@pytest.fixture(scope="module", params=[True, False], ids=["shared-filter", "own-filter"])
def saved_snapshot(request, tmp_path_factory):
    target = tmp_path_factory.mktemp("fuzz") / "snap"
    probe = _saved_index(target, shared_filter=request.param)
    manifest = json.loads((target / "manifest.json").read_text(encoding="utf-8"))
    files = sorted(path.name for path in target.iterdir() if path.name != "manifest.json")
    return target, probe, list(_manifest_paths(manifest)), files


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_damaged_snapshot_loads_or_raises_a_snapshot_error(saved_snapshot, data):
    """One damage per example -- a manifest value dropped or replaced at any
    depth, or one data file truncated or a byte of it flipped: ``load``,
    ``clusters()`` and one ``resolve()`` either succeed or raise
    :class:`SnapshotError`, never anything else."""
    source, probe, paths, files = saved_snapshot
    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) / "snap"
        shutil.copytree(source, target)
        kind = data.draw(st.sampled_from(["drop", "replace", "truncate", "flip"]))
        if kind in ("drop", "replace"):
            path = data.draw(st.sampled_from(paths[1:] if kind == "drop" else paths))
            value = data.draw(_HOSTILE_VALUES) if kind == "replace" else None

            def edit(manifest):
                *parents, key = path
                for parent in parents:
                    manifest = manifest[parent]
                if kind == "drop":
                    del manifest[key]
                else:
                    manifest[key] = value

            if path:
                _edit_manifest(target, edit)
            else:
                (target / "manifest.json").write_text(json.dumps(value), encoding="utf-8")
        else:
            victim = target / data.draw(st.sampled_from(files))
            payload = bytearray(victim.read_bytes())
            position = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
            if kind == "truncate":
                del payload[position:]
            else:
                payload[position] ^= data.draw(st.integers(min_value=1, max_value=255))
            victim.write_bytes(payload)
        try:
            index = IncrementalIndex.load(target)
            index.clusters()
            index.resolve(probe)
        except SnapshotError:
            pass


def test_resolver_snapshot_facade(tmp_path):
    resolver = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5))
    resolver.add(EntityDescription("a", {"name": "alan turing"}))
    resolver.save(tmp_path / "snap")
    restored = IncrementalResolver.restore(tmp_path / "snap")
    assert restored.cluster_of("a") == {"a"}
    assert restored.last_engine == "array"
    restored.add(EntityDescription("b", {"name": "alan turing"}))
    assert restored.cluster_of("a") == {"a", "b"}
    # the object path has no snapshot support
    oracle = IncrementalResolver(ReadableMatcher(threshold=0.5))
    oracle.add(EntityDescription("a", {"name": "alan"}))
    with pytest.raises(ValueError):
        oracle.save(tmp_path / "nope")


# ----------------------------------------------------------------------
# golden stream (frozen from the oracle)
# ----------------------------------------------------------------------
def _golden_operations():
    descriptions = _stream_descriptions(num_entities=35, duplicates=1.6, seed=43)
    return _mixed_operations(descriptions)


def _encode_operation(operation):
    kind, payload = operation
    if kind == "remove":
        return {"op": kind, "identifier": payload}
    return {
        "op": kind,
        "identifier": payload.identifier,
        "attributes": {
            name: list(payload.values(name)) for name in payload.attribute_names
        },
    }


def _decode_operation(record):
    if record["op"] == "remove":
        return ("remove", record["identifier"])
    return (
        record["op"],
        EntityDescription(record["identifier"], attributes=record["attributes"]),
    )


def _freeze_fixture() -> dict:
    operations = _golden_operations()
    oracle = IncrementalResolver(ReadableMatcher(threshold=0.5))
    results = [_apply(oracle, operation) for operation in operations]
    return {
        "description": "oracle outputs on a seeded add/remove/update stream",
        "matcher": {"threshold": 0.5},
        "operations": [_encode_operation(operation) for operation in operations],
        "results": results,
        "final": _state(oracle),
    }


@pytest.mark.parametrize("engine", ["object", "array"])
def test_golden_stream(engine):
    fixture = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
    matcher_type = ReadableMatcher if engine == "object" else ProfileSimilarityMatcher
    resolver = IncrementalResolver(matcher_type(threshold=fixture["matcher"]["threshold"]))
    for record, expected in zip(fixture["operations"], fixture["results"]):
        assert _apply(resolver, _decode_operation(record)) == expected
    assert resolver.last_engine == engine
    assert _state(resolver) == fixture["final"]


def test_golden_fixture_is_current():
    """The checked-in fixture matches what the oracle produces today."""
    fixture = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
    assert fixture == _freeze_fixture()


if __name__ == "__main__":
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(_freeze_fixture(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE_PATH}")
