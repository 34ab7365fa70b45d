"""Array-backed incremental-ER index: the columnar engine behind
:class:`~repro.iterative.incremental.IncrementalResolver`.

The object oracle keeps its state as string-keyed dicts of description
objects and re-tokenises on every comparison.  :class:`IncrementalIndex`
keeps the same state as flat integers over a shared
:class:`~repro.core.growable.GrowableContext`:

* arrivals are interned **once** -- ordinal, vocabulary ids, merged
  distinct ids -- instead of being re-tokenised per comparison;
* candidate generation runs over integer postings (``token id ->
  array('q')`` of distinct cluster-root ordinals) with a **root -> token
  reverse index**, so a merge re-points only the absorbed root's postings
  (the historical oracle rescanned the whole token index per merge); an
  arrival's shared-token counts are the run lengths of its concatenated
  postings after one sort (ScanCount over the inverted lists);
* when the index and the matcher filter tokens alike (the default), those
  counts *are* the intersection sizes a set similarity needs: every
  co-occurring root is scored at once from them and a root -> token-count
  column, in one vector expression of the batch pipeline's ``_set_score``
  formulas (a cosine near the threshold is re-scored by the scalar one).
  An arrival with no root at or above the threshold is done without any
  ranking; otherwise only the matching roots are placed in the
  top-``max_candidates`` selection (one partition gives the cut-off count;
  a match tied at it compares identifiers with the tied bucket), and a
  merge adds the postings of its fresh tokens to the counts before the
  roots ranked after it are re-scored.  An index with its own matcher
  filter ranks the selection and scores each candidate by one token-id
  ``frozenset`` intersection instead -- no per-pair ``matcher.match`` call
  on either path;
* clustering lives in an :class:`~repro.core.unionfind.IntUnionFind`, and a
  merged representation is reproduced on demand by replaying the cluster's
  **merge tree** through :func:`~repro.datamodel.description.merge_descriptions`,
  so ``representation_of`` returns byte-for-byte the oracle's merged
  description (same nested ``a+b`` identifiers, same value order).

Bit-identity contract
---------------------
Fed the same arrival stream, the index reproduces the oracle exactly at
every prefix: candidate selection (shared-token count, identifier
tie-break), match decisions (scores round as the oracle's own float
expressions do), merge order, cluster enumeration order, comparison counts,
and -- because removals re-resolve the surviving co-members in arrival
order on both sides -- the state after ``update``/``remove`` too.

The index natively supports a plain set-mode
:class:`~repro.matching.matchers.ProfileSimilarityMatcher`.  TF-IDF
matchers need global document frequencies (a moving target under online
arrivals) and custom matchers need description objects, so the resolver
facade falls back to the object oracle for those.

Persistence
-----------
:meth:`IncrementalIndex.save` writes every column through
:mod:`repro.core.snapshot`; :meth:`IncrementalIndex.load` memory-maps the
columns back and resumes accepting arrivals without re-interning anything
-- only the integer postings are re-inverted.  Description objects are
*not* part of a snapshot; a restored index answers every query except
``representation_of``/``as_collection`` (which need the raw objects and
raise ``RuntimeError``).
"""

from __future__ import annotations

import math
from array import array
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Union

from repro.core.growable import GrowableContext
from repro.core.snapshot import SnapshotError, SnapshotReader, SnapshotWriter
from repro.core.unionfind import IntUnionFind
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription, merge_descriptions
from repro.iterative.incremental import ArrivalResult, check_max_candidates
from repro.matching.engine import _set_matches, _set_score
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.text.similarity import SET_SIMILARITIES
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set

import numpy as _np

__all__ = ["IncrementalIndex"]

_TREE_OPEN = -1
_TREE_CLOSE = -2

#: the snapshot columns :meth:`IncrementalIndex.load` reads; the match-token
#: CSR exists only when the match filter differs from the blocking one
_INDEX_COLUMNS = (
    "index.uf_parent",
    "index.alive",
    "index.roots",
    "index.member_ptr",
    "index.member_data",
    "index.root_token_ptr",
    "index.root_token_data",
    "index.tree_ptr",
    "index.tree_data",
)
_MATCH_COLUMNS = ("index.match_token_ptr", "index.match_token_data")


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0


def _is_words(value: Any) -> bool:
    return type(value) is list and all(type(word) is str for word in value)


def _is_real(value: Any, low: float, high: float) -> bool:
    return type(value) in (int, float) and low <= value <= high  # NaN fails both


#: ``(field, valid, expected)`` of every ``meta`` entry :meth:`IncrementalIndex.load`
#: reads, and of every entry of its ``matcher`` mapping
_META_FIELDS = (
    ("comparisons_executed", _is_count, "a count >= 0"),
    ("live", _is_count, "a count >= 0"),
    ("max_candidates", lambda value: _is_count(value) and value >= 1, "an integer >= 1"),
    ("stop_words", _is_words, "a list of strings"),
    ("min_token_length", _is_count, "a count >= 0"),
    ("shared_filter", lambda value: type(value) is bool, "a boolean"),
    ("matcher", lambda value: type(value) is dict, "a mapping"),
)
_MATCHER_FIELDS = (
    ("threshold", lambda value: _is_real(value, 0.0, 1.0), "a number in [0, 1]"),
    (
        "similarity_name",
        lambda value: type(value) is str and value in SET_SIMILARITIES,
        f"one of {sorted(SET_SIMILARITIES)}",
    ),
    ("stop_words", _is_words, "a list of strings"),
    ("min_token_length", _is_count, "a count >= 0"),
    (
        "cost",
        lambda value: _is_real(value, 0.0, math.inf) and math.isfinite(value),
        "a finite number >= 0",
    ),
)


def _check_fields(path, mapping: Dict[str, Any], fields, prefix: str = "") -> None:
    """Raise :class:`SnapshotError` naming the first of ``fields`` that
    ``mapping`` lacks or holds an invalid value for."""
    for name, valid, expected in fields:
        if name not in mapping or not valid(mapping[name]):
            found = repr(mapping[name]) if name in mapping else "missing"
            raise SnapshotError(
                f"snapshot at {path}: meta field {prefix + name!r} is {found}, "
                f"expected {expected}; the manifest is corrupted"
            )


def _read_csr(reader: SnapshotReader, name: str, rows: int, low: int, high: int):
    """The ``index.<name>_ptr`` / ``index.<name>_data`` CSR of one row per root:
    the pointers as a list, the data column as read (see
    :meth:`SnapshotReader.csr <repro.core.snapshot.SnapshotReader.csr>`)."""
    pointers, data = reader.csr(f"index.{name}_ptr", f"index.{name}_data", rows, low, high)
    return pointers.tolist(), data


def _encode_tree(node: Any, out: array) -> None:
    if isinstance(node, list):
        out.append(_TREE_OPEN)
        for child in node:
            _encode_tree(child, out)
        out.append(_TREE_CLOSE)
    else:
        out.append(int(node))


def _decode_tree(values: Sequence[int], position: int) -> "tuple[list, int]":
    node: List[Any] = []
    position += 1  # consume the open marker
    while values[position] != _TREE_CLOSE:
        if values[position] == _TREE_OPEN:
            child, position = _decode_tree(values, position)
            node.append(child)
        else:
            node.append(values[position])
            position += 1
    return node, position + 1


def _decode_root_tree(path, values: Sequence[int], start: int, stop: int) -> list:
    """The one merge tree ``values[start:stop]`` encodes, else :class:`SnapshotError`."""
    try:
        if values[start] == _TREE_OPEN:
            tree, end = _decode_tree(values, start)
            if end == stop:
                return tree
    except (IndexError, RecursionError):
        pass
    raise SnapshotError(
        f"snapshot at {path}: column 'index.tree_data' does not encode one merge "
        f"tree in [{start}, {stop}); the snapshot is corrupted"
    )


class IncrementalIndex:
    """Columnar incremental entity resolution with snapshot persistence.

    Parameters
    ----------
    matcher:
        A plain set-mode :class:`ProfileSimilarityMatcher` (exact type, no
        vectoriser); anything else raises ``ValueError`` -- the resolver
        facade handles the fallback.
    max_candidates, stop_words, min_token_length:
        As on :class:`~repro.iterative.incremental.IncrementalResolver`.
    context:
        Optional pre-existing :class:`GrowableContext` (used by
        :meth:`load`); a fresh one is created by default.
    """

    def __init__(
        self,
        matcher: ProfileSimilarityMatcher,
        max_candidates: int = 20,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
        context: Optional[GrowableContext] = None,
    ) -> None:
        if type(matcher) is not ProfileSimilarityMatcher or matcher.vectorizer is not None:
            raise ValueError(
                "IncrementalIndex natively supports a plain set-mode "
                "ProfileSimilarityMatcher; use IncrementalResolver for other matchers"
            )
        self.matcher = matcher
        self.max_candidates = check_max_candidates(max_candidates)
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = min_token_length
        self.context = context if context is not None else GrowableContext()
        self._index_filter = self.context.token_filter(
            self.stop_words, self.min_token_length
        )
        self._match_filter = self.context.token_filter(
            matcher.stop_words, matcher.min_token_length
        )
        self._uf = IntUnionFind()
        self._alive = bytearray()
        self._live = 0
        self._members: Dict[int, List[int]] = {}  # root ordinal -> member ordinals
        # token id -> distinct root ordinals; always the inversion of _root_tokens
        self._postings: Dict[int, array] = {}
        # reverse index: root ordinal -> sorted token ids it is posted under
        self._root_tokens: Dict[int, Sequence[int]] = {}
        # root ordinal -> len(_root_tokens[root]); stale at non-roots
        self._sizes = _np.zeros(0, dtype=_np.int64)
        # matcher-filtered token sets per root; aliases _root_tokens when the
        # index and matcher tokenisation configurations coincide
        if (matcher.stop_words, matcher.min_token_length) == (
            self.stop_words,
            self.min_token_length,
        ):
            self._match_tokens: Dict[int, Sequence[int]] = self._root_tokens
        else:
            self._match_tokens = {}
        self._trees: Dict[int, list] = {}  # root ordinal -> merge tree
        self._descriptions: Dict[int, EntityDescription] = {}
        self.comparisons_executed = 0

    # ------------------------------------------------------------------
    # state inspection (mirrors the oracle exactly)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live

    @property
    def num_clusters(self) -> int:
        return len(self._members)

    def clusters(self) -> List[FrozenSet[str]]:
        ids = self.context.ids
        return [
            frozenset(ids[member] for member in members)
            for members in self._members.values()
        ]

    def non_trivial_clusters(self) -> List[FrozenSet[str]]:
        ids = self.context.ids
        return [
            frozenset(ids[member] for member in members)
            for members in self._members.values()
            if len(members) > 1
        ]

    def _live_ordinal(self, identifier: str) -> Optional[int]:
        ordinal = self.context.ordinal(identifier)
        if ordinal is None or not self._alive[ordinal]:
            return None
        return ordinal

    def cluster_of(self, identifier: str) -> FrozenSet[str]:
        ordinal = self._live_ordinal(identifier)
        if ordinal is None:
            return frozenset()
        ids = self.context.ids
        return frozenset(ids[member] for member in self._members[self._uf.find(ordinal)])

    def representation_of(self, identifier: str) -> Optional[EntityDescription]:
        """The oracle's merged representation, replayed from the merge tree."""
        ordinal = self._live_ordinal(identifier)
        if ordinal is None:
            return None
        return self._tree_representation(self._trees[self._uf.find(ordinal)])

    def _tree_representation(self, node: Any) -> EntityDescription:
        if isinstance(node, list):
            representation = self._tree_representation(node[0])
            for child in node[1:]:
                representation = merge_descriptions(
                    representation, self._tree_representation(child)
                )
            return representation
        description = self._descriptions.get(int(node))
        if description is None:
            raise RuntimeError(
                "description objects are not part of a snapshot; "
                "representation_of() only covers records added in this process"
            )
        return description

    def as_collection(self, name: str = "incremental") -> EntityCollection:
        ordered = [o for o in range(len(self._alive)) if self._alive[o]]
        if any(o not in self._descriptions for o in ordered):
            raise RuntimeError(
                "description objects are not part of a snapshot; "
                "as_collection() only covers records added in this process"
            )
        return EntityCollection((self._descriptions[o] for o in ordered), name=name)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _shared_counts(self, token_ids: Iterable[int]):
        """``(roots, counts)``: the distinct roots posted under ``token_ids``
        in ascending order and how many of the tokens each holds, as int64
        arrays; ``None`` when no root holds any of them."""
        postings = self._postings
        # one sort of the concatenated postings; a root's shared-token count
        # is the length of its run.  The buffer is private, so no view of a
        # posting is alive when the posting is appended to.
        buffer = array("q")
        for token_id in token_ids:
            roots = postings.get(token_id)
            if roots is not None:
                buffer.extend(roots)
        if not buffer:
            return None
        run = _np.frombuffer(buffer, dtype=_np.int64)
        run.sort()
        boundary = _np.empty(len(run) + 1, dtype=bool)
        boundary[0] = boundary[-1] = True
        _np.not_equal(run[1:], run[:-1], out=boundary[1:-1])
        edges = boundary.nonzero()[0]
        return run[edges[:-1]], edges[1:] - edges[:-1]

    def _cut(self, counts) -> Optional[int]:
        """The ``max_candidates``-th largest count, ``None`` if all roots fit."""
        limit = self.max_candidates
        if len(counts) <= limit:
            return None
        return int(_np.partition(counts, -limit)[-limit])

    def _ranked(self, distinct, counts) -> List[int]:
        """The top ``max_candidates`` of ``distinct`` in ``(-count,
        identifier)`` order."""
        limit = self.max_candidates
        # Common tokens make the shared-count map much larger than ``limit``,
        # so the kernel selects instead of sorting it whole: roots strictly
        # above the cut-off count (the ``limit``-th largest) all make it,
        # the bucket tied at the cut-off fills what is left.
        tied: List[int] = []
        cut = self._cut(counts)
        if cut is not None:
            tied = distinct[counts == cut].tolist()
            keep = counts > cut
            distinct, counts = distinct[keep], counts[keep]
        shared = dict(zip(distinct.tolist(), counts.tolist()))
        ids = self.context.ids
        ranked = sorted(shared, key=lambda root: (-shared[root], ids[root]))
        # the tied bucket shares one count: identifier order alone is the
        # full (-shared, identifier) order on it
        tied.sort(key=ids.__getitem__)
        return ranked + tied[: limit - len(ranked)]

    def _first_selected(self, distinct, counts, cut, hits, after=None):
        """``(key, position)`` of the first root among positions ``hits`` of
        ``distinct`` that the top-``max_candidates`` selection holds, in
        ``key = (-count, identifier)`` order and ranked after the key
        ``after``; ``None`` if there is none.

        A root above the cut-off count ``cut`` is selected, one below is not,
        and one tied at it is selected when fewer tied roots than the
        bucket's free slots have a smaller identifier.
        """
        ids = self.context.ids
        best = None
        tied = None
        for position, root, count in zip(
            hits.tolist(), distinct[hits].tolist(), counts[hits].tolist()
        ):
            key = (-count, ids[root])
            if (after is not None and key <= after) or (best is not None and key >= best[0]):
                continue
            if cut is not None and count <= cut:
                if count < cut:
                    continue
                if tied is None:
                    tied = [ids[other] for other in distinct[counts == cut].tolist()]
                    slots = self.max_candidates - int(_np.count_nonzero(counts > cut))
                if sum(name < key[1] for name in tied) >= slots:
                    continue
            best = (key, position)
        return best

    def _hits(self, size: int, distinct, counts):
        """Positions of the roots of ``distinct`` whose score against a token
        set of ``size`` tokens sharing ``counts`` with them reaches the
        threshold (shared filter: the counts are the intersection sizes)."""
        matcher = self.matcher
        return _set_matches(
            matcher.similarity_name, size, self._sizes[distinct], counts, matcher.threshold
        ).nonzero()[0]

    def _posted_counts(self, distinct, token_ids: Sequence[int]):
        """How many of ``token_ids`` each root of ``distinct`` is posted under."""
        postings = self._postings
        buffer = array("q")
        for token_id in token_ids:
            buffer.extend(postings[token_id])
        posted = _np.frombuffer(buffer, dtype=_np.int64)
        where = distinct.searchsorted(posted)
        where[where == len(distinct)] = 0
        return _np.bincount(where[distinct[where] == posted], minlength=len(distinct))

    def _post(self, root: int, token_ids: Iterable[int]) -> None:
        """Append ``root`` -- not yet in any posting -- under each token."""
        postings = self._postings
        for token_id in token_ids:
            roots = postings.get(token_id)
            if roots is None:
                postings[token_id] = array("q", (root,))
            else:
                roots.append(root)

    def _merge_roots(self, target: int, source: int) -> List[int]:
        """Merge ``source``'s cluster into ``target``'s; re-points only the
        absorbed root's postings via the reverse index.  Returns the tokens
        the merge adds to ``target``."""
        self._uf.union(target, source)
        self._members[target].extend(self._members.pop(source))
        self._trees[target].append(self._trees.pop(source))
        source_tokens = self._root_tokens.pop(source).tolist()
        tokens = set(self._root_tokens[target])
        postings = self._postings
        fresh = []
        for token_id in source_tokens:
            roots = postings[token_id]
            slot = roots.index(source)
            if token_id in tokens:
                # the target is already posted here: swap-remove the source
                last = roots.pop()
                if slot < len(roots):
                    roots[slot] = last
            else:
                roots[slot] = target
                fresh.append(token_id)
        tokens.update(fresh)
        self._root_tokens[target] = array("q", sorted(tokens))
        self._sizes[target] = len(tokens)
        if self._match_tokens is not self._root_tokens:
            source_match = self._match_tokens.pop(source).tolist()
            self._match_tokens[target] = array(
                "q", sorted(set(self._match_tokens[target]).union(source_match))
            )
        return fresh

    def _score(self, tokens: FrozenSet[int], root: int) -> float:
        """Set similarity of a token-id set and a root's matcher column.

        ``tolist`` first: the column of a restored index is memory-mapped,
        and walking it directly would box one NumPy scalar per token.
        """
        other = self._match_tokens[root].tolist()
        return _set_score(
            self.matcher.similarity_name,
            len(tokens),
            len(other),
            len(tokens.intersection(other)),
        )

    def _resolve_arrival(self, ordinal: int) -> ArrivalResult:
        """Resolve one interned record against the current state.

        The oracle's loop on integers: the top ``max_candidates`` roots by
        shared-token count (identifier tie-break) are compared, in that
        order, against the arrival cluster's *growing* merged token set;
        every match merges and the scan continues.
        """
        result = ArrivalResult(identifier=self.context.ids[ordinal])
        full_column = self.context.token_ids_of(ordinal)
        index_ids = array("q", self._index_filter.select(full_column))
        counted = self._shared_counts(index_ids)

        # register the arrival as its own singleton cluster; its ordinal is
        # fresh, so no posting can hold it yet
        self._members[ordinal] = [ordinal]
        self._trees[ordinal] = [ordinal]
        self._root_tokens[ordinal] = index_ids
        self._sizes[ordinal] = len(index_ids)
        self._post(ordinal, index_ids)
        shared_filter = self._match_tokens is self._root_tokens
        if not shared_filter:
            self._match_tokens[ordinal] = array(
                "q", self._match_filter.select(full_column)
            )
        if counted is not None:
            result.comparisons = min(len(counted[0]), self.max_candidates)
            if shared_filter:
                self._merge_counted(ordinal, *counted, result)
            else:
                self._merge_ranked(ordinal, self._ranked(*counted), result)
        self.comparisons_executed += result.comparisons
        return result

    def _merge_counted(self, ordinal: int, distinct, counts, result) -> None:
        """The shared-filter arrival: ``counts`` are the intersection sizes
        with the arrival, so every co-occurring root is scored at once and
        only the matching ones are placed in the selection.  A merge adds
        the postings of its fresh tokens to the counts and re-scores."""
        size = len(self._root_tokens[ordinal])
        hits = self._hits(size, distinct, counts)
        if not len(hits):
            return
        cut = self._cut(counts)
        ids = self.context.ids
        after = rest = None
        while True:
            first = self._first_selected(distinct, counts, cut, hits, after)
            if first is None:
                return
            after, position = first
            root = int(distinct[position])
            result.matched_clusters.append(ids[root])
            fresh = self._merge_roots(ordinal, root)
            if fresh:
                size += len(fresh)
                if rest is None:
                    # a root below the cut-off count or ranked before this
                    # match is never visited: only the others are re-scored
                    visitable = counts <= -after[0]
                    if cut is not None:
                        visitable &= counts >= cut
                    rest = visitable.nonzero()[0]
                    roots, current = distinct[rest], counts[rest]
                current = current + self._posted_counts(roots, fresh)
                hits = rest[self._hits(size, roots, current)]

    def _merge_ranked(self, ordinal: int, ranked: List[int], result) -> None:
        """The own-filter arrival: the ranked candidates, one ``frozenset``
        intersection each (the index counts are not match-token counts)."""
        ids = self.context.ids
        tokens = frozenset(self._match_tokens[ordinal])
        threshold = self.matcher.threshold
        for candidate in ranked:
            if self._score(tokens, candidate) >= threshold:
                result.matched_clusters.append(ids[candidate])
                self._merge_roots(ordinal, candidate)
                tokens = frozenset(self._match_tokens[ordinal])

    def add(self, description: EntityDescription) -> ArrivalResult:
        """Intern and resolve one arriving description."""
        identifier = description.identifier
        existing = self.context.ordinal(identifier)
        if existing is not None and self._alive[existing]:
            raise ValueError(f"duplicate identifier: {identifier!r}")
        ordinal = self.context.add_record(description)
        self._descriptions[ordinal] = description
        self._uf.grow(ordinal + 1)
        if len(self._alive) <= ordinal:
            self._alive.extend(bytes(ordinal + 1 - len(self._alive)))
        if len(self._sizes) <= ordinal:
            grown = _np.zeros(max(2 * len(self._sizes), ordinal + 1), dtype=_np.int64)
            grown[: len(self._sizes)] = self._sizes
            self._sizes = grown
        self._alive[ordinal] = 1
        self._live += 1
        return self._resolve_arrival(ordinal)

    def add_all(self, descriptions: Iterable[EntityDescription]) -> List[ArrivalResult]:
        return [self.add(description) for description in descriptions]

    def remove(self, identifier: str) -> List[ArrivalResult]:
        """Remove one record; re-resolve its former co-members.

        Only the affected neighbourhood is recomputed: the cluster's
        postings are cleared through the reverse index and the surviving
        members re-enter the arrival path (in arrival order) against the
        untouched remainder of the index.  Returns their arrival results.
        """
        ordinal = self._live_ordinal(identifier)
        if ordinal is None:
            raise KeyError(identifier)
        root = self._uf.find(ordinal)
        members = self._members.pop(root)
        postings = self._postings
        for token_id in self._root_tokens.pop(root).tolist():
            roots = postings[token_id]
            roots.remove(root)
            if not roots:
                del postings[token_id]
        if self._match_tokens is not self._root_tokens:
            self._match_tokens.pop(root)
        self._trees.pop(root)
        self._alive[ordinal] = 0
        self._live -= 1
        self._descriptions.pop(ordinal, None)
        parent = self._uf.parent
        for member in members:
            parent[member] = member  # back to singletons; edges never cross clusters
        return [
            self._resolve_arrival(member)
            for member in sorted(int(m) for m in members)
            if member != ordinal
        ]

    def update(self, description: EntityDescription) -> ArrivalResult:
        """Replace a record's description: remove, then re-add (re-resolving)."""
        self.remove(description.identifier)
        return self.add(description)

    def resolve(self, description: EntityDescription) -> FrozenSet[str]:
        """Non-mutating query: the cluster the description would join, if any.

        Candidate ranking and scoring follow :meth:`add`, but nothing is
        interned, no merge happens and no counter moves.  Unknown tokens are
        mapped to transient ids past the vocabulary so set sizes (and hence
        scores) stay exact.
        """
        token_id_of = self.context.token_id

        def ids_of(stop_words, min_length) -> List[Optional[int]]:
            tokens = token_set(
                description.values(), stop_words=stop_words, min_length=min_length
            )
            return [token_id_of(token) for token in tokens]

        index_ids = ids_of(self.stop_words, self.min_token_length)
        counted = self._shared_counts(
            [token_id for token_id in index_ids if token_id is not None]
        )
        if counted is None:
            return frozenset()
        ids = self.context.ids
        if self._match_tokens is self._root_tokens:
            # same configuration: one tokenisation serves both, and unknown
            # tokens count towards the size only
            distinct, counts = counted
            hits = self._hits(len(index_ids), distinct, counts)
            first = self._first_selected(distinct, counts, self._cut(counts), hits)
            if first is None:
                return frozenset()
            members = self._members[int(distinct[first[1]])]
            return frozenset(ids[member] for member in members)
        matcher = self.matcher
        match_ids = ids_of(matcher.stop_words, matcher.min_token_length)
        vocabulary = self.context.vocabulary_size
        tokens = frozenset(
            vocabulary + position if token_id is None else token_id
            for position, token_id in enumerate(match_ids)
        )
        for candidate in self._ranked(*counted):
            if self._score(tokens, candidate) >= matcher.threshold:
                return frozenset(ids[member] for member in self._members[candidate])
        return frozenset()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the full resolution state as a versioned snapshot directory.

        The write is all-or-nothing even onto an existing snapshot at
        ``path``: the writer stages into a temp directory and atomically
        swaps it in on success (see :class:`~repro.core.snapshot.SnapshotWriter`),
        so a crash or exception mid-save -- even between columns -- leaves
        the previous snapshot fully loadable and never a mix of old and new
        columns.
        """
        with SnapshotWriter(path) as writer:
            self._write_state(writer)

    def _write_state(self, writer: SnapshotWriter) -> None:
        self.context.write_snapshot(writer)
        writer.column("index.uf_parent", self._uf.parent)
        # note: array('q', <bytes-like>) would reinterpret raw bytes, so the
        # flags go through an explicit value iterator
        writer.column("index.alive", array("q", (int(flag) for flag in self._alive)))
        roots = [int(root) for root in self._members]
        writer.column("index.roots", array("q", roots))

        def csr(values_of) -> "tuple[array, array]":
            pointers = array("q", [0])
            data = array("q")
            for root in roots:
                data.extend(int(value) for value in values_of(root))
                pointers.append(len(data))
            return pointers, data

        member_ptr, member_data = csr(lambda root: self._members[root])
        writer.column("index.member_ptr", member_ptr)
        writer.column("index.member_data", member_data)
        token_ptr, token_data = csr(lambda root: self._root_tokens[root])
        writer.column("index.root_token_ptr", token_ptr)
        writer.column("index.root_token_data", token_data)
        shared_filter = self._match_tokens is self._root_tokens
        if not shared_filter:
            match_ptr, match_data = csr(lambda root: self._match_tokens[root])
            writer.column("index.match_token_ptr", match_ptr)
            writer.column("index.match_token_data", match_data)
        tree_ptr = array("q", [0])
        tree_data = array("q")
        for root in roots:
            _encode_tree(self._trees[root], tree_data)
            tree_ptr.append(len(tree_data))
        writer.column("index.tree_ptr", tree_ptr)
        writer.column("index.tree_data", tree_data)
        matcher = self.matcher
        writer.meta(
            kind="incremental-index",
            comparisons_executed=self.comparisons_executed,
            live=self._live,
            max_candidates=self.max_candidates,
            stop_words=sorted(self.stop_words),
            min_token_length=self.min_token_length,
            shared_filter=shared_filter,
            matcher={
                "threshold": matcher.threshold,
                "similarity_name": matcher.similarity_name,
                "stop_words": sorted(matcher.stop_words),
                "min_token_length": matcher.min_token_length,
                "cost": matcher.cost,
            },
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        matcher: Optional[ProfileSimilarityMatcher] = None,
    ) -> "IncrementalIndex":
        """Memory-map a snapshot back into a live, growable index.

        The matcher is rebuilt from the manifest unless one is passed, in
        which case its configuration must match the snapshot's exactly
        (scores would silently diverge otherwise).  A meta field of the wrong
        type or range, a ``shared_filter`` or ``live`` the rest of the state
        contradicts, or a CSR column that does not hold one row per root
        (``len(roots) + 1`` non-decreasing pointers from 0 to the data
        length, ordinals below the record count, token ids below the
        vocabulary size) raises a :class:`SnapshotError` naming it.
        """
        reader = SnapshotReader(path)
        meta = reader.meta
        if meta.get("kind") != "incremental-index":
            raise SnapshotError(f"snapshot at {path} is not an incremental index")
        _check_fields(path, meta, _META_FIELDS)
        recorded = meta["matcher"]
        _check_fields(path, recorded, _MATCHER_FIELDS, "matcher.")
        if matcher is None:
            matcher = ProfileSimilarityMatcher(
                threshold=recorded["threshold"],
                stop_words=frozenset(recorded["stop_words"]),
                min_token_length=recorded["min_token_length"],
                similarity_name=recorded["similarity_name"],
                cost=recorded["cost"],
            )
        else:
            compatible = (
                type(matcher) is ProfileSimilarityMatcher
                and matcher.vectorizer is None
                and matcher.threshold == recorded["threshold"]
                and matcher.similarity_name == recorded["similarity_name"]
                and matcher.stop_words == frozenset(recorded["stop_words"])
                and matcher.min_token_length == recorded["min_token_length"]
            )
            if not compatible:
                raise ValueError(
                    "matcher configuration does not match the snapshot; "
                    "load(path) rebuilds the recorded matcher automatically"
                )
        shared_filter = meta["shared_filter"]
        index_filter = (frozenset(meta["stop_words"]), meta["min_token_length"])
        if shared_filter != ((matcher.stop_words, matcher.min_token_length) == index_filter):
            raise SnapshotError(
                f"snapshot at {path}: meta field 'shared_filter' is {shared_filter}, "
                "but the recorded index and matcher token filters "
                f"{'differ' if shared_filter else 'coincide'}; the manifest is corrupted"
            )
        reader.require(
            columns=_INDEX_COLUMNS if shared_filter else _INDEX_COLUMNS + _MATCH_COLUMNS
        )
        context = GrowableContext.from_snapshot(reader)
        index = cls(
            matcher,
            max_candidates=meta["max_candidates"],
            stop_words=meta["stop_words"],
            min_token_length=meta["min_token_length"],
            context=context,
        )
        records, vocabulary = context.num_records, context.vocabulary_size
        # every column is read once with tolist(): indexing a mapped column
        # element by element boxes a scalar a time
        index._uf.parent = array("q", reader.column("index.uf_parent").tolist())
        index._alive = bytearray(reader.values("index.alive", 0, 2).tolist())
        if meta["live"] != index._alive.count(1):
            raise SnapshotError(
                f"snapshot at {path}: meta field 'live' is {meta['live']}, but the "
                "'index.alive' column flags another count; the manifest is corrupted"
            )
        index._live = meta["live"]
        index.comparisons_executed = meta["comparisons_executed"]
        roots = reader.values("index.roots", 0, records).tolist()
        member_ptr, member_column = _read_csr(reader, "member", len(roots), 0, records)
        member_data = member_column.tolist()
        token_ptr, token_column = _read_csr(reader, "root_token", len(roots), 0, vocabulary)
        token_data = token_column.tolist()
        index._sizes = _np.zeros(records, dtype=_np.int64)
        index._sizes[roots] = _np.diff(token_ptr)
        for position, root in enumerate(roots):
            index._members[root] = member_data[member_ptr[position] : member_ptr[position + 1]]
            start, stop = token_ptr[position], token_ptr[position + 1]
            # the reverse index is a zero-copy view over the mapped column;
            # merges replace it wholesale, so mutability is not needed
            index._root_tokens[root] = token_column[start:stop]
            index._post(root, token_data[start:stop])
        if not shared_filter:
            match_ptr, match_data = _read_csr(reader, "match_token", len(roots), 0, vocabulary)
            for position, root in enumerate(roots):
                index._match_tokens[root] = match_data[
                    match_ptr[position] : match_ptr[position + 1]
                ]
        tree_ptr, tree_column = _read_csr(reader, "tree", len(roots), _TREE_CLOSE, records)
        tree_data = tree_column.tolist()
        for position, root in enumerate(roots):
            index._trees[root] = _decode_root_tree(
                path, tree_data, tree_ptr[position], tree_ptr[position + 1]
            )
        return index
