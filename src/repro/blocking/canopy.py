"""Canopy clustering blocking.

Canopy clustering builds overlapping blocks ("canopies") with a cheap
similarity measure and two thresholds: descriptions within the *tight*
threshold of a canopy centre are removed from the candidate pool, while
descriptions within the *loose* threshold are added to the canopy but remain
candidates for other canopies.  It is the classical cheap-similarity blocking
baseline for records without a reliable blocking key.

Determinism: the centre selection order is the seeded shuffle of the input
order, and every centre scans the surviving candidates in that same
shuffled order -- so the canopies (keys, member order, tie behaviour) are a
pure function of the input order and the seed, independent of Python's
per-process string hashing.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List

from repro.blocking.base import (
    BlockBuilder,
    BlockCollection,
    ERInput,
    check_unit_interval,
    interned,
)
from repro.blocking.columns import BlockColumns, TokenColumnView, append_posting
from repro.text.tokenize import DEFAULT_STOP_WORDS, check_min_token_length

import numpy as _np


class CanopyClusteringBlocking(BlockBuilder):
    """Canopy clustering over token sets with Jaccard as the cheap similarity.

    Parameters
    ----------
    loose_threshold:
        Similarity in [0, 1] at or above which a description joins the
        current canopy.
    tight_threshold:
        Similarity in [0, 1] at or above which a description is additionally
        removed from the candidate pool (must be ``>= loose_threshold``).
    seed:
        Seed for the canopy-centre selection order.
    """

    name = "canopy"

    def __init__(
        self,
        loose_threshold: float = 0.25,
        tight_threshold: float = 0.6,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
        seed: int = 0,
    ) -> None:
        check_unit_interval("loose_threshold", loose_threshold)
        check_unit_interval("tight_threshold", tight_threshold)
        if tight_threshold < loose_threshold:
            raise ValueError("tight threshold must be >= loose threshold")
        self.loose_threshold = loose_threshold
        self.tight_threshold = tight_threshold
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = check_min_token_length(min_token_length)
        self.seed = seed

    def build(self, data: ERInput, context=None) -> BlockCollection:
        """Canopy selection over token postings.

        Per centre, the intersection sizes against *every* description come
        from one ``bincount`` over the centre's concatenated token postings;
        the Jaccard values are the integer divisions ``shared / (|a| + |b| -
        shared)``.  The shuffled centre order depends on positions only
        (``random.Random.shuffle`` permutes by position).  A canopy lists
        its centre, then its members in pool order; all canopies become one
        CSR at the end (a one-sided canopy is dropped after taking its key).
        """
        context = interned(data, context)
        view = TokenColumnView.from_context(context, self.stop_words, self.min_token_length)
        columns = view.columns
        n = len(columns)

        rng = random.Random(self.seed)
        pool = list(range(n))
        rng.shuffle(pool)
        in_pool = bytearray([1]) * n

        sizes = [len(column) for column in columns]
        postings: Dict[int, array] = {}
        for ordinal, column in enumerate(columns):
            for token_id in column:
                append_posting(postings, token_id, ordinal)

        np = _np
        np_postings = {
            token_id: np.frombuffer(posting, dtype=np.int64)
            for token_id, posting in postings.items()
        }
        np_sizes = np.asarray(sizes, dtype=np.int64)

        loose = self.loose_threshold
        tight = self.tight_threshold
        keys: List[str] = []
        lengths: List[int] = []
        canopies = array("q")

        for center in pool:
            if not in_pool[center]:
                continue
            in_pool[center] = 0
            center_column = columns[center]
            center_size = len(center_column)

            if center_size == 0:
                # Jaccard with an empty centre: 1.0 against other empty sets,
                # 0.0 otherwise (jaccard_similarity's empty-set rule)
                similarities = [1.0 if sizes[o] == 0 else 0.0 for o in range(n)]
            else:
                shared = np.bincount(
                    np.concatenate([np_postings[t] for t in center_column]), minlength=n
                )
                # denominators are >= center_size >= 1; candidates with an
                # empty column get shared == 0, i.e. similarity 0.0
                similarities = (shared / (center_size + np_sizes - shared)).tolist()

            members = [center]
            removed: List[int] = []
            for candidate in pool:
                if not in_pool[candidate]:
                    continue
                similarity = similarities[candidate]
                if similarity >= loose:
                    members.append(candidate)
                    if similarity >= tight:
                        removed.append(candidate)
            for candidate in removed:
                in_pool[candidate] = 0

            if len(members) >= 2:
                keys.append(f"canopy:{len(keys)}")
                lengths.append(len(members))
                canopies.extend(members)

        lengths = np.asarray(lengths, dtype=np.int64)
        blocks = BlockColumns.from_windows(
            keys,
            np.cumsum(lengths) - lengths,
            lengths,
            np.frombuffer(canopies, dtype=np.int64),
            view.ids,
            view.left_count,
        )
        return BlockCollection.from_columns(blocks, name=self.name)
