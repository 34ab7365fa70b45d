"""Iterative entity resolution (Section III of the tutorial).

Iterative ER exploits any partial result of the ER process to generate new
candidate pairs or revise earlier decisions.  The package implements the
general queue-driven framework (initialisation phase + iterative phase) and
its two families:

* **merging-based** -- matches are merged and the merged description is
  compared again (:mod:`repro.iterative.swoosh`, R-Swoosh style, plus the
  naive fixpoint baseline);
* **relationship-based** -- matches of related descriptions trigger new or
  re-prioritised comparisons (:mod:`repro.iterative.collective`).

Iterative blocking (:mod:`repro.iterative.iterative_blocking`) interleaves the
iterative process with blocking: merges found in one block are propagated to
all other blocks, saving redundant comparisons and finding extra matches.

One body per resolver, and its tie rules
----------------------------------------

Each of the four resolvers (:class:`RSwoosh`, :class:`NaivePairwiseER`,
:class:`CollectiveER`, :class:`AttributeOnlyER`) has one body.  The merging
resolvers ask ``matcher.match`` one pair at a time for every matcher; the
collective ones score their initial pairs through
:class:`~repro.matching.engine.MatchingEngine` (for the exact
:class:`~repro.matching.matchers.ProfileSimilarityMatcher`, over a pipeline
context of their collection;
``matcher.similarity`` pair by pair for any other).  The tie rules: candidate pairs
initialise and re-queue in sorted canonical-pair order, R-Swoosh merges the
*first* matching partner in resolved order, the naive baseline merges the
lexicographically first matching index pair, a collective merge keeps the
first description's cluster label, and final clusters emit in ascending
surviving-cluster order.  ``tests/fixtures/iterative/`` freezes their
output on seeded inputs.
"""

from repro.iterative.collective import AttributeOnlyER, CollectiveER, CollectiveResult
from repro.iterative.incremental import ArrivalResult, IncrementalResolver
from repro.iterative.index import IncrementalIndex
from repro.iterative.iterative_blocking import (
    IndependentBlockProcessing,
    IterativeBlocking,
    IterativeBlockingResult,
)
from repro.iterative.queue import ComparisonQueue, IterativeResult, QueueBasedResolver
from repro.iterative.swoosh import NaivePairwiseER, RSwoosh, SwooshResult

__all__ = [
    "ArrivalResult",
    "AttributeOnlyER",
    "CollectiveER",
    "CollectiveResult",
    "ComparisonQueue",
    "IncrementalIndex",
    "IncrementalResolver",
    "IndependentBlockProcessing",
    "IterativeBlocking",
    "IterativeBlockingResult",
    "IterativeResult",
    "NaivePairwiseER",
    "QueueBasedResolver",
    "RSwoosh",
    "SwooshResult",
]
