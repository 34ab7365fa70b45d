"""Pairwise matchers.

A matcher turns a pair of descriptions into a :class:`MatchDecision`: a
similarity score, a boolean decision and the cost charged against a
progressive budget.  Three matcher families are provided:

* :class:`ProfileSimilarityMatcher` -- schema-agnostic: compares the token
  profiles (optionally TF-IDF-weighted) of whole descriptions.  This is the
  right default for the Web of data, where attribute names are not aligned.
* :class:`AttributeWeightedMatcher` -- schema-aware: a weighted combination of
  per-attribute similarities, the classical record-linkage configuration.
* :class:`RuleBasedMatcher` -- a conjunction/disjunction of
  :class:`ThresholdRule` conditions on individual attributes.
"""

from __future__ import annotations

import abc
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison
from repro.text.similarity import get_similarity, jaccard_similarity
from repro.text.tokenize import DEFAULT_STOP_WORDS, check_min_token_length, token_set, tokenize
from repro.text.vectorizer import TfIdfVectorizer


@dataclass(frozen=True)
class MatchDecision:
    """The outcome of comparing two descriptions."""

    comparison: Comparison
    similarity: float
    is_match: bool
    cost: float = 1.0

    @property
    def pair(self) -> Tuple[str, str]:
        return self.comparison.pair


class DecisionList(List[MatchDecision]):
    """A list of match decisions plus batch-execution bookkeeping.

    Behaves exactly like a plain list of :class:`MatchDecision`; additionally
    carries how many comparisons were *skipped* because one of their
    identifiers could not be resolved against the input data (a symptom of
    blocking output and matching input drifting out of sync).
    """

    __slots__ = ("skipped", "skipped_examples")

    def __init__(self, decisions: Iterable[MatchDecision] = ()) -> None:
        super().__init__(decisions)
        #: number of comparisons dropped due to unresolvable identifiers
        self.skipped: int = 0
        #: up to the first five skipped identifier pairs, for diagnostics
        self.skipped_examples: List[Tuple[str, str]] = []

    def record_skip(self, pair: Tuple[str, str]) -> None:
        """Count one skipped comparison, keeping the first few as examples."""
        self.skipped += 1
        if len(self.skipped_examples) < 5:
            self.skipped_examples.append(pair)

    def warn_if_skipped(self) -> None:
        """Emit the shared unresolvable-identifier warning when skips occurred."""
        if self.skipped:
            _warn_skipped_comparisons(self.skipped, self.skipped_examples)


def _warn_skipped_comparisons(skipped: int, examples: Sequence[Tuple[str, str]]) -> None:
    """Emit the shared unresolvable-identifier warning of ``decide_all``."""
    sample = ", ".join(f"{first!r}-{second!r}" for first, second in examples[:3])
    warnings.warn(
        f"decide_all skipped {skipped} comparison(s) whose identifiers could not "
        f"be resolved against the input data (e.g. {sample}); the candidate "
        "comparisons and the entity collection appear to be out of sync",
        RuntimeWarning,
        stacklevel=3,
    )


def _finite_non_negative(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0


def check_cost(cost) -> float:
    """``cost`` if it is a finite real number ``>= 0``, else ``ValueError``."""
    if not _finite_non_negative(cost):
        raise ValueError(f"cost must be a finite number >= 0, got {cost!r}")
    return cost


def check_threshold(threshold) -> float:
    """``threshold`` if it is a real number in [0, 1], else ``ValueError``
    (NaN and ``bool`` fail)."""
    if (
        isinstance(threshold, bool)
        or not isinstance(threshold, numbers.Real)
        or not 0.0 <= threshold <= 1.0
    ):
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    return threshold


class Matcher(abc.ABC):
    """Interface of a pairwise matcher."""

    name: str = "matcher"

    @abc.abstractmethod
    def similarity(self, first: EntityDescription, second: EntityDescription) -> float:
        """Similarity score of the two descriptions in [0, 1]."""

    @abc.abstractmethod
    def decide(self, first: EntityDescription, second: EntityDescription) -> MatchDecision:
        """Full decision (score, boolean match, cost) for the two descriptions."""

    def match(self, first: EntityDescription, second: EntityDescription) -> bool:
        """Boolean decision only."""
        return self.decide(first, second).is_match

    # ------------------------------------------------------------------
    def decide_all(
        self,
        comparisons: Iterable[Comparison],
        data: Union[EntityCollection, CleanCleanTask],
    ) -> DecisionList:
        """Decide a batch of comparisons, resolving identifiers against ``data``.

        Comparisons whose identifiers cannot be resolved are not decided, but
        they are no longer dropped invisibly: the returned
        :class:`DecisionList` counts them (:attr:`DecisionList.skipped`) and a
        :class:`RuntimeWarning` summarises the first few offending pairs.
        """
        decisions = DecisionList()
        for comparison in comparisons:
            first = data.get(comparison.first)
            second = data.get(comparison.second)
            if first is None or second is None:
                decisions.record_skip(comparison.pair)
                continue
            decision = self.decide(first, second)
            decisions.append(
                MatchDecision(
                    comparison=comparison,
                    similarity=decision.similarity,
                    is_match=decision.is_match,
                    cost=decision.cost,
                )
            )
        decisions.warn_if_skipped()
        return decisions


class ProfileSimilarityMatcher(Matcher):
    """Schema-agnostic matcher over whole-description token profiles.

    Parameters
    ----------
    threshold:
        Similarity at or above which the pair is declared a match.
    vectorizer:
        Optional fitted :class:`TfIdfVectorizer`; when given, the similarity
        is the TF-IDF weighted cosine, otherwise the set similarity named by
        ``similarity_name`` over the token sets.
    similarity_name:
        Set similarity used without a vectoriser: ``"jaccard"`` (default),
        ``"dice"``, ``"overlap"`` or ``"cosine"``.  The overlap coefficient is
        the right choice when merged descriptions are compared (merging grows
        the token union, which dilutes Jaccard but not the overlap
        coefficient).
    """

    name = "profile_similarity"

    def __init__(
        self,
        threshold: float = 0.5,
        vectorizer: Optional[TfIdfVectorizer] = None,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
        similarity_name: str = "jaccard",
        cost: float = 1.0,
    ) -> None:
        check_threshold(threshold)
        from repro.text.similarity import SET_SIMILARITIES

        if similarity_name not in SET_SIMILARITIES:
            raise KeyError(
                f"unknown set similarity {similarity_name!r}; available: {sorted(SET_SIMILARITIES)}"
            )
        self.threshold = threshold
        self.vectorizer = vectorizer
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = check_min_token_length(min_token_length)
        self.similarity_name = similarity_name
        self._set_similarity = SET_SIMILARITIES[similarity_name]
        self.cost = check_cost(cost)

    def similarity(self, first: EntityDescription, second: EntityDescription) -> float:
        if self.vectorizer is not None:
            return self.vectorizer.similarity(first, second)
        tokens_a = token_set(
            first.values(), stop_words=self.stop_words, min_length=self.min_token_length
        )
        tokens_b = token_set(
            second.values(), stop_words=self.stop_words, min_length=self.min_token_length
        )
        return self._set_similarity(tokens_a, tokens_b)

    def decide(self, first: EntityDescription, second: EntityDescription) -> MatchDecision:
        score = self.similarity(first, second)
        return MatchDecision(
            comparison=Comparison(first.identifier, second.identifier),
            similarity=score,
            is_match=score >= self.threshold,
            cost=self.cost,
        )


class AttributeWeightedMatcher(Matcher):
    """Schema-aware matcher: weighted combination of per-attribute similarities.

    Parameters
    ----------
    attribute_weights:
        Mapping ``attribute name -> weight``; weights are normalised to sum
        to 1.  Attributes missing from *both* descriptions are skipped and
        their weight redistributed; attributes missing from one side score 0.
    similarity_name:
        Name of the per-attribute similarity (one of the registered string or
        set similarities, e.g. ``"jaro_winkler"``, ``"jaccard"``).
    threshold:
        Combined score at or above which the pair is a match.
    """

    name = "attribute_weighted"

    def __init__(
        self,
        attribute_weights: Mapping[str, float],
        similarity_name: str = "jaro_winkler",
        threshold: float = 0.75,
        cost: float = 1.0,
    ) -> None:
        if not attribute_weights:
            raise ValueError("attribute weights must not be empty")
        for attribute, weight in attribute_weights.items():
            if not _finite_non_negative(weight):
                raise ValueError(
                    f"the weight of {attribute!r} must be a finite number >= 0, got {weight!r}"
                )
        check_threshold(threshold)
        total = sum(attribute_weights.values())
        if total <= 0:
            raise ValueError("attribute weights must sum to a positive value")
        self.attribute_weights = {k: v / total for k, v in attribute_weights.items()}
        self.similarity_name = similarity_name
        self._similarity = get_similarity(similarity_name)
        self._is_set_similarity = similarity_name in ("jaccard", "dice", "overlap", "cosine")
        self.threshold = threshold
        self.cost = check_cost(cost)
        # raw value -> normalised form (token list or lowercased string).
        # Attribute values repeat heavily across the candidate pairs of one
        # run (each description is compared K times), so memoising the
        # per-value normalisation removes the dominant re-tokenisation cost.
        # The cache lives as long as the matcher; bounded by distinct values.
        self._value_cache: Dict[str, object] = {}

    def _normalised(self, value: str) -> object:
        cached = self._value_cache.get(value)
        if cached is None:
            cached = tokenize(value) if self._is_set_similarity else value.lower()
            self._value_cache[value] = cached
        return cached

    def _attribute_similarity(self, value_a: str, value_b: str) -> float:
        return self._similarity(self._normalised(value_a), self._normalised(value_b))

    def similarity(self, first: EntityDescription, second: EntityDescription) -> float:
        weighted_sum = 0.0
        weight_used = 0.0
        for attribute, weight in self.attribute_weights.items():
            values_a = first.values(attribute)
            values_b = second.values(attribute)
            if not values_a and not values_b:
                continue  # attribute absent on both sides: redistribute weight
            weight_used += weight
            if not values_a or not values_b:
                continue  # absent on one side only: contributes 0
            best = max(
                self._attribute_similarity(a, b) for a in values_a for b in values_b
            )
            weighted_sum += weight * best
        if weight_used == 0.0:
            return 0.0
        return weighted_sum / weight_used

    def decide(self, first: EntityDescription, second: EntityDescription) -> MatchDecision:
        score = self.similarity(first, second)
        return MatchDecision(
            comparison=Comparison(first.identifier, second.identifier),
            similarity=score,
            is_match=score >= self.threshold,
            cost=self.cost,
        )


@dataclass(frozen=True)
class ThresholdRule:
    """A single condition: similarity of one attribute must reach a threshold."""

    attribute: str
    threshold: float
    similarity_name: str = "jaro_winkler"
    _similarity: Callable[..., float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_threshold(self.threshold)
        # an unknown name fails here (KeyError), not at the first evaluate
        object.__setattr__(self, "_similarity", get_similarity(self.similarity_name))

    def evaluate(self, first: EntityDescription, second: EntityDescription) -> Tuple[bool, float]:
        values_a = first.values(self.attribute)
        values_b = second.values(self.attribute)
        if not values_a or not values_b:
            return False, 0.0
        similarity = self._similarity
        if self.similarity_name in ("jaccard", "dice", "overlap", "cosine"):
            best = max(
                similarity(tokenize(a), tokenize(b)) for a in values_a for b in values_b
            )
        else:
            best = max(similarity(a.lower(), b.lower()) for a in values_a for b in values_b)
        return best >= self.threshold, best


class RuleBasedMatcher(Matcher):
    """Conjunction (default) or disjunction of threshold rules.

    The reported similarity is the average of the per-rule best scores, so the
    matcher can still feed schedulers that expect a numeric score.
    """

    name = "rule_based"

    def __init__(self, rules: Sequence[ThresholdRule], require_all: bool = True, cost: float = 1.0) -> None:
        if not rules:
            raise ValueError("rule-based matching requires at least one rule")
        self.rules = list(rules)
        self.require_all = require_all
        self.cost = check_cost(cost)

    def similarity(self, first: EntityDescription, second: EntityDescription) -> float:
        scores = [rule.evaluate(first, second)[1] for rule in self.rules]
        return sum(scores) / len(scores)

    def decide(self, first: EntityDescription, second: EntityDescription) -> MatchDecision:
        outcomes = [rule.evaluate(first, second) for rule in self.rules]
        satisfied = [ok for ok, _ in outcomes]
        scores = [score for _, score in outcomes]
        is_match = all(satisfied) if self.require_all else any(satisfied)
        return MatchDecision(
            comparison=Comparison(first.identifier, second.identifier),
            similarity=sum(scores) / len(scores),
            is_match=is_match,
            cost=self.cost,
        )
