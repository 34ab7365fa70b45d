"""Ground-truth oracle matcher.

Several experiments of the surveyed literature (notably the progressive and
iterative ER ones) assume a *resolve* function whose answers are
(near-)perfect but expensive, and study how to spend a limited number of such
calls.  :class:`OracleMatcher` plays that role: it answers from the ground
truth with configurable false-negative/false-positive rates and a fixed per
comparison cost, while counting every call.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.datamodel.description import EntityDescription
from repro.datamodel.ground_truth import GroundTruth
from repro.datamodel.pairs import Comparison
from repro.matching.matchers import MatchDecision, Matcher, check_cost


class OracleMatcher(Matcher):
    """Matcher that answers from the ground truth, with optional noise.

    Parameters
    ----------
    ground_truth:
        The known matches.
    false_negative_rate:
        Probability of answering "no" for a true match.
    false_positive_rate:
        Probability of answering "yes" for a true non-match.
    cost:
        Cost charged per call (consumed by progressive budgets).
    seed:
        Seed of the noise generator.
    """

    name = "oracle"

    def __init__(
        self,
        ground_truth: GroundTruth,
        false_negative_rate: float = 0.0,
        false_positive_rate: float = 0.0,
        cost: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= false_negative_rate < 1.0:
            raise ValueError("false negative rate must be in [0, 1)")
        if not 0.0 <= false_positive_rate < 1.0:
            raise ValueError("false positive rate must be in [0, 1)")
        self.ground_truth = ground_truth
        self.false_negative_rate = false_negative_rate
        self.false_positive_rate = false_positive_rate
        self.cost = check_cost(cost)
        self._rng = random.Random(seed)
        self.calls = 0

    def similarity(self, first: EntityDescription, second: EntityDescription) -> float:
        return 1.0 if self.ground_truth.are_matches(first.identifier, second.identifier) else 0.0

    def decide(self, first: EntityDescription, second: EntityDescription) -> MatchDecision:
        self.calls += 1
        truth = self.ground_truth.are_matches(first.identifier, second.identifier)
        answer = truth
        if truth and self.false_negative_rate > 0.0:
            if self._rng.random() < self.false_negative_rate:
                answer = False
        elif not truth and self.false_positive_rate > 0.0:
            if self._rng.random() < self.false_positive_rate:
                answer = True
        return MatchDecision(
            comparison=Comparison(first.identifier, second.identifier),
            similarity=1.0 if answer else 0.0,
            is_match=answer,
            cost=self.cost,
        )

    def reset(self) -> None:
        """Reset the call counter (the noise stream is not rewound)."""
        self.calls = 0
