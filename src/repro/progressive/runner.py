"""Executing a progressive scheduler under a budget and recording its curve.

:func:`run_progressive` is the driver shared by the examples and the
progressive benchmarks: it draws comparisons from a scheduler, resolves them
with a matcher while a :class:`~repro.progressive.budget.Budget` lasts, feeds
every decision back to the scheduler (the update phase), and records the
progressive recall curve against the ground truth (when provided).

Comparisons are executed through a
:class:`~repro.matching.engine.MatchingEngine`, which caches each
description's token profile in a columnar store so an entity compared *K*
times is tokenised once.  There are three
execution shapes, all bit-identical to the historical per-pair loop
(decisions, matches, ``budget_spent``, one curve point per comparison):

* **columnar drain** -- a scheduler's rows (``scheduling``) and an engine
  whose shared context owns ``data``: every batch is two columns of context
  ordinals handed to :meth:`MatchingEngine.decide_ordinal_pairs
  <repro.matching.engine.MatchingEngine.decide_ordinal_pairs>`.  No
  description pair, ``Comparison`` or ``MatchDecision`` is built; the budget
  is charged and the curve extended once per batch
  (:meth:`Budget.charge_many <repro.progressive.budget.Budget.charge_many>`,
  :meth:`ProgressiveRecallCurve.record_many
  <repro.evaluation.curves.ProgressiveRecallCurve.record_many>`) and Python
  runs per *match* only.  A schedule whose identifier table is not the
  context's own is mapped to context ordinals once per identifier;
  identifiers the data lacks are counted as skips.  With ``keep_decisions``
  the similarities are output, so they come from the engine's exact body
  (:meth:`MatchingEngine.score_ordinal_pairs
  <repro.matching.engine.MatchingEngine.score_ordinal_pairs>`).
* **object drain** -- any other feedback-free scheduler (one that leaves
  :meth:`~repro.progressive.schedulers.ProgressiveScheduler.feedback`
  un-overridden) is drained in batches of scheduled ``Comparison`` objects
  through :meth:`MatchingEngine.decide_pairs
  <repro.matching.engine.MatchingEngine.decide_pairs>`.
* **draw-one/decide-one** -- adaptive schedulers (their next draw may depend
  on the last decision), still hitting the profile cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.ground_truth import GroundTruth
from repro.datamodel.pairs import Comparison, DecisionColumns, canonical_pair, pair_code
from repro.evaluation.curves import ProgressiveRecallCurve
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import DecisionList, MatchDecision, Matcher
from repro.progressive.budget import Budget
from repro.progressive.engine import SchedulingEngine
from repro.progressive.schedulers import CandidateSource, ERInput, ProgressiveScheduler

#: Comparisons drawn per scheduler drain when batch execution applies.
DEFAULT_BATCH_SIZE = 512


class _GroundTruthOrdinals:
    """Ground-truth cluster index per schedule-table ordinal, resolved lazily.

    The ordinal-coded fast path of the progressive recall curve: instead of
    probing the ground truth with one identifier-pair lookup per executed
    comparison, each table identifier is resolved to its cluster index once
    (the table may still be growing -- interning schedulers register
    identifiers as they stream -- so resolution is lazy), and a decision is
    a true match exactly when both indices are equal and known.  Merged
    identifiers (``"a+b"``), which carry provenance semantics, fall back to
    :meth:`GroundTruth.are_matches` -- marked with a sentinel so the check
    costs one comparison on the common path.
    """

    __slots__ = ("_truth", "_ids", "_index")

    _MERGED = -2

    def __init__(self, truth: GroundTruth, ids) -> None:
        self._truth = truth
        self._ids = ids
        self._index: List[int] = []

    def _cluster(self, ordinal: int) -> int:
        index = self._index
        ids = self._ids
        while len(index) <= ordinal:
            identifier = ids[len(index)]
            if "+" in identifier:
                index.append(self._MERGED)
            else:
                index.append(self._truth.cluster_index(identifier))
        return index[ordinal]

    def are_matches(self, first: int, second: int, pair: Tuple[str, str]) -> bool:
        index_a = self._cluster(first)
        index_b = self._cluster(second)
        if index_a == self._MERGED or index_b == self._MERGED:
            return self._truth.are_matches(*pair)
        return index_a >= 0 and index_a == index_b


@dataclass
class ProgressiveResult:
    """Outcome of a budgeted progressive run."""

    scheduler_name: str
    comparisons_executed: int = 0
    declared_matches: List[Tuple[str, str]] = field(default_factory=list)
    true_matches_found: int = 0
    budget_spent: float = 0.0
    curve: Optional[ProgressiveRecallCurve] = None
    #: executed decisions when ``keep_decisions`` is on: a plain list on the
    #: object paths, a :class:`~repro.datamodel.pairs.DecisionColumns` (same
    #: decisions, materialised lazily) on the columnar drain
    decisions: Sequence[MatchDecision] = field(default_factory=list)
    #: scheduled comparisons dropped because an identifier did not resolve
    #: against the input data (also summarised by a RuntimeWarning)
    skipped_comparisons: int = 0

    @property
    def recall(self) -> float:
        """Final recall of the run (0 when no ground truth was supplied)."""
        if self.curve is None:
            return 0.0
        return self.curve.final_recall()

    @property
    def auc(self) -> float:
        """Normalised area under the progressive recall curve (0 without ground truth)."""
        if self.curve is None:
            return 0.0
        return self.curve.auc()


def run_progressive(
    scheduler: ProgressiveScheduler,
    matcher: Matcher,
    data: ERInput,
    candidates: CandidateSource,
    budget: Union[Budget, int, None] = None,
    ground_truth: Optional[GroundTruth] = None,
    keep_decisions: bool = False,
    engine: Optional[MatchingEngine] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    scheduling: Optional[SchedulingEngine] = None,
) -> ProgressiveResult:
    """Run ``scheduler`` against ``matcher`` until the budget is exhausted.

    Parameters
    ----------
    scheduler:
        The progressive scheduler deciding the comparison order.
    matcher:
        The pairwise matcher; its per-decision ``cost`` is charged to the budget.
    data:
        The entity collection or clean--clean task being resolved.
    candidates:
        Candidate comparisons (a block collection or a comparison sequence).
    budget:
        A :class:`Budget`, a plain integer budget, or ``None`` for unlimited.
    ground_truth:
        When given, the progressive recall curve counts *true* matches among
        the declared ones; without it, no curve is recorded.
    keep_decisions:
        Whether to retain every :class:`MatchDecision` in the result (memory
        heavy for large runs; benchmarks usually keep it off).
        ``result.decisions`` is a
        :class:`~repro.datamodel.pairs.DecisionColumns` only on the columnar
        drain -- an array schedule *and* a ``MatchingEngine`` whose shared
        context owns ``data``; every other combination, including an engine
        without such a context (the one built here when ``engine`` is
        ``None`` never has one), returns a plain list of the same decisions.
    engine:
        A :class:`~repro.matching.engine.MatchingEngine` wrapping
        ``matcher``, or ``None`` (default) for ``MatchingEngine(matcher)``.
        The engine only changes *how* comparisons are scored (cached columnar
        profiles, one kernel over ordinal columns), never the decisions;
        matchers the batch path cannot replicate run per pair.
    batch_size:
        How many comparisons are drawn per scheduler drain when batch
        execution applies.  Schedulers that adapt to feedback are always
        drained one comparison at a time, whatever this value.
    scheduling:
        A :class:`~repro.progressive.engine.SchedulingEngine` wrapping
        ``scheduler``, or ``None`` (default) for
        ``SchedulingEngine(scheduler)``.  It takes the scheduler's
        ordinal rows, which an engine with a shared context over ``data``
        drains straight into :meth:`MatchingEngine.decide_ordinal_pairs`
        without materialising scheduled ``Comparison`` objects; a scheduler
        whose type overrides ``schedule`` runs that generator.
    """
    if budget is None:
        budget_obj = Budget(None)
    elif isinstance(budget, Budget):
        budget_obj = budget
    else:
        budget_obj = Budget(float(budget))

    if engine is None:
        engine = MatchingEngine(matcher)
    elif engine.matcher is not matcher:
        raise ValueError(
            "the MatchingEngine passed as `engine` wraps a different matcher "
            "than the `matcher` argument; decisions would silently come from "
            "the engine's matcher"
        )
    if scheduling is None:
        scheduling = SchedulingEngine(scheduler)
    elif scheduling.scheduler is not scheduler:
        raise ValueError(
            "the SchedulingEngine passed as `scheduling` wraps a different "
            "scheduler than the `scheduler` argument; the schedule would "
            "silently come from the engine's scheduler"
        )

    curve = None
    if ground_truth is not None:
        max_comparisons = int(budget_obj.total) if budget_obj.total is not None else None
        curve = ProgressiveRecallCurve(ground_truth, budget=max_comparisons)

    result = ProgressiveResult(scheduler_name=scheduler.name, curve=curve)
    seen_matches: Set[Tuple[str, str]] = set()

    def process(comparison: Comparison, decision: MatchDecision) -> bool:
        """Charge, record and feed back one decision; False when budget is out."""
        if not budget_obj.charge(decision.cost):
            return False
        result.comparisons_executed += 1
        scheduler.feedback(decision)
        if keep_decisions:
            result.decisions.append(decision)

        is_true_match = False
        if decision.is_match:
            result.declared_matches.append(decision.pair)
            if ground_truth is not None:
                is_true_match = (
                    ground_truth.are_matches(*decision.pair) and decision.pair not in seen_matches
                )
                if is_true_match:
                    seen_matches.add(decision.pair)
                    result.true_matches_found += 1
        if curve is not None:
            curve.record(comparison, is_match=is_true_match)
        return True

    # same accounting as Matcher.decide_all: unresolvable comparisons are
    # counted and surfaced, whichever execution path drops them
    skips = DecisionList()

    # batch drains are only sound when the scheduler ignores feedback: an
    # adaptive scheduler's next draw may depend on the previous decision
    adaptive = not scheduling.feedback_free
    rows = scheduling.schedule_rows(data, candidates)
    scheduled = rows.comparisons() if rows is not None else scheduler.schedule(data, candidates)

    if engine.batch_applicable and not adaptive and batch_size > 1:
        # the batch path only runs for a fixed-cost ProfileSimilarityMatcher,
        # so a draw never needs to exceed what the remaining budget can charge
        cost = matcher.cost

        def affordable_draw() -> int:
            """Comparisons to draw next: a batch, or what the budget still
            covers plus one (the one that shows it is exhausted); 0 when out."""
            if budget_obj.total is None or cost <= 0:
                return batch_size
            remaining = budget_obj.remaining
            return 0 if remaining < cost else min(batch_size, int(remaining / cost) + 1)

        context = engine.context
        if rows is not None and context is not None and context.owns(data):
            # ---------- columnar drain: ordinals in, flags out ----------
            # every batch is two ordinal columns handed to the engine's
            # kernel; the budget is charged and the curve extended per
            # batch, and Python runs per *match* only.  The scheduler leaves
            # its feedback hook un-overridden (the batch condition above),
            # so the per-decision callback is skipped outright.
            ids = rows.ids
            row_iter = rows.rows
            decisions_out: Optional[DecisionColumns] = None
            if keep_decisions:
                decisions_out = DecisionColumns(ids, cost=cost)
                result.decisions = decisions_out
            truth_ordinals = (
                _GroundTruthOrdinals(ground_truth, ids)
                if ground_truth is not None
                else None
            )
            # a table that is not the context's own (a scheduler that
            # interns identifiers as it streams) is mapped to context
            # ordinals once per identifier; -1 marks one the data lacks
            to_context: Optional[List[int]] = None if ids is context.ids else []
            seen_codes: Set[int] = set()
            while True:
                batch = list(islice(row_iter, affordable_draw()))
                if not batch:
                    break
                first, second, _weights = zip(*batch)
                left, right = first, second
                if to_context is not None:
                    for identifier in ids[len(to_context) :]:
                        ordinal = context.ordinal(identifier)
                        to_context.append(-1 if ordinal is None else ordinal)
                    left = [to_context[f] for f in first]
                    right = [to_context[s] for s in second]
                    resolved = [a >= 0 and b >= 0 for a, b in zip(left, right)]
                    if not all(resolved):
                        for f, s, found in zip(first, second, resolved):
                            if not found:
                                skips.record_skip(canonical_pair(ids[f], ids[s]))
                        first, second, left, right = (
                            list(compress(column, resolved))
                            for column in (first, second, left, right)
                        )
                if decisions_out is None:
                    flags = engine.decide_ordinal_pairs(left, right)
                else:
                    # the similarities are output: every one from the exact body
                    scores = engine.score_ordinal_pairs(left, right)
                    flags = [score >= matcher.threshold for score in scores]
                executed = budget_obj.charge_many(cost, len(flags))
                result.comparisons_executed += executed
                if decisions_out is not None:
                    decisions_out.first.extend(first[:executed])
                    decisions_out.second.extend(second[:executed])
                    decisions_out.similarity.extend(scores[:executed])
                    decisions_out.is_match.extend(flags[:executed])
                true_matches = bytearray(executed)
                for position in compress(range(executed), flags):
                    f, s = first[position], second[position]
                    pair = canonical_pair(ids[f], ids[s])
                    result.declared_matches.append(pair)
                    if truth_ordinals is not None:
                        code = pair_code(f, s)
                        if code not in seen_codes and truth_ordinals.are_matches(f, s, pair):
                            seen_codes.add(code)
                            true_matches[position] = 1
                            result.true_matches_found += 1
                if curve is not None:
                    curve.record_many(true_matches)
                if executed < len(flags):
                    break
        else:
            # ---------- object drain: scheduled Comparison objects ----------
            def resolve_draw(draw: int):
                drawn = 0
                resolved = []
                for comparison in islice(scheduled, draw):
                    drawn += 1
                    first = data.get(comparison.first)
                    second = data.get(comparison.second)
                    if first is None or second is None:
                        skips.record_skip(comparison.pair)
                        continue
                    resolved.append((comparison, first, second))
                return drawn, resolved

            exhausted = False
            while not exhausted:
                drawn, resolved = resolve_draw(affordable_draw())
                if not drawn:
                    break
                decisions = engine.decide_pairs([(f, s) for _, f, s in resolved])
                for (comparison, _, _), decision in zip(resolved, decisions):
                    if not process(comparison, decision):
                        exhausted = True
                        break
    else:
        for comparison in scheduled:
            first = data.get(comparison.first)
            second = data.get(comparison.second)
            if first is None or second is None:
                skips.record_skip(comparison.pair)
                continue
            if not process(comparison, engine.decide(first, second)):
                break

    result.skipped_comparisons = skips.skipped
    skips.warn_if_skipped()
    result.budget_spent = budget_obj.spent
    return result
