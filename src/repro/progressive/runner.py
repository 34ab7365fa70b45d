"""Executing a progressive scheduler under a budget and recording its curve.

:func:`run_progressive` is the driver shared by the examples and the
progressive benchmarks: it draws comparisons from a scheduler, resolves them
with a matcher while a :class:`~repro.progressive.budget.Budget` lasts, feeds
every decision back to the scheduler (the update phase), and records the
progressive recall curve against the ground truth (when provided).

Comparisons are executed through a
:class:`~repro.matching.engine.MatchingEngine` over a pipeline context that
owns the data (the caller's, or a private one the engine builds:
:meth:`MatchingEngine.over <repro.matching.engine.MatchingEngine.over>`), so
an entity compared *K* times is tokenised once.  The scheduler and matcher
types alone pick one of two execution shapes, both bit-identical to the
historical per-pair loop (decisions, matches, ``budget_spent``, skips, one
curve point per comparison):

* **column drain** -- every feedback-free scheduler (one that leaves
  :meth:`~repro.progressive.schedulers.ProgressiveScheduler.feedback`
  un-overridden) under a matcher the batch engine implements, in one chunk
  loop, whatever the batch size.  :meth:`ScheduledRows.take
  <repro.progressive.schedulers.ScheduledRows.take>` hands out the next
  rows as two int64 ordinal arrays (slices of the sorted columns, or a
  generator's rows packed -- a scheduler that overrides ``schedule`` is
  interned as it streams), :meth:`MatchingEngine.decide_ordinal_pairs
  <repro.matching.engine.MatchingEngine.decide_ordinal_pairs>` returns their
  flags as an array, the budget is charged and the curve extended once per
  chunk (:meth:`Budget.charge_many
  <repro.progressive.budget.Budget.charge_many>`,
  :meth:`ProgressiveRecallCurve.record_many
  <repro.evaluation.curves.ProgressiveRecallCurve.record_many>`), and the
  declared matches are kept as context ordinals
  (:attr:`ProgressiveResult.match_columns`).  No description pair,
  ``Comparison`` or ``MatchDecision`` is built and Python runs per *match*
  only.  A schedule whose identifier table is not the context's own is
  mapped to context ordinals once per identifier; identifiers the data
  lacks are counted as skips.  With ``keep_decisions`` the similarities are
  output, so they come from the engine's exact body
  (:meth:`MatchingEngine.score_ordinal_pairs
  <repro.matching.engine.MatchingEngine.score_ordinal_pairs>`).
* **draw-one/decide-one** -- adaptive schedulers (their next draw may depend
  on the last decision) and matchers the batch engine does not implement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.blocking.base import check_count
from repro.datamodel.ground_truth import GroundTruth
from repro.datamodel.pairs import DecisionColumns, canonical_pair, pair_code
from repro.evaluation.curves import ProgressiveRecallCurve
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import DecisionList, MatchDecision, Matcher
from repro.progressive.budget import Budget
from repro.progressive.engine import SchedulingEngine
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    comparison_rows,
)

import numpy as _np

#: Comparisons drawn per chunk when batch execution applies.
DEFAULT_BATCH_SIZE = 512


@dataclass
class ProgressiveResult:
    """Outcome of a budgeted progressive run."""

    scheduler_name: str
    comparisons_executed: int = 0
    #: the declared matches in declaration order, as positive decisions at
    #: similarity 1.0 (what clustering reads): over the shared context's
    #: ordinals on the column drain, interned identifiers otherwise
    match_columns: DecisionColumns = field(default_factory=lambda: DecisionColumns([]))
    true_matches_found: int = 0
    budget_spent: float = 0.0
    curve: Optional[ProgressiveRecallCurve] = None
    #: executed decisions when ``keep_decisions`` is on: a plain list on the
    #: per-row path, a :class:`~repro.datamodel.pairs.DecisionColumns` (same
    #: decisions, materialised lazily) on the column drain
    decisions: Sequence[MatchDecision] = field(default_factory=list)
    #: scheduled comparisons dropped because an identifier did not resolve
    #: against the input data (also summarised by a RuntimeWarning)
    skipped_comparisons: int = 0

    @property
    def declared_matches(self) -> List[Tuple[str, str]]:
        """The declared matches as canonical identifier pairs, in declaration order."""
        return self.match_columns.matched_pairs()

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
        :class:`~repro.datamodel.pairs.DecisionColumns` on the column drain
        and a plain list of the same decisions otherwise.
    engine:
        A :class:`~repro.matching.engine.MatchingEngine` wrapping
        ``matcher``, or ``None`` (default) for ``MatchingEngine(matcher)``.
        The engine only changes *how* comparisons are scored (columnar
        profiles, one kernel over ordinal columns), never the decisions;
        matchers the batch path cannot replicate run per pair.  An engine
        whose context does not own ``data`` runs over a private one.
    batch_size:
        How many comparisons the column drain draws per chunk at most (an
        ``int >= 1``).  Schedulers that adapt to feedback are always drained
        one comparison at a time, whatever this value.
    scheduling:
        A :class:`~repro.progressive.engine.SchedulingEngine` wrapping
        ``scheduler``, or ``None`` (default) for
        ``SchedulingEngine(scheduler)``.  It takes the scheduler's
        ordinal rows, which the column drain hands straight to
        :meth:`MatchingEngine.decide_ordinal_pairs` without materialising
        scheduled ``Comparison`` objects; a scheduler whose type overrides
        ``schedule`` runs that generator.
    """
    check_count("batch_size", batch_size, 1)
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
    engine = engine.over(data)

    curve = None
    if ground_truth is not None:
        max_comparisons = int(budget_obj.total) if budget_obj.total is not None else None
        curve = ProgressiveRecallCurve(ground_truth, budget=max_comparisons)

    result = ProgressiveResult(scheduler_name=scheduler.name, curve=curve)
    # same accounting as Matcher.decide_all: unresolvable comparisons are
    # counted and surfaced, whichever execution path drops them
    skips = DecisionList()
    rows = scheduling.schedule_rows(data, candidates)

    # batch drains are only sound when the scheduler ignores feedback: an
    # adaptive scheduler's next draw may depend on the previous decision
    if engine.batch_applicable and scheduling.feedback_free:
        if rows is None:
            rows = comparison_rows(scheduler.schedule(data, candidates))
        context = engine.context
        # the batch path only runs for a fixed-cost ProfileSimilarityMatcher,
        # so a draw never needs to exceed what the remaining budget can charge
        cost = matcher.cost
        ids = rows.ids
        # a table that is not the context's own (a scheduler that interns
        # identifiers as it streams) is mapped to context ordinals once per
        # identifier; -1 marks one the data lacks
        to_context = None if ids is context.ids else _np.zeros(0, dtype=_np.int64)
        decisions = None
        if keep_decisions:
            decisions = result.decisions = DecisionColumns(context.ids, cost=cost)
        matches = result.match_columns = DecisionColumns(context.ids)
        seen_codes: Set[int] = set()
        while True:
            draw = batch_size
            if budget_obj.total is not None and cost > 0:
                # what the budget still covers plus one: the row that shows
                # it is exhausted, so the unresolvable rows before it are
                # counted as the per-row loop counts them
                draw = min(batch_size, int(budget_obj.remaining / cost) + 1)
            first, second = rows.take(draw)
            if not len(first):
                break
            if to_context is not None:
                if len(to_context) < len(ids):
                    fresh = map(context.ordinal, ids[len(to_context) :])
                    fresh = [-1 if ordinal is None else ordinal for ordinal in fresh]
                    to_context = _np.concatenate((to_context, fresh)).astype(_np.int64)
                resolved = (to_context[first] >= 0) & (to_context[second] >= 0)
                if not resolved.all():
                    for f, s in zip(first[~resolved].tolist(), second[~resolved].tolist()):
                        skips.record_skip(canonical_pair(ids[f], ids[s]))
                first, second = to_context[first[resolved]], to_context[second[resolved]]
            if decisions is None:
                flags = engine.decide_ordinal_pairs(first, second)
            else:
                # the similarities are output: every one from the exact body
                scores = engine.score_ordinal_pairs(first.tolist(), second.tolist())
                flags = _np.array(scores) >= matcher.threshold
            executed = budget_obj.charge_many(cost, len(flags))
            result.comparisons_executed += executed
            if decisions is not None:
                decisions.extend(
                    first[:executed].tolist(),
                    second[:executed].tolist(),
                    scores[:executed],
                    flags[:executed].tolist(),
                )
            matched = _np.flatnonzero(flags[:executed])
            pairs = first[matched].tolist(), second[matched].tolist()
            matches.extend(*pairs, repeat(1.0, len(matched)), repeat(1, len(matched)))
            if curve is not None:
                true_matches = bytearray(executed)
                for position, f, s in zip(matched.tolist(), *pairs):
                    code = pair_code(f, s)
                    if code not in seen_codes and ground_truth.are_matches(
                        matches.ids[f], matches.ids[s]
                    ):
                        seen_codes.add(code)
                        true_matches[position] = 1
                        result.true_matches_found += 1
                curve.record_many(true_matches)
            if executed < len(flags):
                break
    else:
        declared: List[Tuple[str, str]] = []
        seen_matches: Set[Tuple[str, str]] = set()
        scheduled = rows.comparisons() if rows is not None else scheduler.schedule(data, candidates)
        for comparison in scheduled:
            first = data.get(comparison.first)
            second = data.get(comparison.second)
            if first is None or second is None:
                skips.record_skip(comparison.pair)
                continue
            decision = engine.decide(first, second)
            if not budget_obj.charge(decision.cost):
                break
            result.comparisons_executed += 1
            scheduler.feedback(decision)
            if keep_decisions:
                result.decisions.append(decision)
            is_true_match = False
            if decision.is_match:
                declared.append(decision.pair)
                if ground_truth is not None and decision.pair not in seen_matches:
                    is_true_match = ground_truth.are_matches(*decision.pair)
                    if is_true_match:
                        seen_matches.add(decision.pair)
                        result.true_matches_found += 1
            if curve is not None:
                curve.record(comparison, is_match=is_true_match)
        result.match_columns = DecisionColumns.from_match_pairs(declared)

    result.skipped_comparisons = skips.skipped
    skips.warn_if_skipped()
    result.budget_spent = budget_obj.spent
    return result
