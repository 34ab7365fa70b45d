"""The scheduling stage: a scheduler's rows, or its own ``schedule``.

Every feedback-free library scheduler
(:class:`~repro.progressive.schedulers.WeightOrderScheduler`,
:class:`~repro.progressive.schedulers.RandomOrderScheduler`,
:class:`~repro.progressive.schedulers.StaticOrderScheduler`,
:class:`~repro.progressive.sorted_list.SortedListScheduler`) has one body,
its :meth:`~repro.progressive.schedulers.ProgressiveScheduler.rows`: the
schedule as ordinal rows over an identifier table, which
:func:`~repro.progressive.runner.run_progressive` hands in column chunks to
:meth:`~repro.matching.engine.MatchingEngine.decide_ordinal_pairs`, so a
budgeted run touches only the prefix it can afford.  Their ``schedule`` is
the inherited materialisation of the same rows.

A scheduler whose type overrides ``schedule`` -- the adaptive ones
(progressive sorted neighbourhood, the cost--benefit scheduler, progressive
blocking), the partition hierarchy and any custom or overriding subclass --
runs that generator instead: its order may depend on match feedback or on
behaviour the rows cannot see.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.datamodel.pairs import Comparison
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    ScheduledRows,
)


class SchedulingEngine:
    """Runs a scheduler's rows, or its own ``schedule`` when its type overrides it.

    :attr:`last_engine` reports which path produced the most recent schedule
    (``"array"`` or ``"object"``).
    """

    def __init__(self, scheduler: ProgressiveScheduler) -> None:
        self.scheduler = scheduler
        #: path that actually produced the last schedule
        self.last_engine: Optional[str] = None

    @property
    def feedback_free(self) -> bool:
        """Whether the scheduler leaves :meth:`ProgressiveScheduler.feedback`
        un-overridden, so its schedule may be drained in batches; adaptive
        ones must stay on the draw-one/decide-one loop."""
        return type(self.scheduler).feedback is ProgressiveScheduler.feedback

    def schedule_rows(
        self, data: ERInput, candidates: CandidateSource
    ) -> Optional[ScheduledRows]:
        """The scheduler's rows, or ``None`` when its type overrides ``schedule``."""
        if type(self.scheduler).schedule is not ProgressiveScheduler.schedule:
            self.last_engine = "object"
            return None
        self.last_engine = "array"
        return self.scheduler.rows(data, candidates)

    def schedule(
        self, data: ERInput, candidates: CandidateSource
    ) -> Iterator[Comparison]:
        """The scheduled comparisons, whichever path produces them."""
        rows = self.schedule_rows(data, candidates)
        if rows is None:
            return self.scheduler.schedule(data, candidates)
        return rows.comparisons()
