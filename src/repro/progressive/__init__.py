"""Progressive (pay-as-you-go) entity resolution (Section IV of the tutorial).

Progressive ER maximises the number of matches reported within a limited
computing budget by adding a *scheduling* phase to the ER workflow: it decides
which candidate comparisons to execute and in what order, favouring the most
promising ones, and optionally an *update* phase that propagates matching
results so that the next schedule promotes comparisons influenced by them.

Schedulers implemented:

* :class:`~repro.progressive.schedulers.RandomOrderScheduler` and
  :class:`~repro.progressive.schedulers.WeightOrderScheduler` -- baselines
  (arbitrary order, meta-blocking-weight order).
* :class:`~repro.progressive.hierarchy.PartitionHierarchyScheduler` -- the
  pay-as-you-go "hierarchy of record partitions" hint.
* :class:`~repro.progressive.sorted_list.SortedListScheduler` -- the
  pay-as-you-go "sorted list of records" hint with incrementally widening
  windows.
* :class:`~repro.progressive.psnm.ProgressiveSortedNeighborhood` -- the
  progressive sorted-neighbourhood method with local lookahead.
* :class:`~repro.progressive.psnm.ProgressiveBlockScheduler` -- progressive
  block scheduling (distinct pairs, smallest blocks first).
* :class:`~repro.progressive.scheduler.CostBenefitScheduler` -- the windowed
  cost--benefit scheduler with an influence graph and an update phase.

:func:`~repro.progressive.runner.run_progressive` executes any scheduler
against a matcher under a comparison budget and records the progressive
recall curve.

Scheduling paths
----------------

A scheduler whose order is fixed up front (weight order, random order,
static order, sorted list, the partition hierarchy, progressive blocking)
has one body, its
:meth:`~repro.progressive.schedulers.ProgressiveScheduler.rows`: the
schedule as ordinal rows over an identifier table.  Blocks, meta-blocking's
:class:`~repro.datamodel.pairs.ComparisonColumns` and plain comparison
lists reach it through one normaliser,
:func:`~repro.progressive.schedulers.candidate_columns`;
:func:`~repro.progressive.runner.run_progressive` drains the rows as
column chunks into :meth:`~repro.matching.engine.MatchingEngine.decide_ordinal_pairs`,
so a comparison budget costs only the prefix it affords, and ``schedule``
is the same rows as ``Comparison`` objects.  A scheduler whose type
overrides ``schedule`` -- the adaptive ones (progressive sorted
neighbourhood, the cost--benefit scheduler) and custom or overriding
subclasses -- runs that generator instead
(:class:`~repro.progressive.engine.SchedulingEngine`).
"""

from repro.progressive.budget import Budget
from repro.progressive.engine import SchedulingEngine
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.progressive.psnm import ProgressiveBlockScheduler, ProgressiveSortedNeighborhood
from repro.progressive.runner import ProgressiveResult, run_progressive
from repro.progressive.schedulers import (
    ProgressiveScheduler,
    RandomOrderScheduler,
    ScheduledRows,
    StaticOrderScheduler,
    WeightOrderScheduler,
)
from repro.progressive.scheduler import CostBenefitScheduler
from repro.progressive.sorted_list import SortedListScheduler

__all__ = [
    "Budget",
    "CostBenefitScheduler",
    "PartitionHierarchyScheduler",
    "ProgressiveBlockScheduler",
    "ProgressiveResult",
    "ProgressiveScheduler",
    "ProgressiveSortedNeighborhood",
    "RandomOrderScheduler",
    "ScheduledRows",
    "SchedulingEngine",
    "SortedListScheduler",
    "StaticOrderScheduler",
    "WeightOrderScheduler",
    "run_progressive",
]
