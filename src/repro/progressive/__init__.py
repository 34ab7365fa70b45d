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
  block scheduling (block-pair ordering with match feedback).
* :class:`~repro.progressive.scheduler.CostBenefitScheduler` -- the windowed
  cost--benefit scheduler with an influence graph and an update phase.

:func:`~repro.progressive.runner.run_progressive` executes any scheduler
against a matcher under a comparison budget and records the progressive
recall curve.

Scheduling paths
----------------

Like the blocking, meta-blocking and matching phases, scheduling executes
behind :class:`~repro.progressive.engine.SchedulingEngine`, and the
scheduler's exact type selects the path.  The feedback-free library
schedulers -- weight-ordered, static-order, random-order, sorted-list and
progressive-block (with promotion disabled) -- run over flat ordinal/weight
arrays: meta-blocking hands its retained edges over as
:class:`~repro.datamodel.pairs.ComparisonColumns`, ordering is one argsort
or a lazy row generator, a comparison budget becomes a slice of the ordered
rows, and :func:`~repro.progressive.runner.run_progressive` feeds the drawn
rows straight into
:meth:`~repro.matching.engine.MatchingEngine.decide_ordinal_pairs` without
ever materialising scheduled ``Comparison`` objects.

Every other scheduler -- the adaptive ones (progressive sorted
neighbourhood, the cost--benefit scheduler, progressive blocking with match
promotion), custom :class:`~repro.progressive.schedulers.ProgressiveScheduler`
implementations and subclasses of the native types -- runs its own
``schedule`` generator, the readable reference the equivalence suite
(``tests/test_scheduling_engine.py``) compares against: its order may depend
on match feedback or overridden behaviour that an up-front array order
cannot represent.  That exact-type rule is how user schedulers plug into
the workflow.  Both paths produce bit-identical schedules -- the same
comparisons in the same order (including order under weight ties), hence
the same matches and the same progressive recall curve.
"""

from repro.progressive.budget import Budget
from repro.progressive.engine import ScheduledRows, SchedulingEngine
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.progressive.psnm import ProgressiveBlockScheduler, ProgressiveSortedNeighborhood
from repro.progressive.runner import ProgressiveResult, run_progressive
from repro.progressive.schedulers import (
    ProgressiveScheduler,
    RandomOrderScheduler,
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
