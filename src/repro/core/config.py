"""Configuration of the end-to-end ER workflow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


def check_budget(budget: object, owner: str) -> None:
    """Raise :class:`ValueError` unless ``budget`` is ``None`` or a
    non-negative ``int`` that is not a ``bool``; ``owner`` names the field."""
    if budget is not None and (
        isinstance(budget, bool) or not isinstance(budget, int) or budget < 0
    ):
        raise ValueError(f"{owner} must be None or a non-negative int, got {budget!r}")


@dataclass
class WorkflowConfig:
    """Declarative configuration of :class:`~repro.core.workflow.ERWorkflow`.

    The configuration only holds simple, serialisable choices; component
    instances (a custom matcher, a custom scheduler) can be passed directly to
    the workflow constructor and take precedence over the corresponding
    fields here.  How a stage executes is not an option (see
    :mod:`repro.core.workflow`).

    Attributes
    ----------
    blocking:
        Name of the blocking scheme, one of
        :data:`~repro.core.workflow.BLOCKING_SCHEMES`.
    enable_purging / enable_filtering:
        Whether block purging / block filtering run after blocking.
    filtering_ratio:
        Ratio of the block filtering step (ignored when filtering is off).
    enable_metablocking:
        Whether meta-blocking restructures the blocks before scheduling.
    weighting_scheme / pruning_scheme:
        Meta-blocking configuration (ignored when meta-blocking is off),
        from :data:`~repro.metablocking.weighting.WEIGHTING_SCHEMES` and
        :data:`~repro.metablocking.pruning.PRUNING_SCHEMES`.
    scheduler:
        Progressive scheduler name, one of
        :data:`~repro.core.workflow.SCHEDULERS`.
    budget:
        Optional comparison budget for the matching phase (``None`` = resolve
        every scheduled comparison), otherwise a non-negative ``int`` (not a
        ``bool``); anything else raises :class:`ValueError` on construction.
    match_threshold:
        Similarity threshold of the default profile matcher.
    use_tfidf:
        Whether the default matcher weights tokens by TF-IDF.
    iterate_merges:
        Whether the update phase merges matched descriptions and re-runs
        matching on the merge results (merging-based iteration).
    max_iterations:
        Upper bound on update/iterate rounds; must be at least 1 when
        ``iterate_merges`` is on (:class:`ValueError` on construction
        otherwise, as for a ``num_workers`` below 1).
    clustering:
        Final clustering, one of :data:`~repro.core.workflow.CLUSTERINGS`.
    num_workers:
        Number of worker processes of the multi-process parallel engine
        (:class:`~repro.mapreduce.parallel.ParallelEngine`).  The default
        ``1`` runs everything in-process; with ``num_workers > 1`` one engine
        (whose workers read the columns through shared memory) is opened for
        the whole run and the connected-components clustering fans out to
        it (interning, blocking and cleaning, every meta-blocking scheme,
        the weight sort and matching are whole-column kernels in the
        driver).  A clustering the workers cannot reproduce (a custom
        subclass, the greedy center clusterings) silently runs in-process.
        Results -- blocks, retained edges, match decisions, clusters, tie
        orders -- are bit-identical to the single-process run at every
        worker count.  A worker that dies aborts the run with
        :class:`~concurrent.futures.process.BrokenProcessPool`.
    """

    blocking: str = "token"
    enable_purging: bool = True
    enable_filtering: bool = True
    filtering_ratio: float = 0.8
    enable_metablocking: bool = True
    weighting_scheme: str = "CBS"
    pruning_scheme: str = "WNP"
    scheduler: str = "weight_order"
    budget: Optional[int] = None
    match_threshold: float = 0.55
    use_tfidf: bool = True
    iterate_merges: bool = False
    max_iterations: int = 3
    clustering: str = "connected_components"
    num_workers: int = 1

    def __post_init__(self) -> None:
        check_budget(self.budget, "WorkflowConfig.budget")
        if self.iterate_merges and self.max_iterations < 1:
            raise ValueError(
                "max_iterations must be at least 1 when iterate_merges is on, "
                f"got {self.max_iterations}"
            )
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be at least 1, got {self.num_workers}")

    def describe(self) -> str:
        """One-line human-readable summary of the configured pipeline."""
        stages = [self.blocking]
        if self.enable_purging:
            stages.append("purging")
        if self.enable_filtering:
            stages.append(f"filtering({self.filtering_ratio})")
        if self.enable_metablocking:
            stages.append(f"metablocking({self.weighting_scheme}+{self.pruning_scheme})")
        stages.append(f"scheduler={self.scheduler}")
        stages.append(f"matcher(threshold={self.match_threshold})")
        if self.iterate_merges:
            stages.append("iterative-merging")
        stages.append(self.clustering)
        budget = f", budget={self.budget}" if self.budget is not None else ""
        workers = f", workers={self.num_workers}" if self.num_workers > 1 else ""
        return " -> ".join(stages) + budget + workers
