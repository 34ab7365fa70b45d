"""The unified ER framework of the tutorial's Figure 1.

The framework composes the library's building blocks into the workflow the
tutorial presents: **Blocking** (with optional block cleaning and
meta-blocking), **Scheduling** (progressive ordering of the candidate
comparisons), **Matching**, and an optional **Update/Iterate** phase that
propagates match results (merging-based iteration) before the final
clustering.  :class:`~repro.core.workflow.ERWorkflow` is the configurable
pipeline; :func:`~repro.core.workflow.default_workflow` builds a sensible
default for schema-free Web data.

Beyond the batch pipeline, the package holds the shared columnar substrate:
:class:`~repro.core.context.PipelineContext` (one interning pass per run),
its streaming counterpart :class:`~repro.core.growable.GrowableContext`
(append-only ordinals, vocabulary and merged distinct ids for incremental
ER), and :mod:`repro.core.snapshot` (versioned on-disk persistence that
memory-maps those columns back).
"""

from repro.core.config import WorkflowConfig
from repro.core.context import PipelineContext
from repro.core.growable import GrowableColumn, GrowableContext
from repro.core.results import WorkflowResult
from repro.core.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotReader,
    SnapshotWriter,
)
from repro.core.unionfind import IntUnionFind, UnionFind
from repro.core.workflow import ERWorkflow, default_workflow

__all__ = [
    "ERWorkflow",
    "GrowableColumn",
    "GrowableContext",
    "IntUnionFind",
    "PipelineContext",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotReader",
    "SnapshotWriter",
    "UnionFind",
    "WorkflowConfig",
    "WorkflowResult",
    "default_workflow",
]
