"""repro -- Web-scale Blocking, Iterative and Progressive Entity Resolution.

A from-scratch Python reproduction of the entity-resolution framework surveyed
in the ICDE 2017 tutorial *Web-scale Blocking, Iterative and Progressive
Entity Resolution* (Stefanidis, Christophides, Efthymiou).

The library is organised around the tutorial's Figure 1 workflow:

* :mod:`repro.datamodel` -- schema-free entity descriptions, collections,
  ground truth.
* :mod:`repro.datasets` -- synthetic Web-of-data workload generators and
  loaders.
* :mod:`repro.text` -- tokenisation and string similarity substrate.
* :mod:`repro.blocking` -- traditional and schema-agnostic blocking schemes,
  block cleaning.
* :mod:`repro.metablocking` -- blocking graph, edge weighting, pruning.
* :mod:`repro.mapreduce` -- the multi-process engine for the parallel
  stages (shared-memory columns, supervised worker pool).
* :mod:`repro.matching` -- pairwise matchers, oracle, clustering.
* :mod:`repro.iterative` -- merging-based and relationship-based iterative ER,
  iterative blocking.
* :mod:`repro.progressive` -- pay-as-you-go schedulers, budgets, the array
  scheduling engine, progressive runner.
* :mod:`repro.evaluation` -- PC/PQ/RR, matching quality, progressive recall.
* :mod:`repro.core` -- the configurable end-to-end workflow and the shared
  columnar pipeline context.

Quickstart::

    from repro import DatasetConfig, default_workflow, generate_dirty_dataset

    dataset = generate_dirty_dataset(DatasetConfig(num_entities=500))
    workflow = default_workflow()
    result = workflow.run(dataset.collection, dataset.ground_truth)
    print(result.summary())
"""

from repro.core import ERWorkflow, WorkflowConfig, WorkflowResult, default_workflow
from repro.datamodel import (
    CleanCleanTask,
    Comparison,
    EntityCollection,
    EntityDescription,
    GroundTruth,
)
from repro.datasets import (
    DatasetConfig,
    generate_bibliographic_dataset,
    generate_clean_clean_task,
    generate_dirty_dataset,
)
from repro.evaluation import evaluate_blocks, evaluate_comparisons, evaluate_matches

__version__ = "1.0.0"

__all__ = [
    "CleanCleanTask",
    "Comparison",
    "DatasetConfig",
    "ERWorkflow",
    "EntityCollection",
    "EntityDescription",
    "GroundTruth",
    "WorkflowConfig",
    "WorkflowResult",
    "__version__",
    "default_workflow",
    "evaluate_blocks",
    "evaluate_comparisons",
    "evaluate_matches",
    "generate_bibliographic_dataset",
    "generate_clean_clean_task",
    "generate_dirty_dataset",
]
