"""Command-line interface for the ER workflow.

The CLI exposes the end-to-end workflow of :mod:`repro.core` to the shell so
that the library can be used on exported datasets without writing Python::

    # resolve a CSV export (one row per description, an "id" column)
    python -m repro.cli resolve descriptions.csv --output clusters.csv

    # resolve two clean sources against each other
    python -m repro.cli link kb_a.csv kb_b.csv --threshold 0.5

    # generate a synthetic workload for experimentation
    python -m repro.cli generate --entities 500 --domain person --output dirty.json

Every sub-command prints the per-stage report of the workflow; ``resolve`` and
``link`` write the resulting clusters (one line per cluster, identifiers
separated by ``|``) when ``--output`` is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core import ERWorkflow, WorkflowConfig
from repro.core.config import FAILURE_POLICIES
from repro.core.snapshot import SnapshotError
from repro.core.workflow import BLOCKING_SCHEMES, CLUSTERINGS, SCHEDULERS
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datasets import (
    DatasetConfig,
    generate_clean_clean_task,
    generate_dirty_dataset,
    load_collection_csv,
    load_collection_json,
    save_collection_csv,
    save_collection_json,
)
from repro.metablocking.pruning import PRUNING_SCHEMES
from repro.metablocking.weighting import WEIGHTING_SCHEMES


def _load_collection(path: str, id_field: str) -> EntityCollection:
    """Load a collection from CSV or JSON, based on the file extension."""
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return load_collection_json(path)
    if suffix in (".csv", ".tsv", ".txt"):
        return load_collection_csv(path, id_field=id_field)
    raise SystemExit(f"unsupported input format {suffix!r}; expected .csv or .json")


def _input_error(command: str, error: Exception) -> int:
    """A missing or malformed input is a bad argument, not a crash: one
    line on stderr and the usage-error exit status."""
    print(f"repro {command}: error: {error}", file=sys.stderr)
    return 2


def _workflow_from_args(args: argparse.Namespace) -> ERWorkflow:
    try:
        config = WorkflowConfig(
            blocking=args.blocking,
            enable_metablocking=not args.no_metablocking,
            weighting_scheme=args.weighting,
            pruning_scheme=args.pruning,
            scheduler=args.scheduler,
            budget=args.budget,
            match_threshold=args.threshold,
            iterate_merges=args.iterate,
            clustering=args.clustering,
            num_workers=args.num_workers,
            worker_timeout=args.worker_timeout,
            max_shard_retries=args.max_shard_retries,
            on_worker_failure=args.on_worker_failure,
        )
    except ValueError as error:
        # a value the option's type admits but the workflow does not
        # (--budget -5, --num-workers 0): a usage error, exit status 2
        args.usage_error(str(error))
    return ERWorkflow(config)


#: exit code of ``--strict`` runs in which a parallel stage degraded to
#: serial recomputation (results are still correct; the speedup was lost)
EXIT_DEGRADED = 3


def _report_faults(result, strict: bool) -> int:
    """Print per-stage fault-recovery counts; the command's exit code."""
    for stage in sorted(result.fault_events):
        counts = result.fault_events[stage]
        print(
            f"worker faults survived in {stage}: "
            f"retries={counts.get('retries', 0)} "
            f"degraded={counts.get('degraded', 0)} "
            f"pool_rebuilds={counts.get('pool_rebuilds', 0)}"
        )
    if strict and result.degraded_shards:
        print(
            f"--strict: {result.degraded_shards} shard(s) degraded to serial "
            f"recomputation; exiting {EXIT_DEGRADED}"
        )
        return EXIT_DEGRADED
    return 0


def _write_clusters(clusters, output: Optional[str]) -> None:
    if not output:
        return
    lines = ["|".join(sorted(cluster)) for cluster in sorted(clusters, key=lambda c: sorted(c)[0])]
    Path(output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} clusters to {output}")


def _add_workflow_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--blocking", default="token", choices=BLOCKING_SCHEMES, help="blocking scheme (default: token)"
    )
    parser.add_argument("--no-metablocking", action="store_true", help="disable meta-blocking")
    parser.add_argument(
        "--weighting", default="CBS", choices=WEIGHTING_SCHEMES, help="meta-blocking weighting"
    )
    parser.add_argument(
        "--pruning", default="WNP", choices=PRUNING_SCHEMES, help="meta-blocking pruning"
    )
    parser.add_argument(
        "--scheduler", default="weight_order", choices=SCHEDULERS, help="progressive scheduler"
    )
    parser.add_argument(
        "--clustering",
        default="connected_components",
        choices=CLUSTERINGS,
        help="final clustering of the declared matches (default: connected_components)",
    )
    parser.add_argument(
        "--num-workers",
        type=int,
        default=1,
        help="worker processes of the multi-process parallel engine (default: 1 = "
        "in-process; >1 produces bit-identical results)",
    )
    parser.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        help="no-progress timeout (seconds) per parallel shard batch; recovers "
        "from hung workers (default: none -- crashed workers are detected anyway)",
    )
    parser.add_argument(
        "--max-shard-retries",
        type=int,
        default=2,
        help="re-dispatches of a failed shard to a rebuilt pool before the "
        "failure policy applies (default: 2)",
    )
    parser.add_argument(
        "--on-worker-failure",
        default="degrade",
        choices=FAILURE_POLICIES,
        help="after retry exhaustion: recompute failed shards serially on the "
        "driver (degrade, bit-identical results) or abort the run (raise)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=f"exit {EXIT_DEGRADED} if any parallel stage degraded to serial "
        "recomputation (results are still correct; use in CI to catch flaky pools)",
    )
    parser.add_argument("--budget", type=int, default=None, help="comparison budget (default: unlimited)")
    parser.add_argument("--threshold", type=float, default=0.55, help="match threshold")
    parser.add_argument("--iterate", action="store_true", help="enable merging-based iteration")
    parser.add_argument("--id-field", default="id", help="identifier column for CSV input")
    parser.add_argument("--output", default=None, help="file to write the clusters to")
    parser.set_defaults(usage_error=parser.error)


def _command_resolve(args: argparse.Namespace) -> int:
    workflow = _workflow_from_args(args)
    try:
        collection = _load_collection(args.input, args.id_field)
    except (OSError, ValueError) as error:
        return _input_error("resolve", error)
    print(f"resolving {len(collection)} descriptions with: {workflow.config.describe()}")
    result = workflow.run(collection)
    print(result.report.render())
    print(f"{len(result.clusters)} clusters, {result.num_matches} declared matches")
    _write_clusters(result.clusters, args.output)
    return _report_faults(result, args.strict)


def _command_link(args: argparse.Namespace) -> int:
    workflow = _workflow_from_args(args)
    try:
        left = _load_collection(args.left, args.id_field)
        right = _load_collection(args.right, args.id_field)
        task = CleanCleanTask(left, right)
    except (OSError, ValueError) as error:
        return _input_error("link", error)
    print(
        f"linking {len(left)} x {len(right)} descriptions with: {workflow.config.describe()}"
    )
    result = workflow.run(task)
    print(result.report.render())
    print(f"{len(result.clusters)} linked clusters, {result.num_matches} declared links")
    _write_clusters(result.clusters, args.output)
    return _report_faults(result, args.strict)


def _command_incremental(args: argparse.Namespace) -> int:
    try:
        collection = _load_collection(args.input, args.id_field)
    except (OSError, ValueError) as error:
        return _input_error("incremental", error)
    workflow = ERWorkflow(WorkflowConfig(match_threshold=args.threshold))
    mode = f"restored from {args.restore}" if args.restore else "fresh index"
    print(
        f"incrementally resolving {len(collection)} arrivals "
        f"(threshold={args.threshold}, {mode})"
    )
    try:
        result = workflow.run_incremental(
            collection, snapshot=args.snapshot, restore=args.restore
        )
    except (OSError, SnapshotError) as error:
        # a missing, corrupt or foreign snapshot directory is a bad argument
        return _input_error("incremental", error)
    print(result.report.render())
    print(f"{len(result.clusters)} clusters, {result.num_matches} declared matches")
    if args.snapshot:
        print(f"snapshot written to {args.snapshot}")
    _write_clusters(result.clusters, args.output)
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    config = DatasetConfig(
        num_entities=args.entities,
        duplicates_per_entity=args.duplicates,
        domain=args.domain,
        seed=args.seed,
    )
    if args.clean_clean:
        dataset = generate_clean_clean_task(config)
        collection = dataset.task.as_single_collection()
    else:
        dataset = generate_dirty_dataset(config)
        collection = dataset.collection

    output = Path(args.output)
    if output.suffix.lower() == ".json":
        save_collection_json(collection, output)
    else:
        save_collection_csv(collection, output)
    print(f"wrote {len(collection)} descriptions to {output}")

    if args.ground_truth:
        truth_path = Path(args.ground_truth)
        clusters = [sorted(cluster) for cluster in dataset.ground_truth.clusters]
        truth_path.write_text(
            json.dumps({"clusters": clusters}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {len(clusters)} ground-truth clusters to {truth_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Web-scale blocking, iterative and progressive entity resolution",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    resolve = subparsers.add_parser("resolve", help="deduplicate a single (dirty) collection")
    resolve.add_argument("input", help="CSV or JSON file with one row/object per description")
    _add_workflow_arguments(resolve)
    resolve.set_defaults(handler=_command_resolve)

    link = subparsers.add_parser("link", help="link two duplicate-free collections")
    link.add_argument("left", help="CSV or JSON file of the first collection")
    link.add_argument("right", help="CSV or JSON file of the second collection")
    _add_workflow_arguments(link)
    link.set_defaults(handler=_command_link)

    incremental = subparsers.add_parser(
        "incremental",
        help="resolve a collection as an arrival stream, with optional "
        "snapshot/restore of the resolution state",
    )
    incremental.add_argument(
        "input", help="CSV or JSON file with one row/object per description"
    )
    incremental.add_argument(
        "--threshold", type=float, default=0.55, help="match threshold"
    )
    incremental.add_argument(
        "--snapshot",
        default=None,
        help="directory to persist the resolution state to after the stream",
    )
    incremental.add_argument(
        "--restore",
        default=None,
        help="snapshot directory to start from (memory-mapped; arrivals "
        "resolve on top of the restored state)",
    )
    incremental.add_argument("--id-field", default="id", help="identifier column for CSV input")
    incremental.add_argument("--output", default=None, help="file to write the clusters to")
    incremental.set_defaults(handler=_command_incremental)

    generate = subparsers.add_parser("generate", help="generate a synthetic workload")
    generate.add_argument("--entities", type=int, default=500)
    generate.add_argument("--duplicates", type=float, default=1.0)
    generate.add_argument("--domain", default="person", choices=["person", "product", "publication"])
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--clean-clean", action="store_true", help="generate a clean-clean task")
    generate.add_argument("--output", required=True, help="CSV or JSON file to write")
    generate.add_argument("--ground-truth", default=None, help="JSON file for the ground-truth clusters")
    generate.set_defaults(handler=_command_generate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
