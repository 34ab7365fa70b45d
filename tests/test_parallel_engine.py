"""The multi-process parallel engine: its one pooled stage and its lifecycle.

:class:`~repro.mapreduce.parallel.ParallelEngine` pools one stage,
connected-components clustering; every other stage runs on the driver and
ignores the engine it is handed.  The driver-stage tests pass a live engine
to blocking, cleaning, comparison propagation and every weighting x pruning
pair of meta-blocking (at 1/2/4/8 workers, and over the frozen fixture) and
check that it changes nothing: same output, no pool started, no segment
created.  The workflow tests hold the whole run's matches, clusters and
per-stage counts equal at 1/2/4 workers, check that every pruning scheme's
workflow hands the pool the clustering pass only, and run the degenerate
shapes (empty collection, single entity, more workers than entities).

The lifecycle tests assert the driver-owns-everything rule observably: after
``close`` no shared-memory segment created by the engine is left behind in
``/dev/shm``, and further work on the engine is refused.  The dispatch tests
pin what ``executor.map`` gives the stage: results in task order, a job's own
exception unchanged, and a killed worker as ``BrokenProcessPool`` (under fork
and spawn) with every segment still unlinked.  The failure tests route one
shard of the pooled clustering pass through a test-module wrapper: a killed
worker aborts the workflow with ``BrokenProcessPool`` and leaves no segment,
and a lagging first shard changes no result.  The janitor tests cover the
``/dev/shm`` sweep of segments a crashed driver left behind.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from array import array
from concurrent.futures.process import BrokenProcessPool

import pytest
from test_metablocking_equivalence import collection, column_rows, fixture, fixture_cases

import repro
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core import ERWorkflow, WorkflowConfig
from repro.core.context import PipelineContext
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datasets import DatasetConfig
from repro.datasets.generator import iter_descriptions
from repro.mapreduce import shm, worker
from repro.mapreduce.balancing import contiguous_partitions
from repro.mapreduce.parallel import ParallelEngine
from repro.metablocking.pipeline import MetaBlocking

DATASETS = ("dirty", "clean")
WORKER_COUNTS = (1, 2, 4, 8)
WEIGHTINGS = ("CBS", "JS", "ARCS", "ECBS", "EJS")


def blocks_snapshot(blocks):
    """Full structural snapshot: key order, member order, bilateral split."""
    return [
        (block.key, tuple(block.members), tuple(block.left_members), tuple(block.right_members))
        for block in blocks
    ]


def edges_snapshot(edge_iterable):
    """Retained edges in stream order, weights compared exactly."""
    return [(edge.first, edge.second, edge.weight) for edge in edge_iterable]


def live_clustering(par):
    """Run one pooled connected-components pass on ``par``: it ships a segment."""
    first, second = array("q", [0, 1, 3]), array("q", [1, 2, 4])
    return par.cluster_links(first, second, bytearray([1, 1, 1]), 5)


def shm_segments():
    """The POSIX shared-memory segments currently alive (None if unobservable)."""
    if not os.path.isdir("/dev/shm"):
        return None
    return sorted(
        name
        for name in os.listdir("/dev/shm")
        if name.startswith("psm_") or name.startswith("repro-")
    )


@pytest.fixture(scope="module")
def dirty_setup(small_dirty_dataset):
    data = small_dirty_dataset.collection
    context = PipelineContext(data)
    blocks = BlockingEngine(TokenBlocking(max_block_fraction=0.5), context=context).build(data)
    return data, context, blocks


@pytest.fixture(scope="module")
def streamed_setup():
    """A dirty collection streamed through the generator; only the workflow reads it."""
    config = DatasetConfig(num_entities=150, duplicates_per_entity=1.0, domain="person", seed=330)
    return EntityCollection(iter_descriptions(config), name="streamed"), None, None


@pytest.fixture(scope="module")
def clean_setup(small_clean_clean_dataset):
    data = small_clean_clean_dataset.task
    context = PipelineContext(data)
    blocks = BlockingEngine(TokenBlocking(max_block_fraction=0.5), context=context).build(data)
    return data, context, blocks


def _setup(request, dataset):
    return request.getfixturevalue(f"{dataset}_setup")


class TestContiguousPartitions:
    def test_exactly_num_workers_ranges_in_order(self):
        parts = contiguous_partitions([1.0] * 10, 3)
        assert len(parts) == 3
        assert parts[0][0] == 0 and parts[-1][1] == 10
        for (_, stop), (next_start, _) in zip(parts, parts[1:]):
            assert stop == next_start

    def test_more_workers_than_items_yields_empty_tails(self):
        parts = contiguous_partitions([1.0, 1.0], 5)
        assert len(parts) == 5
        assert parts[0][0] == 0 and parts[-1][1] == 2
        covered = sum(stop - start for start, stop in parts)
        assert covered == 2

    def test_empty_input(self):
        parts = contiguous_partitions([], 4)
        assert len(parts) == 4
        assert all(start == stop for start, stop in parts)

    def test_skew_is_balanced(self):
        costs = [100.0] + [1.0] * 99
        parts = contiguous_partitions(costs, 4)
        loads = [sum(costs[start:stop]) for start, stop in parts]
        # the huge item sits alone-ish; no worker gets everything
        assert max(loads) < sum(costs)
        assert all(stop > start for start, stop in parts)

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            contiguous_partitions([1.0], 0)


#: the driver stages a live engine is handed to: pruning scheme -> weighting
#: (EJS puts the degree-based factor column on the path), or propagation
DRIVER_STAGES = {
    "WEP": "EJS",
    "CEP": "ARCS",
    "CNP": "JS",
    "ReciprocalCNP": "ECBS",
    "propagation": None,
}


def _driver_stage(stage, context, blocks, parallel):
    """``(rows, last_engine)`` of one driver stage run with ``parallel=``
    (propagation has no ``last_engine``: ``None``)."""
    if stage == "propagation":
        propagated = BlockingEngine(parallel=parallel).clean(
            blocks, purging=BlockPurging(), filtering=BlockFiltering(0.8), propagate=True
        )
        return blocks_snapshot(propagated), None
    metablocking = MetaBlocking(DRIVER_STAGES[stage], stage)
    columns = metablocking.weighted_columns(blocks, context=context, parallel=parallel)
    rows = list(zip(columns.first, columns.second, columns.weights))
    return rows, metablocking.last_engine


class TestDriverStages:
    """Only connected components is pooled: the other stages accept a live
    engine and ignore it."""

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("stage", sorted(DRIVER_STAGES))
    def test_a_live_engine_changes_nothing_and_starts_nothing(self, request, dataset, stage):
        _, context, blocks = _setup(request, dataset)
        expected, _ = _driver_stage(stage, context, blocks, None)
        assert expected
        with ParallelEngine(num_workers=2) as par:
            got, engine = _driver_stage(stage, context, blocks, par)
            assert par._executor is None  # no pool was started
            assert par._segment_seq == 0  # no segment was created
        assert got == expected
        assert engine == (None if stage == "propagation" else "index")


class TestParallelBlocking:
    """Build, purging and filtering are not pooled stages: ``parallel=`` is
    accepted and the driver's column kernels run either way."""

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_build_and_clean_stay_on_the_driver(self, request, dataset):
        data, context, seq_blocks = _setup(request, dataset)
        builder = TokenBlocking(max_block_fraction=0.5)
        with ParallelEngine(num_workers=2) as par:
            engine = BlockingEngine(builder, context=context, parallel=par)
            built = engine.build(data)
            cleaned = engine.clean(built, purging=BlockPurging(), filtering=BlockFiltering(0.8))
            assert par._segments == []  # nothing was shipped to the pool
            assert par._executor is None
        expected = BlockingEngine(builder, context=context).clean(
            seq_blocks, purging=BlockPurging(), filtering=BlockFiltering(0.8)
        )
        assert blocks_snapshot(built) == blocks_snapshot(seq_blocks)
        assert blocks_snapshot(cleaned) == blocks_snapshot(expected)


class TestParallelMetaBlocking:
    """Every weighting x pruning pair with a live engine passed: the driver's
    index engine runs, the edges equal the serial ones in order and weight,
    and the pool is never started."""

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("pruning", ("WEP", "CEP", "CNP", "ReciprocalCNP"))
    def test_edges_bit_identical(self, request, dataset, weighting, pruning):
        _, _, blocks = _setup(request, dataset)
        metablocking = MetaBlocking(weighting, pruning)
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        with ParallelEngine(num_workers=3) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
            assert par._executor is None and par._segment_seq == 0
        assert metablocking.last_engine == "index"
        assert got == expected

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("pruning", ("WNP", "ReciprocalWNP"))
    def test_wnp_runs_on_the_driver(self, request, dataset, weighting, pruning):
        # one sequential pass: the pool is handed nothing, the columns are
        # the serial ones row for row
        _, context, blocks = _setup(request, dataset)
        metablocking = MetaBlocking(weighting, pruning)
        expected = metablocking.weighted_columns(blocks, context=context)
        with ParallelEngine(num_workers=2) as par:
            got = metablocking.weighted_columns(blocks, context=context, parallel=par)
            assert par._segments == [] and par._executor is None
        assert metablocking.last_engine == "index"
        assert len(expected) > 0
        assert (list(got.first), list(got.second), list(got.weights)) == (
            list(expected.first),
            list(expected.second),
            list(expected.weights),
        )

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_count_invariance(self, request, dataset, workers):
        # EJS/WEP puts the degree-based factor column and both WEP passes
        # on the path
        _, _, blocks = _setup(request, dataset)
        metablocking = MetaBlocking("EJS", "WEP")
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        with ParallelEngine(num_workers=workers) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
            assert par._executor is None
        assert metablocking.last_engine == "index"
        assert got == expected

    def test_a_live_engine_reproduces_the_frozen_fixture(self):
        # the WEP / CEP / CNP rows with an engine passed are the frozen
        # rows, weights bit for bit
        cases = [
            (name, spec)
            for name, spec in fixture_cases()
            if name.startswith(("dirty/3/", "clean-clean/3/", "mixed/3/"))
            and spec[2] in ("WEP", "CEP", "CNP")
        ]
        assert len(cases) == 45
        with ParallelEngine(num_workers=2) as par:
            for name, (key, weighting, pruning, _params) in cases:
                metablocking = MetaBlocking(weighting, pruning)
                columns = metablocking.weighted_columns(collection(key), parallel=par)
                assert metablocking.last_engine == "index"
                expected = fixture()[name]
                assert column_rows(columns) == expected["rows"], name
                assert (metablocking.last_graph_edges, metablocking.last_retained_edges) == (
                    expected["graph_edges"],
                    expected["retained"],
                )
            assert par._executor is None


class TestEdgeCasesAndLifecycle:
    def test_empty_collection(self):
        data = EntityCollection([], name="empty")
        context = PipelineContext(data)
        with ParallelEngine(num_workers=4) as par:
            blocks = BlockingEngine(TokenBlocking(), context=context, parallel=par).build(data)
            assert len(blocks) == 0
            columns = MetaBlocking("CBS", "WNP").weighted_columns(
                blocks, context=context, parallel=par
            )
            assert len(columns) == 0

    def test_single_entity_with_more_workers_than_input(self):
        data = EntityCollection(
            [EntityDescription("x1", {"name": "Lonely Entity"})], name="single"
        )
        context = PipelineContext(data)
        sequential = BlockingEngine(TokenBlocking(), context=context).build(data)
        with ParallelEngine(num_workers=8) as par:
            built = BlockingEngine(TokenBlocking(), context=context, parallel=par).build(data)
            assert blocks_snapshot(built) == blocks_snapshot(sequential)
            metablocking = MetaBlocking("CBS", "WNP")
            assert edges_snapshot(metablocking.iter_retained(built, parallel=par)) == []

    def test_tiny_collection_more_workers_than_entities(self, tiny_collection):
        context = PipelineContext(tiny_collection)
        sequential = BlockingEngine(TokenBlocking(), context=context).build(tiny_collection)
        metablocking = MetaBlocking("JS", "CNP")
        expected = edges_snapshot(metablocking.iter_retained(sequential))
        with ParallelEngine(num_workers=16) as par:
            built = BlockingEngine(TokenBlocking(), context=context, parallel=par).build(
                tiny_collection
            )
            got = edges_snapshot(metablocking.iter_retained(built, parallel=par))
        assert blocks_snapshot(built) == blocks_snapshot(sequential)
        assert got == expected

    def test_segments_destroyed_on_close(self):
        before = shm_segments()
        if before is None:
            pytest.skip("/dev/shm not observable on this platform")
        par = ParallelEngine(num_workers=2)
        try:
            assert live_clustering(par) is not None
            assert par._segments
        finally:
            par.close()
        leaked = sorted(set(shm_segments()) - set(before))
        assert leaked == []

    def test_close_is_idempotent_and_final(self):
        par = ParallelEngine(num_workers=2)
        live_clustering(par)
        par.close()
        par.close()
        with pytest.raises(RuntimeError):
            live_clustering(par)

    @pytest.mark.parametrize("dataset", DATASETS + ("streamed",))
    def test_workflow_end_to_end_equivalence(self, request, dataset):
        data, _, _ = _setup(request, dataset)
        signatures = []
        for workers in (1, 2, 4):
            config = WorkflowConfig(num_workers=workers, iterate_merges=True)
            result = ERWorkflow(config).run(data)
            signatures.append(
                (
                    sorted(tuple(sorted(match)) for match in result.matches),
                    sorted(frozenset(cluster) for cluster in result.clusters),
                    result.comparisons_executed,
                    # every stage's counts; the label names the path that ran
                    [
                        {k: v for k, v in row.items() if k not in ("stage", "seconds")}
                        for row in result.report.to_rows()
                    ],
                )
            )
        assert signatures[1:] == signatures[:1] * 2


# module-level jobs: picklable under every start method


def _square_job(task):
    return task[0] * task[0]


def _failing_job(task):
    if task[0] == 1:
        raise ValueError(f"deterministic data error on {task[0]}")
    return task[0]


def _attach_then_die_job(task):
    """Attach the shared segment as a real shard does; shard 1 then dies."""
    spec, shard = task
    shm.AttachedSegment(spec)
    if shard == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return shard


def repro_segments():
    """The ``repro-*`` segments currently in ``/dev/shm``."""
    return sorted(name for name in os.listdir("/dev/shm") if name.startswith("repro-"))


class TestDispatch:
    def test_results_come_back_in_task_order(self):
        with ParallelEngine(num_workers=2) as par:
            assert par._run(_square_job, [(i,) for i in range(8)]) == [
                i * i for i in range(8)
            ]

    def test_a_jobs_own_exception_propagates_unchanged(self):
        with ParallelEngine(num_workers=2) as par:
            with pytest.raises(ValueError, match="deterministic data error on 1"):
                par._run(_failing_job, [(0,), (1,), (2,)])
            # a raising job leaves the workers serving
            assert par._run(_square_job, [(3,)]) == [9]

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_killed_worker_raises_broken_pool_and_leaks_nothing(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method on this platform")
        before = repro_segments()
        par = ParallelEngine(num_workers=2, start_method=start_method)
        try:
            segment = par._segment({"values": ("q", array("q", range(16)))})
            tasks = [(segment.spec, shard) for shard in range(4)]
            started = time.monotonic()
            signal.alarm(60)  # a hang kills the run instead of stalling it
            try:
                with pytest.raises(BrokenProcessPool):
                    par._run(_attach_then_die_job, tasks)
            finally:
                signal.alarm(0)
            assert time.monotonic() - started < 10.0
        finally:
            par.close()
        assert repro_segments() == before
        assert shm.orphaned_segments() == []

    def test_a_broken_pool_stays_broken_until_close(self):
        par = ParallelEngine(num_workers=2)
        segment = par._segment({"values": ("q", array("q", range(16)))})
        tasks = [(segment.spec, shard) for shard in range(4)]
        try:
            with pytest.raises(BrokenProcessPool):
                par._run(_attach_then_die_job, tasks)
            # no silent rebuild: the next stage fails just as loudly
            with pytest.raises(BrokenProcessPool):
                par._run(_square_job, [(3,)])
        finally:
            par.close()
        par.close()
        assert shm.orphaned_segments() == []
        with pytest.raises(RuntimeError, match="closed"):
            par._run(_square_job, [(3,)])

    @pytest.mark.parametrize("knob", ("worker_timeout", "max_shard_retries", "on_worker_failure"))
    def test_no_retry_knob_is_accepted(self, knob):
        with pytest.raises(TypeError, match=knob):
            ParallelEngine(num_workers=2, **{knob: 1})


#: ten pooled clustering passes in a fresh interpreter -- more segments than a
#: worker's attachment cache holds -- then close and exit
TRACKER_SCRIPT = """
from array import array
from repro.mapreduce.parallel import ParallelEngine

if __name__ == "__main__":
    with ParallelEngine(num_workers=2, start_method={method!r}) as par:
        for _ in range(10):
            par.cluster_links(
                array("q", [0, 1, 3]), array("q", [1, 2, 4]), bytearray([1, 1, 1]), 5
            )
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.parametrize("start_method", ("fork", "spawn", "forkserver"))
def test_a_pooled_run_leaves_the_resource_tracker_quiet(start_method):
    # every start method shares the driver's tracker: a worker that
    # unregistered its attachment made the driver's unlink print a tracker
    # KeyError per segment, and a worker exiting with a mapping still
    # pinned by its views prints an ignored BufferError (both outside
    # pytest's capture, hence the subprocess)
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start_method} start method on this platform")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", TRACKER_SCRIPT.format(method=start_method)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert not re.search("Traceback|Exception ignored|leaked", run.stderr), run.stderr
    assert shm.orphaned_segments() == []


# ---------------------------------------------------------------------------
# a killed or lagging worker in each pooled stage
# ---------------------------------------------------------------------------

#: the pooled stage: the default workflow's connected components
STAGES = ("clustering",)


def _pass_label(job, tasks) -> str:
    return "clustering" if job is worker.cluster_links_job else "other"


def _die_if_marked(job, marked_task):
    marked, task = marked_task
    if marked:
        os.kill(os.getpid(), signal.SIGKILL)
    return job(task)


def _lag_if_marked(job, marked_task):
    marked, task = marked_task
    if marked:
        time.sleep(0.1)
    return job(task)


def _sabotage(monkeypatch, label, wrapper, shard=0):
    """Route shard ``shard`` of the first ``label`` pass through ``wrapper``.

    Returns the list that records, once the pass ran, whether it had that
    shard -- the test's guard against a sabotage that never fired.
    """
    fired = []
    original = ParallelEngine._run

    def _run(self, job, tasks):
        if not fired and _pass_label(job, tasks) == label:
            fired.append(shard < len(tasks))
            tasks = [(index == shard, task) for index, task in enumerate(tasks)]
            job = functools.partial(wrapper, job)
        return original(self, job, tasks)

    monkeypatch.setattr(ParallelEngine, "_run", _run)
    return fired


def _fingerprint(result):
    return (result.clusters, result.matches, result.comparisons_executed)


@pytest.fixture(scope="module")
def serial_result(small_dirty_dataset):
    return _fingerprint(ERWorkflow(WorkflowConfig()).run(small_dirty_dataset.collection))


def _pooled_run(dataset, num_workers=2):
    return ERWorkflow(WorkflowConfig(num_workers=num_workers)).run(dataset.collection)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestWorkerFailurePerStage:
    @pytest.mark.parametrize("stage", STAGES)
    def test_killed_worker_aborts_the_workflow(self, monkeypatch, small_dirty_dataset, stage):
        before = repro_segments()
        fired = _sabotage(monkeypatch, stage, _die_if_marked)
        with pytest.raises(BrokenProcessPool):
            _pooled_run(small_dirty_dataset)
        assert fired == [True]
        # the workflow closed its engine on the way out
        assert repro_segments() == before
        assert shm.orphaned_segments() == []

    @pytest.mark.parametrize("stage", STAGES)
    def test_killed_worker_at_four_workers(self, monkeypatch, small_dirty_dataset, stage):
        before = repro_segments()
        fired = _sabotage(monkeypatch, stage, _die_if_marked, shard=1)
        with pytest.raises(BrokenProcessPool):
            _pooled_run(small_dirty_dataset, num_workers=4)
        assert fired == [True]
        assert repro_segments() == before
        assert shm.orphaned_segments() == []

    @pytest.mark.parametrize("stage", STAGES)
    def test_lagging_first_shard_changes_nothing(
        self, monkeypatch, small_dirty_dataset, serial_result, stage
    ):
        # shard 0 finishes last, so the merge must follow task order, not
        # completion order
        fired = _sabotage(monkeypatch, stage, _lag_if_marked)
        result = _pooled_run(small_dirty_dataset)
        assert fired == [True]
        assert _fingerprint(result) == serial_result
        assert result.fault_events == {}
        assert shm.orphaned_segments() == []

    def test_a_clean_pooled_run_reports_no_faults(self, small_dirty_dataset, serial_result):
        with ParallelEngine(num_workers=2) as par:
            assert par.fault_stats == {}
        result = _pooled_run(small_dirty_dataset)
        assert _fingerprint(result) == serial_result
        assert result.fault_events == {}
        assert not [row for row in result.report.to_rows() if "fault" in row["stage"]]
        assert "fault" not in result.summary()


#: one workflow configuration per pruning scheme (the default is CBS + WNP)
SCHEME_CONFIGS = {
    "WEP": {"weighting_scheme": "ARCS", "pruning_scheme": "WEP"},
    "CEP": {"weighting_scheme": "EJS", "pruning_scheme": "CEP"},
    "WNP": {},
    "CNP": {"pruning_scheme": "CNP"},
    "ReciprocalWNP": {"weighting_scheme": "JS", "pruning_scheme": "ReciprocalWNP"},
    "ReciprocalCNP": {"weighting_scheme": "ECBS", "pruning_scheme": "ReciprocalCNP"},
}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.parametrize("scheme", sorted(SCHEME_CONFIGS))
def test_every_pruning_scheme_pools_connected_components_only(
    monkeypatch, small_dirty_dataset, scheme
):
    # whatever the pruning scheme, a pooled workflow hands the pool one
    # pass -- the clustering -- and returns the serial run's result
    config = SCHEME_CONFIGS[scheme]
    data = small_dirty_dataset.collection
    expected = _fingerprint(ERWorkflow(WorkflowConfig(**config)).run(data))
    dispatched = []
    original = ParallelEngine._run

    def _run(self, job, tasks):
        dispatched.append(_pass_label(job, tasks))
        return original(self, job, tasks)

    monkeypatch.setattr(ParallelEngine, "_run", _run)
    result = ERWorkflow(WorkflowConfig(num_workers=2, **config)).run(data)
    assert dispatched == ["clustering"]
    assert _fingerprint(result) == expected
    assert result.fault_events == {}
    assert shm.orphaned_segments() == []


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestWorkerFailureDirectStages:
    """The pass reached by calling the engine directly."""

    def test_killed_worker_during_cluster_links(self, monkeypatch):
        first = array("q", [0, 1, 3, 4])
        second = array("q", [1, 2, 4, 5])
        fired = _sabotage(monkeypatch, "clustering", _die_if_marked)
        with ParallelEngine(num_workers=2) as par:
            with pytest.raises(BrokenProcessPool):
                par.cluster_links(first, second, bytearray([1, 1, 1, 1]), 6)
        assert fired == [True]
        assert shm.orphaned_segments() == []


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestShmJanitor:
    def test_dead_pid_segment_is_orphaned_and_swept(self):
        # fabricate a segment whose encoded owner pid cannot be alive
        dead_pid = 2**22 + 12345  # beyond any default pid_max namespace
        try:
            os.kill(dead_pid, 0)
            pytest.skip("improbable: fabricated pid is alive")
        except (ProcessLookupError, OverflowError):
            pass
        name = f"repro-{dead_pid}-deadbee-0"
        path = os.path.join("/dev/shm", name)
        with open(path, "wb") as handle:
            handle.write(b"\0" * 64)
        try:
            assert name in shm.orphaned_segments()
            swept = shm.sweep()
            assert name in swept
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_own_pid_unregistered_segment_is_orphaned(self):
        # same pid as us but never registered: created-and-lost, reclaimable
        name = f"repro-{os.getpid()}-l0st00-0"
        path = os.path.join("/dev/shm", name)
        with open(path, "wb") as handle:
            handle.write(b"\0" * 64)
        try:
            assert name in shm.orphaned_segments()
        finally:
            os.unlink(path)

    def test_live_engine_segments_are_never_orphans(self):
        with ParallelEngine(num_workers=2) as par:
            assert live_clustering(par) is not None
            # the engine's own segments are registered and must be invisible
            # to the janitor while the engine lives
            live = [s._shm.name for s in par._segments]
            assert live  # the clustering pass shipped its segment
            orphans = shm.orphaned_segments()
            assert not set(live) & set(orphans)
        assert shm.orphaned_segments() == []

    def test_foreign_shm_names_are_ignored(self):
        # multiprocessing's own psm_* segments and arbitrary files must
        # never be touched by the janitor
        assert shm._owner_pid("psm_deadbeef") is None
        assert shm._owner_pid("not-ours") is None
        assert shm._owner_pid("repro-notapid-xyz-0") is None
