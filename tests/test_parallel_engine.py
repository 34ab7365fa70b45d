"""Bit-identity of the multi-process parallel engine vs the sequential engines.

The contract of :class:`~repro.mapreduce.parallel.ParallelEngine` is that
enabling it never changes a result: the retained meta-blocking
edges (weights *and* order, i.e. tie order) must be bit-identical to the
single-process array engines for every worker count.  These tests sweep
dirty and clean--clean collections across 1/2/4/8 workers, every weighting x
pruning scheme pair, the replicas against the graph oracle, and the degenerate
shapes (empty collection, single entity, more workers than entities).

The lifecycle tests assert the driver-owns-everything rule observably: after
``close`` no shared-memory segment created by the engine is left behind in
``/dev/shm``, and further work on the engine is refused.  The dispatch tests
pin what ``executor.map`` gives the stages: results in task order, a job's own
exception unchanged, and a killed worker as ``BrokenProcessPool`` (under fork
and spawn) with every segment still unlinked.  The per-stage failure tests
route one shard of each pooled pass through a test-module wrapper: a killed
worker aborts the workflow with ``BrokenProcessPool`` and leaves no segment,
and a lagging first shard changes no result.  The janitor tests cover the
``/dev/shm`` sweep of segments a crashed driver left behind.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import time
from array import array
from concurrent.futures.process import BrokenProcessPool

import pytest
from conftest import graph_retained

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
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.pipeline import MetaBlocking

DATASETS = ("dirty", "clean")
WORKER_COUNTS = (1, 2, 4, 8)
WEIGHTINGS = ("CBS", "JS", "ARCS", "ECBS", "EJS")
#: the pooled (ranged) schemes; WNP and ReciprocalWNP run on the driver
PRUNINGS = ("WEP", "CEP", "CNP", "ReciprocalCNP")


def blocks_snapshot(blocks):
    """Full structural snapshot: key order, member order, bilateral split."""
    return [
        (block.key, tuple(block.members), tuple(block.left_members), tuple(block.right_members))
        for block in blocks
    ]


def edges_snapshot(edge_iterable):
    """Retained edges in stream order, weights compared exactly."""
    return [(edge.first, edge.second, edge.weight) for edge in edge_iterable]


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
        expected = BlockingEngine(builder, context=context).clean(
            seq_blocks, purging=BlockPurging(), filtering=BlockFiltering(0.8)
        )
        assert blocks_snapshot(built) == blocks_snapshot(seq_blocks)
        assert blocks_snapshot(cleaned) == blocks_snapshot(expected)


class TestParallelMetaBlocking:
    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("pruning", PRUNINGS)
    def test_edges_bit_identical(self, request, dataset, weighting, pruning):
        _, _, blocks = _setup(request, dataset)
        metablocking = MetaBlocking(weighting, pruning)
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        with ParallelEngine(num_workers=3) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
        assert metablocking.last_engine == "parallel"
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
            assert par.retained_edges(EntityIndexEngine(blocks), weighting, pruning) is None
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
        # EJS/WEP exercises the driver's factor column shared with the
        # workers and both pooled WEP rounds
        _, _, blocks = _setup(request, dataset)
        metablocking = MetaBlocking("EJS", "WEP")
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        with ParallelEngine(num_workers=workers) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
        assert metablocking.last_engine == "parallel"
        assert got == expected

    @pytest.mark.parametrize("weighting", ("CBS", "EJS"))
    def test_replicas_match_the_graph_oracle(self, dirty_setup, weighting):
        # the worker replicas retain the graph engine's edges, weights bit for bit
        _, _, blocks = dirty_setup
        edges, graph = graph_retained(blocks, weighting, "CNP")
        expected = sorted((e.first, e.second, e.weight) for e in edges)
        sharded = EntityIndexEngine(blocks)
        with ParallelEngine(num_workers=3) as par:
            got = par.retained_edges(sharded, weighting, "CNP")
        assert len(got[0]) > 0
        named = sorted(
            (sharded.identifier(f), sharded.identifier(s), w) for f, s, w in zip(*got)
        )
        assert named == expected
        assert sharded.last_num_edges == graph.num_edges
        assert sharded.last_retained == len(edges) == len(got[0])


class TestEdgeCasesAndLifecycle:
    def test_empty_collection(self):
        data = EntityCollection([], name="empty")
        context = PipelineContext(data)
        with ParallelEngine(num_workers=4) as par:
            blocks = BlockingEngine(TokenBlocking(), context=context, parallel=par).build(data)
            assert len(blocks) == 0
            # nothing to fan out: the caller takes the sequential path
            assert par.retained_edges(EntityIndexEngine(blocks), "CBS", "WNP") is None
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

    def test_segments_destroyed_on_close(self, dirty_setup):
        before = shm_segments()
        if before is None:
            pytest.skip("/dev/shm not observable on this platform")
        data, context, blocks = dirty_setup
        par = ParallelEngine(num_workers=2)
        try:
            BlockingEngine(TokenBlocking(), context=context, parallel=par).build(data)
            metablocking = MetaBlocking("EJS", "WNP")
            edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
        finally:
            par.close()
        leaked = sorted(set(shm_segments()) - set(before))
        assert leaked == []

    def test_close_is_idempotent_and_final(self, dirty_setup):
        _, _, blocks = dirty_setup
        par = ParallelEngine(num_workers=2)
        metablocking = MetaBlocking("CBS", "WEP")
        edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
        par.close()
        par.close()
        with pytest.raises(RuntimeError):
            edges_snapshot(metablocking.iter_retained(blocks, parallel=par))

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
    worker._segment(spec)
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


# ---------------------------------------------------------------------------
# a killed or lagging worker in each pooled stage
# ---------------------------------------------------------------------------

#: workflow configurations and the pooled passes each one dispatches
CONFIG_OVERRIDES = {
    "default": {},
    "wep": {"weighting_scheme": "ARCS", "pruning_scheme": "WEP"},
    "cnp": {"pruning_scheme": "CNP"},
    "cep": {"weighting_scheme": "EJS", "pruning_scheme": "CEP"},
}

#: stage -> (configuration, pass label): a pruning pass is labelled by its
#: ranged step, connected components by "clustering" (the default WNP runs
#: on the driver, so clustering is the default run's only pooled stage)
STAGES = {
    "clustering": ("default", "clustering"),
    "wep_stats": ("wep", "wep_stats"),
    "wep_emit": ("wep", "wep_emit"),
    "cnp": ("cnp", "cnp"),
    "cep": ("cep", "cep"),
}


def _pass_label(job, tasks) -> str:
    if job is worker.pruning_pass_job:
        return tasks[0][2]
    if job is worker.cluster_links_job:
        return "clustering"
    if job is worker.propagate_pairs_job:
        return "propagation"
    return "other"


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
def serial_results(small_dirty_dataset):
    return {
        key: _fingerprint(ERWorkflow(WorkflowConfig(**fields)).run(small_dirty_dataset.collection))
        for key, fields in CONFIG_OVERRIDES.items()
    }


def _pooled_run(dataset, config_key, num_workers=2):
    config = WorkflowConfig(num_workers=num_workers, **CONFIG_OVERRIDES[config_key])
    return ERWorkflow(config).run(dataset.collection)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestWorkerFailurePerStage:
    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_killed_worker_aborts_the_workflow(self, monkeypatch, small_dirty_dataset, stage):
        config_key, label = STAGES[stage]
        before = repro_segments()
        fired = _sabotage(monkeypatch, label, _die_if_marked)
        with pytest.raises(BrokenProcessPool):
            _pooled_run(small_dirty_dataset, config_key)
        assert fired == [True]
        # the workflow closed its engine on the way out
        assert repro_segments() == before
        assert shm.orphaned_segments() == []

    @pytest.mark.parametrize("stage", ("wep_stats", "wep_emit", "clustering", "cnp"))
    def test_killed_worker_at_four_workers(self, monkeypatch, small_dirty_dataset, stage):
        config_key, label = STAGES[stage]
        before = repro_segments()
        fired = _sabotage(monkeypatch, label, _die_if_marked, shard=1)
        with pytest.raises(BrokenProcessPool):
            _pooled_run(small_dirty_dataset, config_key, num_workers=4)
        assert fired == [True]
        assert repro_segments() == before
        assert shm.orphaned_segments() == []

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_lagging_first_shard_changes_nothing(
        self, monkeypatch, small_dirty_dataset, serial_results, stage
    ):
        # shard 0 finishes last, so the merge must follow task order, not
        # completion order
        config_key, label = STAGES[stage]
        fired = _sabotage(monkeypatch, label, _lag_if_marked)
        result = _pooled_run(small_dirty_dataset, config_key)
        assert fired == [True]
        assert _fingerprint(result) == serial_results[config_key]
        assert result.fault_events == {}
        assert shm.orphaned_segments() == []

    def test_a_clean_pooled_run_reports_no_faults(self, small_dirty_dataset, serial_results):
        with ParallelEngine(num_workers=2) as par:
            assert par.fault_stats == {}
        result = _pooled_run(small_dirty_dataset, "default")
        assert _fingerprint(result) == serial_results["default"]
        assert result.fault_events == {}
        assert not [row for row in result.report.to_rows() if "fault" in row["stage"]]
        assert "fault" not in result.summary()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestWorkerFailureDirectStages:
    """The passes reached by calling the stage engines with an engine directly."""

    @pytest.mark.parametrize("wrapper", (_die_if_marked, _lag_if_marked), ids=("kill", "lag"))
    def test_propagation(self, monkeypatch, dirty_setup, wrapper):
        _, _, blocks = dirty_setup
        purging, filtering = BlockPurging(), BlockFiltering(0.8)
        expected = BlockingEngine().clean(
            blocks, purging=purging, filtering=filtering, propagate=True
        )
        fired = _sabotage(monkeypatch, "propagation", wrapper)
        with ParallelEngine(num_workers=2) as par:
            clean = lambda: BlockingEngine(parallel=par).clean(
                blocks, purging=purging, filtering=filtering, propagate=True
            )
            if wrapper is _die_if_marked:
                with pytest.raises(BrokenProcessPool):
                    clean()
            else:
                assert blocks_snapshot(clean()) == blocks_snapshot(expected)
        assert fired == [True]
        assert shm.orphaned_segments() == []

    @pytest.mark.parametrize("step", ("wep_stats", "wep_emit"))
    def test_killed_worker_during_pruning_rounds(self, monkeypatch, dirty_setup, step):
        _, _, blocks = dirty_setup
        fired = _sabotage(monkeypatch, step, _die_if_marked)
        with ParallelEngine(num_workers=2) as par:
            with pytest.raises(BrokenProcessPool):
                MetaBlocking("CBS", "WEP").weighted_columns(blocks, parallel=par)
        assert fired == [True]
        assert shm.orphaned_segments() == []

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

    def test_live_engine_segments_are_never_orphans(self, dirty_setup):
        _, _, blocks = dirty_setup
        with ParallelEngine(num_workers=2) as par:
            assert len(MetaBlocking("CBS", "WEP").weighted_columns(blocks, parallel=par))
            # the engine's own segments are registered and must be invisible
            # to the janitor while the engine lives
            live = [s._shm.name for s in par._segments]
            assert live  # the pruning passes shipped at least one segment
            orphans = shm.orphaned_segments()
            assert not set(live) & set(orphans)
        assert shm.orphaned_segments() == []

    def test_foreign_shm_names_are_ignored(self):
        # multiprocessing's own psm_* segments and arbitrary files must
        # never be touched by the janitor
        assert shm._owner_pid("psm_deadbeef") is None
        assert shm._owner_pid("not-ours") is None
        assert shm._owner_pid("repro-notapid-xyz-0") is None
