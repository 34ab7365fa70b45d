"""Chaos suite: the parallel engine under worker kills, hangs and stragglers.

The fault-tolerance contract (see :mod:`repro.mapreduce.supervisor`) is that a
worker failure never changes a result and never leaks a shared-memory
segment -- the supervisor retries lost shards on a rebuilt pool and, when the
retries run out, either recomputes them serially on the driver
(``"degrade"``) or aborts loudly (``"raise"``).  This module proves it the
only way that can be proven: by killing, hanging and delaying workers at
exact (stage, shard, attempt) coordinates via :mod:`repro.mapreduce.faults`
and asserting bit-identity against the serial baseline, the expected
``fault_events`` bookkeeping, and an orphan-free ``/dev/shm`` afterwards.

The kill matrix covers every workflow-reachable supervisor stage label; the
label only reachable through direct engine calls (``propagation``) and the
two WNP rounds driven straight through ``MetaBlocking.weighted_columns`` get
dedicated tests.  Set ``REPRO_TEST_START_METHOD=spawn`` to
re-run the whole module over spawned pools (the CI chaos job does both).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings

import pytest

from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core.config import WorkflowConfig
from repro.core.context import PipelineContext
from repro.core.results import WorkflowResult
from repro.core.workflow import ERWorkflow
from repro.mapreduce import faults, shm
from repro.mapreduce.faults import FaultSpec
from repro.mapreduce.parallel import ParallelEngine
from repro.mapreduce.supervisor import (
    DegradedExecutionWarning,
    Supervisor,
    WorkerFailureError,
    shutdown_pool,
)
from repro.metablocking.pipeline import MetaBlocking
from repro import cli

#: honoured by the autouse fixture below; the CI chaos job sets "spawn"
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None


@pytest.fixture(autouse=True)
def _forced_start_method(monkeypatch):
    """Run every engine in this module under ``REPRO_TEST_START_METHOD``."""
    if START_METHOD is None:
        yield
        return
    original = ParallelEngine.__init__

    def patched(self, *args, **kwargs):
        kwargs.setdefault("start_method", START_METHOD)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ParallelEngine, "__init__", patched)
    yield


@pytest.fixture(autouse=True)
def _no_armed_fault():
    """No test may leak an armed fault spec into its successors."""
    yield
    faults.clear()


def assert_no_orphans():
    assert shm.orphaned_segments() == []


# ---------------------------------------------------------------------------
# workflow-level chaos matrix
# ---------------------------------------------------------------------------

#: pipeline configurations and the supervisor stage labels each one reaches
CONFIG_OVERRIDES = {
    "default": {},
    "wep": {"weighting_scheme": "ARCS", "pruning_scheme": "WEP"},
    "cnp": {"pruning_scheme": "CNP"},
    "cep": {"weighting_scheme": "EJS", "pruning_scheme": "CEP"},
}

STAGE_TO_CONFIG = {
    "wnp_stats": "default",
    "wnp_emit": "default",
    "clustering": "default",
    "wep_stats": "wep",
    "wep_emit": "wep",
    "cnp": "cnp",
    "cep": "cep",
    "degrees": "cep",
}

WORKFLOW_STAGES = sorted(STAGE_TO_CONFIG)


def _make_config(config_key: str, **overrides) -> WorkflowConfig:
    fields = dict(CONFIG_OVERRIDES[config_key])
    fields.update(overrides)
    return WorkflowConfig(**fields)


def _result_fingerprint(result: WorkflowResult):
    return (result.clusters, result.matches, result.comparisons_executed)


@pytest.fixture(scope="module")
def baselines(small_dirty_dataset):
    """Serial (``num_workers=1``) oracle results, one per configuration."""
    out = {}
    for key in CONFIG_OVERRIDES:
        result = ERWorkflow(_make_config(key)).run(small_dirty_dataset.collection)
        assert result.fault_events == {}
        out[key] = _result_fingerprint(result)
    return out


def _run_faulted(dataset, config_key, spec, **config_overrides):
    config_overrides.setdefault("num_workers", 2)
    config = _make_config(config_key, **config_overrides)
    with faults.injected(spec):
        return ERWorkflow(config).run(dataset.collection)


class TestWorkflowKillMatrix:
    @pytest.mark.parametrize("stage", WORKFLOW_STAGES)
    def test_kill_worker_once_per_stage(self, small_dirty_dataset, baselines, stage):
        config_key = STAGE_TO_CONFIG[stage]
        result = _run_faulted(
            small_dirty_dataset, config_key, FaultSpec(stage=stage, mode="kill")
        )
        # not vacuous: the fault must actually have fired at this stage
        assert stage in result.fault_events
        assert result.fault_events[stage]["retries"] >= 1
        assert result.fault_events[stage]["pool_rebuilds"] >= 1
        assert result.fault_events[stage]["degraded"] == 0
        assert _result_fingerprint(result) == baselines[config_key]
        assert_no_orphans()

    @pytest.mark.parametrize("stage", ("wnp_stats", "clustering"))
    def test_hung_worker_recovered_by_timeout(self, small_dirty_dataset, baselines, stage):
        result = _run_faulted(
            small_dirty_dataset,
            "default",
            FaultSpec(stage=stage, mode="hang"),
            worker_timeout=1.0,
        )
        assert result.fault_events[stage]["retries"] >= 1
        assert _result_fingerprint(result) == baselines["default"]
        assert_no_orphans()

    @pytest.mark.parametrize("stage", ("wnp_stats", "wnp_emit"))
    def test_straggler_worker_changes_nothing(self, small_dirty_dataset, baselines, stage):
        # a delayed worker needs no recovery at all -- and must not get any
        result = _run_faulted(
            small_dirty_dataset,
            "default",
            FaultSpec(stage=stage, mode="delay", seconds=0.3),
        )
        assert result.fault_events == {}
        assert _result_fingerprint(result) == baselines["default"]
        assert_no_orphans()

    @pytest.mark.parametrize("stage", ("wnp_stats", "wnp_emit"))
    def test_kill_at_four_workers(self, small_dirty_dataset, baselines, stage):
        result = _run_faulted(
            small_dirty_dataset,
            "default",
            FaultSpec(stage=stage, mode="kill", shard=1),
            num_workers=4,
        )
        assert result.fault_events[stage]["retries"] >= 1
        assert _result_fingerprint(result) == baselines["default"]
        assert_no_orphans()

    def test_persistent_kill_degrades_serially(self, small_dirty_dataset, baselines):
        # the shard dies on every pool attempt: retries exhaust, the driver
        # recomputes it inline, and the run still matches the oracle
        with pytest.warns(DegradedExecutionWarning):
            result = _run_faulted(
                small_dirty_dataset,
                "default",
                FaultSpec(stage="wnp_stats", mode="kill", attempts=99),
                max_shard_retries=1,
            )
        counts = result.fault_events["wnp_stats"]
        assert counts["degraded"] >= 1
        assert counts["retries"] >= 1
        assert result.degraded_shards >= 1
        assert _result_fingerprint(result) == baselines["default"]
        assert_no_orphans()

    def test_raise_policy_aborts_the_run(self, small_dirty_dataset):
        with pytest.raises(WorkerFailureError) as excinfo:
            _run_faulted(
                small_dirty_dataset,
                "default",
                FaultSpec(stage="wnp_stats", mode="kill", attempts=99),
                max_shard_retries=1,
                on_worker_failure="raise",
            )
        assert excinfo.value.stage == "wnp_stats"
        assert excinfo.value.attempts == 2  # initial dispatch + 1 retry
        assert_no_orphans()

    def test_fault_events_reach_the_stage_report(self, small_dirty_dataset):
        result = _run_faulted(
            small_dirty_dataset, "default", FaultSpec(stage="wnp_stats", mode="kill")
        )
        stages = [stage.stage for stage in result.report]
        assert "fault_recovery[wnp_stats]" in stages
        assert "worker faults survived" in result.summary()


# ---------------------------------------------------------------------------
# direct-engine stages the workflow cannot reach
# ---------------------------------------------------------------------------


class TestDirectEngineStages:
    @pytest.fixture(scope="class")
    def dirty_blocks(self, small_dirty_dataset):
        data = small_dirty_dataset.collection
        context = PipelineContext(data)
        blocks = BlockingEngine(
            TokenBlocking(max_block_fraction=0.5), context=context
        ).build(data)
        return blocks

    def test_kill_during_propagation(self, dirty_blocks):
        purging, filtering = BlockPurging(), BlockFiltering(0.8)
        expected = BlockingEngine().clean(
            dirty_blocks, purging=purging, filtering=filtering, propagate=True
        )
        with faults.injected(FaultSpec(stage="propagation", mode="kill")):
            with ParallelEngine(num_workers=2) as par:
                got = BlockingEngine(parallel=par).clean(
                    dirty_blocks, purging=purging, filtering=filtering, propagate=True
                )
                assert par.fault_stats["propagation"]["retries"] >= 1
        snap = lambda blocks: [(b.key, tuple(b.members)) for b in blocks]
        assert snap(got) == snap(expected)
        assert_no_orphans()

    @pytest.mark.parametrize("stage", ("wnp_stats", "wnp_emit"))
    def test_kill_during_pruning_rounds(self, dirty_blocks, stage):
        metablocking = MetaBlocking("CBS", "WNP")
        snap = lambda columns: (
            columns.ids, list(columns.first), list(columns.second), list(columns.weights)
        )
        expected = snap(metablocking.weighted_columns(dirty_blocks))
        with faults.injected(FaultSpec(stage=stage, mode="kill")):
            with ParallelEngine(num_workers=2) as par:
                got = snap(metablocking.weighted_columns(dirty_blocks, parallel=par))
                assert metablocking.last_engine == "parallel"
                assert par.fault_stats[stage]["retries"] >= 1
        assert got == expected
        assert len(got[1]) == metablocking.last_retained_edges > 0
        assert_no_orphans()


# ---------------------------------------------------------------------------
# supervisor unit behaviour
# ---------------------------------------------------------------------------


def _square_job(task):
    return task[0] * task[0]


def _failing_job(task):
    raise ValueError(f"deterministic data error on {task[0]}")


def _pool_factory():
    context = (
        multiprocessing.get_context(START_METHOD)
        if START_METHOD is not None
        else multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
    )
    return context.Pool(processes=2, initializer=faults.mark_worker)


class TestSupervisorUnit:
    def test_results_arrive_in_task_order(self):
        supervisor = Supervisor(_pool_factory)
        try:
            got = supervisor.run(_square_job, [(i,) for i in range(8)], "unit")
        finally:
            supervisor.shutdown()
        assert got == [i * i for i in range(8)]
        assert supervisor.stats == {}

    def test_deterministic_job_exception_is_not_retried(self):
        # a job that raises on its own data would raise on every retry:
        # the exception must propagate unchanged, exactly like pool.map
        supervisor = Supervisor(_pool_factory)
        try:
            with pytest.raises(ValueError, match="deterministic data error"):
                supervisor.run(_failing_job, [(1,)], "unit")
        finally:
            supervisor.shutdown()
        assert supervisor.stats == {}

    def test_kill_mid_batch_recovers_other_shards_too(self):
        supervisor = Supervisor(_pool_factory, max_retries=3)
        try:
            with faults.injected(FaultSpec(stage="unit", mode="kill", shard=2)):
                got = supervisor.run(_square_job, [(i,) for i in range(6)], "unit")
        finally:
            supervisor.shutdown()
        assert got == [i * i for i in range(6)]
        assert supervisor.stats["unit"]["pool_rebuilds"] >= 1

    def test_invalid_policy_and_retries_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            Supervisor(_pool_factory, on_failure="shrug")
        with pytest.raises(ValueError, match="non-negative"):
            Supervisor(_pool_factory, max_retries=-1)

    def test_shutdown_is_idempotent(self):
        supervisor = Supervisor(_pool_factory)
        supervisor.run(_square_job, [(3,)], "unit")
        supervisor.shutdown()
        supervisor.shutdown()

    def test_shutdown_pool_never_hangs_on_wedged_worker(self):
        # the satellite regression: close()+join() on a pool whose worker is
        # stuck in an hour-long sleep must return within the watchdog window
        pool = _pool_factory()
        pool.apply_async(time.sleep, (3600,))
        time.sleep(0.2)  # let the sleep actually start in a worker
        started = time.monotonic()
        shutdown_pool(pool, graceful=True, join_timeout=2.0)
        assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# fault spec plumbing
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_encode_decode_roundtrip(self):
        spec = FaultSpec(stage="wnp_stats", mode="delay", shard=3, attempts=2, seconds=0.5)
        assert FaultSpec.decode(spec.encode()) == spec

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec(stage="wnp_stats", mode="explode")

    def test_malformed_env_value_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultSpec.decode("stage=wnp_stats")  # no mode
        with pytest.raises(ValueError, match="malformed"):
            FaultSpec.decode("stage=wnp_stats;mode=kill;shard=three")

    def test_injected_context_arms_and_disarms(self):
        assert faults.active() is None
        with faults.injected(FaultSpec(stage="wnp_stats", mode="kill")) as spec:
            assert faults.active() == spec
        assert faults.active() is None

    def test_driver_process_never_triggers(self):
        # maybe_trigger on the driver is inert even with a matching armed
        # spec -- otherwise the degraded serial recomputation would re-die
        with faults.injected(FaultSpec(stage="anywhere", mode="kill")):
            faults.maybe_trigger("anywhere", 0, 0)  # must not SIGKILL us


# ---------------------------------------------------------------------------
# shared-memory janitor
# ---------------------------------------------------------------------------


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

    def test_live_engine_segments_are_never_orphans(self, small_dirty_dataset):
        data = small_dirty_dataset.collection
        context = PipelineContext(data)
        blocks = BlockingEngine(
            TokenBlocking(max_block_fraction=0.5), context=context
        ).build(data)
        with ParallelEngine(num_workers=2) as par:
            assert len(MetaBlocking("CBS", "WNP").weighted_columns(blocks, parallel=par))
            # the engine's own segments are registered and must be invisible
            # to the janitor while the engine lives
            live = [s._shm.name for s in par._segments]
            assert live  # the pruning passes shipped at least one segment
            orphans = shm.orphaned_segments()
            assert not set(live) & set(orphans)
        assert_no_orphans()

    def test_foreign_shm_names_are_ignored(self):
        # multiprocessing's own psm_* segments and arbitrary files must
        # never be touched by the janitor
        assert shm._owner_pid("psm_deadbeef") is None
        assert shm._owner_pid("not-ours") is None
        assert shm._owner_pid("repro-notapid-xyz-0") is None


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCliFaultReporting:
    def _result(self, degraded: int) -> WorkflowResult:
        result = WorkflowResult()
        result.fault_events = {
            "wnp_stats": {"retries": 2, "degraded": degraded, "pool_rebuilds": 2}
        }
        return result

    def test_counts_are_printed(self, capsys):
        code = cli._report_faults(self._result(degraded=0), strict=False)
        out = capsys.readouterr().out
        assert code == 0
        assert "worker faults survived in wnp_stats" in out
        assert "retries=2" in out

    def test_strict_exit_on_degradation(self, capsys):
        assert cli._report_faults(self._result(degraded=1), strict=False) == 0
        assert (
            cli._report_faults(self._result(degraded=1), strict=True)
            == cli.EXIT_DEGRADED
        )
        assert "--strict" in capsys.readouterr().out

    def test_strict_tolerates_clean_recovery(self):
        # retries without degradation are a success story, not a failure
        assert cli._report_faults(self._result(degraded=0), strict=True) == 0

    def test_parser_accepts_fault_knobs(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            [
                "resolve",
                "input.csv",
                "--num-workers",
                "2",
                "--worker-timeout",
                "5",
                "--max-shard-retries",
                "1",
                "--on-worker-failure",
                "raise",
                "--strict",
            ]
        )
        assert args.worker_timeout == 5.0
        assert args.max_shard_retries == 1
        assert args.on_worker_failure == "raise"
        assert args.strict
