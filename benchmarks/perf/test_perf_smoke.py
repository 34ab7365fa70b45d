"""Smoke test of the repository benchmark (collected by the tier-1 run).

Runs the whole benchmark in ``--quick`` mode (tenth-size inputs, one repeat,
a smoke test and not a measurement) and holds ``BENCHMARK.json`` to the
contract it is read with: name charset, counts, units, bounds, and that every
declared metric is really emitted for every workload.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _load_metrics():
    spec = importlib.util.spec_from_file_location("perf_metrics", HERE / "metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


metrics = _load_metrics()
declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_is_the_metric_tables_written_out():
    assert declared == metrics.benchmark_json()


def test_benchmark_json_meets_the_contract():
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["benchmarks/perf"]
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    # 4 + 22 x workloads runs must fit the driver's 3420 s with their set-up
    runs = 4 + 22 * len(declared["workloads"])
    assert runs * (declared["run_seconds"] + 8) < 3420


def test_every_per_layer_metric_names_what_it_should_move():
    end_to_end = [metric.name for metric in metrics.END_TO_END]
    workloads = list(metrics.WORKLOAD_WHY) + ["every workload"]
    for metric in metrics.PER_LAYER:
        assert any(name in metric.moves for name in end_to_end), metric
        assert any(name in metric.moves for name in workloads), metric


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out


def test_quick_run_emits_every_declared_metric(quick_results):
    results = json.loads(quick_results.read_text(encoding="utf-8"))
    assert set(results["workloads"]) == {w["name"] for w in declared["workloads"]}
    assert {"nproc", "cpu_model", "python", "numpy", "git_commit", "loadavg_1m"} <= set(results["host"])
    for name, entry in results["workloads"].items():
        assert entry["end_to_end_run"]["failed"] == 0, (name, entry["end_to_end_run"]["checks"])
        assert entry["per_layer_run"]["failed"] == 0, (name, entry["per_layer_run"]["checks"])
        for metric in declared["end_to_end"]:
            emitted = entry["end_to_end"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["value"] > 0, (name, metric["name"])
        for metric in declared["per_layer"]:
            assert entry["per_layer"][metric["name"]]["unit"] == metric["unit"]
    # each layer's own workload really exercises it
    layers = {
        "blocking_web": ("context.intern_s", "blocking.build_s"),
        "batch_balanced": ("metablocking.prune_s", "matching.decide_s", "clustering.cluster_s"),
        "progressive_budget": ("progressive.auc", "evaluation.score_s"),
        "cleanclean_iterate": ("matching.decide_s", "matching.update_comparisons"),
        "incremental_mixed": ("iterative.add_total_s", "snapshot.save_s"),
        "batch_parallel2": ("mapreduce.intern_s", "mapreduce.children_cpu_s"),
    }
    for name, expected in layers.items():
        for metric in expected:
            assert results["workloads"][name]["per_layer"][metric]["value"] > 0, (name, metric)


def test_compare_accepts_a_file_against_itself_and_refuses_another_machine(quick_results, tmp_path):
    command = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(
        command + [str(quick_results), str(quick_results)], capture_output=True, text=True
    )
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" not in same.stdout.replace("nothing regressed", "")
    assert "improved" not in same.stdout
    other = json.loads(quick_results.read_text(encoding="utf-8"))
    other["host"]["nproc"] += 2
    moved = tmp_path / "other_machine.json"
    moved.write_text(json.dumps(other), encoding="utf-8")
    refused = subprocess.run(
        command + [str(quick_results), str(moved)], capture_output=True, text=True
    )
    assert refused.returncode == 2 and "nproc differs" in refused.stderr


def test_single_workload_run_ends_with_the_drivers_json_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cleanclean_iterate",
         "--seed", "7", "--seconds", "0", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {metric["name"] for metric in declared["end_to_end"]}
