#!/usr/bin/env python3
"""The repository benchmark: six entity-resolution workloads, one command.

One workload, one measuring window (what the benchmark driver calls)::

    python3 benchmarks/perf/run.py --workload batch_balanced --seed 330 --seconds 15 --trace 0

prints every end-to-end metric by name and unit (``--trace 1``: every
per-layer metric, from the separate traced run), checks the outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when a correctness check failed.

All six workloads, each in a fresh subprocess, untraced then traced::

    python3 benchmarks/perf/run.py [--quick] [--out results.json]

writes one results file that ``compare.py`` reads.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS_DIR = HERE / "results"

#: a repeat whose wall / CPU exceeds the quiet value by this factor ran beside a busy neighbour
CONTENTION_LIMIT = 1.15
SETUPS = 3
#: timings of the serial set-up, scaled by the one-process speed probe
SETUP_METRICS = ("setup_s", "datasets.generate_s")
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2

sys.path.insert(0, str(HERE))
from metrics import END_TO_END_UNITS, PER_LAYER_UNITS, RUN_SECONDS, WORKLOAD_WHY  # noqa: E402
from reference import SpeedProbe  # noqa: E402


def program_source() -> Path:
    """This checkout's ``src/``; without the program there is nothing to measure."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {source / 'repro'} is missing")
    return source


def import_program() -> float:
    """Import the program from this checkout's ``src/``; returns the seconds it took."""
    source = program_source()
    sys.path.insert(0, str(source))
    start = time.perf_counter()
    import repro
    import workloads  # noqa: F401  (pulls in every layer the workloads call)

    seconds = time.perf_counter() - start
    if Path(repro.__file__).resolve().parents[1] != source:
        sys.exit(f"run.py: imported repro from {repro.__file__}, not from {source}")
    return seconds


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------
def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def host_info() -> Dict[str, object]:
    """What a results file needs to be compared honestly with another one."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": usable_cores(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + largest_child) / 1024.0


def child_pids() -> List[int]:
    """Every process whose parent is this one, running or not yet reaped."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue  # ended while we were listing
        # pid (comm) state ppid ...; comm may hold spaces and parentheses
        if int(stat.rpartition(")")[2].split()[1]) == me:
            children.append(int(entry))
    return children


def stop_children() -> List[int]:
    """Stop every process this run started and wait until each has ended.

    A ``ParallelEngine`` starts multiprocessing's resource tracker, which by
    design outlives the pool: it ends only once the process that started it
    has closed its pipe, that is *after* that process, unwaited-for.  It is
    stopped and reaped here.  Any other child still there is a leak: it is
    killed and reaped, and its pid returned.
    """
    gc.collect()  # an engine an exception left open closes its pool in __del__
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes the pipe, waits for the process
    leaked = child_pids()
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in leaked:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return leaked


def spread(values: List[float]) -> Dict[str, float]:
    """Median with min / quartiles / max and the sample count."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "value": statistics.median(ordered),
        "samples": len(ordered),
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "max": ordered[-1],
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
class Run:
    """Set-up, warm-up and the bookkeeping shared by the two kinds of run."""

    def __init__(self, name: str, seed: int, seconds: float, quick: bool, import_s: float):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.scale = 0.1 if quick else 1.0
        self.import_s = import_s
        #: machine speed, sampled beside every generation and every repeat:
        #: on one process for the set-up, which is serial everywhere, and on
        #: as many as the workload runs on for its repeats
        self.probe = SpeedProbe()
        processes = self.workload.processes
        self.run_probe = self.probe if processes == 1 else SpeedProbe(processes)
        self.attempted = 0
        self.checks: List[Dict[str, object]] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks.append({"name": name, "ok": bool(ok)})
        if not ok:
            print(f"FAILED {self.workload.name}: {name}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(not check["ok"] for check in self.checks)

    def sample_speed(self) -> None:
        self.probe.sample()
        if self.run_probe is not self.probe:
            self.run_probe.sample()

    def set_up(self):
        """Generate the inputs ``SETUPS`` times; keep the last, time them all."""
        self.generate_s: List[float] = []
        inputs = None
        self.sample_speed()
        for _ in range(1 if self.quick else SETUPS):
            inputs = None
            gc.collect()
            start = time.perf_counter()
            inputs = self.workload.setup(self.seed, self.scale)
            self.generate_s.append(time.perf_counter() - start)
            self.sample_speed()
        # one untimed tenth-size warm-up: lazy imports, allocator, code caches
        self.workload.run(self.workload.setup(self.seed, self.scale / 10))
        return inputs

    def repeat_until(self, minimum: int, body) -> None:
        """Call ``body()`` until the measuring window is used up (closed loop)."""
        minimum = 1 if self.quick else minimum
        start = time.perf_counter()
        durations: List[float] = []
        self.sample_speed()
        while True:
            began = time.perf_counter()
            body()
            self.sample_speed()
            now = time.perf_counter()
            durations.append(now - began)
            if len(durations) >= minimum and (
                now - start + statistics.median(durations) > self.seconds
            ):
                return

    def details(self, inputs, metrics: Dict[str, dict], **extra) -> Dict[str, object]:
        """The run's record; every timing in ``metrics`` is scaled to reference speed."""
        leaked = stop_children()
        self.check(f"every process the run started has ended (leaked: {leaked})", not leaked)
        for name, entry in metrics.items():
            slowdown = (self.probe if name in SETUP_METRICS else self.run_probe).slowdown
            scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "1/s": slowdown}.get(entry["unit"])
            if scale is not None:
                entry["raw"] = entry["value"]
                for key in ("value", "min", "q1", "q3", "max"):
                    if key in entry:
                        entry[key] *= scale
        return dict(
            workload=self.workload.name,
            seed=self.seed,
            seconds=self.seconds,
            quick=self.quick,
            sizes=dict(inputs.params, descriptions=inputs.descriptions),
            correct=self.failed == 0,
            attempted=self.attempted,
            failed=self.failed,
            checks=self.checks,
            metrics=metrics,
            reference={
                "setup_slowdown": self.probe.slowdown,
                "setup_samples": self.probe.samples,
                "slowdown": self.run_probe.slowdown,
                "samples": self.run_probe.samples,
            },
            host=host_info(),
            **extra,
        )


def measure(run: Run) -> Dict[str, object]:
    """The untraced run: every end-to-end metric."""
    from workloads import timed

    workload = run.workload
    inputs = run.set_up()
    repeats: List[dict] = []
    output = None

    def one_repeat() -> None:
        nonlocal output
        output = None  # the previous output is garbage before the clock starts
        gc.collect()
        try:
            result = timed(workload.run, inputs)
            digest = workload.digest(result.output)
        except Exception:
            traceback.print_exc()
            run.check(f"repeat {len(repeats) + 1} completes", False)
            return
        output = result.output
        repeats.append(
            {
                "wall": result.wall,
                "cpu": result.cpu,
                "wall_over_cpu": result.wall / result.cpu,
                "digest": digest,
            }
        )
        run.check(
            f"repeat {len(repeats)} digest equals repeat 1", digest == repeats[0]["digest"]
        )

    def wall_over_cpu_limit() -> float:
        """Contention guard: wall / CPU of a serial repeat is ~1.01 on a quiet
        box; of a repeat on two workers it is whatever the program makes it
        (0.72 today), so there the run's lowest stands for the quiet value."""
        quiet_value = 1.0
        if workload.processes > 1:
            quiet_value = min(repeat["wall_over_cpu"] for repeat in repeats)
        return CONTENTION_LIMIT * quiet_value

    def quiet() -> List[dict]:
        limit = wall_over_cpu_limit()
        return [repeat for repeat in repeats if repeat["wall_over_cpu"] <= limit]

    run.repeat_until(MIN_REPEATS, one_repeat)
    # a contended repeat is re-run, at most `needed` extra times
    needed = 1 if run.quick else MIN_REPEATS
    for _ in range(needed):
        if len(quiet()) >= needed:
            break
        one_repeat()
    if not repeats:
        sys.exit(f"run.py: no repeat of {workload.name} completed")
    limit = wall_over_cpu_limit()
    for repeat in repeats:
        repeat["contended"] = repeat["wall_over_cpu"] > limit
    unresolved = len(quiet()) < needed
    if unresolved:
        print(
            f"UNRESOLVED {workload.name}: {len(repeats) - len(quiet())} of {len(repeats)} "
            f"repeats ran with wall/CPU > {limit:.3g}; its wall metrics carry no verdict",
            file=sys.stderr,
        )

    quality, checks = workload.checks(inputs, output, run.seed, run.scale)
    for name, ok in checks:
        run.check(name, ok)

    # with no quiet repeat to read, a repeat's wall counts up to the limit
    # over its CPU time: beyond that the process was descheduled by a
    # neighbour, which says nothing about the program
    wall = spread(
        [min(repeat["wall"], limit * repeat["cpu"]) for repeat in repeats]
        if unresolved
        else [repeat["wall"] for repeat in quiet()]
    )
    cpu = spread([repeat["cpu"] for repeat in repeats])
    setup = spread(run.generate_s)
    setup["value"] += run.import_s
    metrics = {
        "setup_s": setup,
        "run_wall_s": wall,
        "run_cpu_s": cpu,
        "peak_rss_mb": {"value": peak_rss_mb()},
        "descriptions_per_s": {"value": inputs.descriptions / wall["value"]},
        "f1": {"value": quality["f1"]},
        "recall": {"value": quality["recall"]},
    }
    for name, entry in metrics.items():
        entry["unit"] = END_TO_END_UNITS[name]
    return run.details(
        inputs,
        metrics,
        unresolved=unresolved,
        import_s=run.import_s,
        quality=quality,
        repeats=repeats,
    )


def measure_traced(run: Run) -> Dict[str, object]:
    """The traced run: every per-layer metric, and the tracing overhead."""
    from tracing import Tracer
    from workloads import timed

    workload = run.workload
    inputs = run.set_up()
    tracer = Tracer(workload.name)
    steps: List[object] = []
    untraced: List[object] = []

    def one_repeat() -> None:
        gc.collect()
        plain = timed(workload.run, inputs)
        plain = plain._replace(output=workload.facts(plain.output))
        gc.collect()
        tracer.repeat = len(steps)
        step = workload.trace(inputs, tracer, plain)
        untraced.append(plain)
        steps.append(step)
        run.check(
            f"traced repeat {len(steps)}: mirror digest equals the program's",
            step.mirror_digest == step.program_digest,
        )

    run.repeat_until(MIN_TRACED_REPEATS, one_repeat)

    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in {name for step in steps for name in step.values}:
        values[name] = statistics.median(step.values[name] for step in steps)
    wall = statistics.median(plain.wall for plain in untraced)
    values.update(
        {
            "datasets.generate_s": statistics.median(run.generate_s),
            "datasets.descriptions": inputs.descriptions,
            "workflow.glue_s": wall - values["workflow.layers_s"],
            "workflow.trace_overhead_ratio": statistics.median(s.traced_wall for s in steps) / wall,
            "host.wall_over_cpu": statistics.median(p.wall / p.cpu for p in untraced),
            "host.loadavg_1m": os.getloadavg()[0],
            "host.nproc": usable_cores(),
            "host.reference_slowdown": run.run_probe.slowdown,
        }
    )
    unknown = sorted(set(values) - set(PER_LAYER_UNITS))
    run.check(f"every traced value is a declared per-layer metric {unknown}", not unknown)
    tracer.write(
        RESULTS_DIR / f"trace_{workload.name}.json", seed=run.seed, quick=run.quick
    )
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
    return run.details(inputs, metrics, untraced_wall_s=wall)


def run_one(args, import_s: float) -> int:
    run = Run(args.workload, args.seed, args.seconds, args.quick, import_s)
    try:
        details = measure_traced(run) if args.trace else measure(run)
    finally:
        stop_children()  # on every path out: nothing this run started outlives it
    for name, entry in details["metrics"].items():
        print(f"{args.workload:<20} {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    if args.details:
        Path(args.details).write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    summary = {
        "correct": details["correct"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in details["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if details["correct"] else 1


# ----------------------------------------------------------------------
# all workloads
# ----------------------------------------------------------------------
def run_all(args) -> int:
    """Every workload in its own fresh subprocess, untraced then traced."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    results: Dict[str, object] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "host": host_info(),
        "workloads": {},
    }
    failed = False
    for name in WORKLOAD_WHY:
        entry: Dict[str, object] = {}
        for traced in (0, 1):
            path = RESULTS_DIR / f"details_{name}_{traced}.json"
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(traced),
                "--details", str(path),
            ] + (["--quick"] if args.quick else [])
            path.unlink(missing_ok=True)
            code = subprocess.run(command, cwd=ROOT).returncode
            if not path.exists():
                print(f"run.py: {name} --trace {traced} ended with code {code} and no result",
                      file=sys.stderr)
                failed = True
                continue
            details = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            failed = failed or code != 0 or not details["correct"]
            kind = "per_layer" if traced else "end_to_end"
            entry[kind] = details.pop("metrics")
            entry[f"{kind}_run"] = {
                key: details[key]
                for key in ("correct", "attempted", "failed", "checks", "host")
            }
            entry["sizes"] = details["sizes"]
            if not traced:
                entry["unresolved"] = details["unresolved"]
                entry["repeats"] = details["repeats"]
        results["workloads"][name] = entry
    out = Path(args.out) if args.out else RESULTS_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nresults written to {out}")
    print(f"{'end-to-end metric':<22}" + "".join(f"{name:>20}" for name in WORKLOAD_WHY))
    for metric, unit in END_TO_END_UNITS.items():
        cells = []
        for name in WORKLOAD_WHY:
            value = results["workloads"][name].get("end_to_end", {}).get(metric, {}).get("value")
            cells.append(f"{value:>20.5g}" if value is not None else f"{'-':>20}")
        print(f"{metric + ' [' + unit + ']':<22}" + "".join(cells))
    print("FAILED: a run crashed or a correctness check failed" if failed else "all checks passed")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOAD_WHY),
                        help="run this workload in this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=330,
                        help="every DatasetConfig.seed derives from it (default 330)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="length of the measuring window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics) instead of the untraced one")
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size inputs, one repeat: a smoke test, not a measurement")
    parser.add_argument("--details", help="also write the run's full record to this file")
    parser.add_argument("--out", help="results file of an all-workloads run")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    if args.workload is None:
        program_source()
        return run_all(args)
    return run_one(args, import_program())


if __name__ == "__main__":
    sys.exit(main())
