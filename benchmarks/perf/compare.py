#!/usr/bin/env python3
"""Compare two results files of ``run.py``: one verdict per metric and workload.

    python3 benchmarks/perf/compare.py PARENT.json CHANGE.json [--layers]

Verdicts, from the bounds in ``metrics.py`` and the parent's own spread:

``regressed``   the change is worse than the parent by more than the bound
``improved``    it is better by more than the bound *and* by more than the
                parent's interquartile spread over its repeats
``unchanged``   neither
``unresolved``  a side ran under contention (wall / CPU > 1.15 on too many
                repeats), or the parent's spread is wider than the bound

``f1`` and ``recall`` are exact: both files must come from one seed, so any
difference is a verdict.  Every ratio is printed with its base.  Files taken
with a different ``nproc``, seed, run length or input sizes are refused: a
timing compared across machines or inputs is not a comparison.

Exit code 0: nothing regressed; 1: something regressed; 2: refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
from metrics import END_TO_END, PER_LAYER  # noqa: E402

EXACT = {"f1", "recall"}
#: metrics derived from the wall clock: the ones contention makes unresolved
WALL = {"run_wall_s", "descriptions_per_s"}


def refusal(parent: dict, change: dict) -> Optional[str]:
    """Why the two files cannot be compared, or ``None``."""
    for key in ("seed", "seconds", "quick"):
        if parent[key] != change[key]:
            return f"{key} differs: {parent[key]!r} vs {change[key]!r}"
    if parent["host"]["nproc"] != change["host"]["nproc"]:
        return f"nproc differs: {parent['host']['nproc']} vs {change['host']['nproc']}"
    if set(parent["workloads"]) != set(change["workloads"]):
        return "the files hold different workloads"
    for name, entry in parent["workloads"].items():
        if entry["sizes"] != change["workloads"][name]["sizes"]:
            return f"input sizes of {name} differ: {entry['sizes']} vs {change['workloads'][name]['sizes']}"
    return None


def verdict(metric, base: dict, new: dict, contended: bool) -> str:
    """The verdict on one end-to-end metric of one workload."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (new["value"] - base["value"]) / base["value"]
    if metric.name in EXACT:
        return "regressed" if worse_by > 0 else "improved" if worse_by < 0 else "unchanged"
    spread = (base["q3"] - base["q1"]) / base["value"] if "q1" in base else 0.0
    if (contended and metric.name in WALL) or spread > metric.bound:
        return "unresolved"
    if worse_by > metric.bound:
        return "regressed"
    if -worse_by > max(metric.bound, spread):
        return "improved"
    return "unchanged"


def compare(parent: dict, change: dict, layers: bool) -> List[str]:
    """Print the table; returns the regressed ``workload/metric`` names."""
    regressed: List[str] = []
    print(f"{'workload':<20}{'metric':<22}{'parent (base)':>16}{'change':>14}{'change/base':>13}  verdict")
    for name, base_entry in parent["workloads"].items():
        new_entry = change["workloads"][name]
        contended = bool(base_entry.get("unresolved") or new_entry.get("unresolved"))
        for metric in END_TO_END:
            base = base_entry["end_to_end"][metric.name]
            new = new_entry["end_to_end"][metric.name]
            outcome = verdict(metric, base, new, contended)
            if outcome == "regressed":
                regressed.append(f"{name}/{metric.name}")
            print(
                f"{name:<20}{metric.name:<22}{base['value']:>14.5g} {metric.unit:<3}"
                f"{new['value']:>12.5g}{new['value'] / base['value']:>13.4f}  {outcome}"
            )
        if layers:
            for metric in PER_LAYER:
                base = base_entry["per_layer"][metric.name]["value"]
                new = new_entry["per_layer"][metric.name]["value"]
                if base:
                    print(
                        f"{name:<20}  {metric.name:<40}{base:>14.5g} {metric.unit:<6}"
                        f"{new:>14.5g}{new / base:>10.4f}"
                    )
    return regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="results file of the parent commit (the base of every ratio)")
    parser.add_argument("change", help="results file of the change")
    parser.add_argument("--layers", action="store_true",
                        help="also print every non-zero per-layer metric with its ratio (no verdict)")
    args = parser.parse_args(argv)
    parent: Dict = json.loads(Path(args.parent).read_text(encoding="utf-8"))
    change: Dict = json.loads(Path(args.change).read_text(encoding="utf-8"))
    reason = refusal(parent, change)
    if reason is not None:
        print(f"compare.py: refusing to compare: {reason}", file=sys.stderr)
        return 2
    regressed = compare(parent, change, args.layers)
    print(f"regressed: {', '.join(regressed)}" if regressed else "nothing regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
