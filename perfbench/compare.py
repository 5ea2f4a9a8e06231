#!/usr/bin/env python3
"""Spread of one set of benchmark results, or the change between two sets.

    python3 perfbench/compare.py A_DIR            # spread of each metric in A
    python3 perfbench/compare.py A_DIR B_DIR      # B against A

A set is a directory of result files as run.py writes them under
.perfbench/results/ (copy that directory aside between sets). For each
workload and end-to-end metric it prints the median, the quartile spread
(q3 - q1 over the median, from statistics.quantiles(n=4)) and the bound
from BENCHMARK.json. With two sets it adds B's median change against A,
signed so that positive is worse, and flags a change beyond the bound.
Per-layer metrics (traced runs) are compared the same way, without bounds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory):
    """{(workload, trace): {"runs": n, "failed": share list, "metrics": {name: [values]}}}"""
    out = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        doc = json.loads(path.read_text())
        info, result = doc["info"], doc["result"]
        key = (info["workload"], "trace1" if path.stem.endswith("trace1") else "trace0")
        group = out.setdefault(key, {"runs": 0, "failed": [], "metrics": {}})
        group["runs"] += 1
        group["failed"].append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            group["metrics"].setdefault(name, []).append(m["value"])
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    a = load_set(argv[0])
    b = load_set(argv[1]) if len(argv) == 2 else None
    status = 0
    for key in sorted(a):
        group = a[key]
        print(f"== {key[0]} ({key[1]}, {group['runs']} runs, failed share "
              f"{sorted(set(group['failed']))})")
        head = f"{'metric':<48} {'median':>12} {'spread':>7} {'bound':>6}"
        print(head + ("" if b is None else f" {'B median':>12} {'change':>8}"))
        other = None if b is None else b.get(key)
        for name, values in group["metrics"].items():
            med, sp = spread(values)
            bound = bounds.get(name, {}).get("bound")
            line = f"{name:<48} {med:>12.6g} {sp:>7.1%} " + \
                (f"{bound:>6.0%}" if bound is not None else f"{'-':>6}")
            if bound is not None and name != "setup_s" and sp > bound:
                line += "  SPREAD BEYOND BOUND"
                status = 1
            if other is not None and name in other["metrics"]:
                med_b, _ = spread(other["metrics"][name])
                change = (med_b - med) / abs(med) if med else 0.0
                if better.get(name) == "higher":
                    change = -change
                line += f" {med_b:>12.6g} {change:>+8.1%}"
                if bound is not None and change > bound:
                    line += "  WORSE BEYOND BOUND"
                    status = 1
            print(line)
        if other is not None and sorted(set(other["failed"])) != sorted(set(group["failed"])):
            print(f"failed share differs: {sorted(set(other['failed']))}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
