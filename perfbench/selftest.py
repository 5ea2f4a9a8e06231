#!/usr/bin/env python3
"""Quick self-test of the benchmark, a few seconds long.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that
each run attempts operations, fails none, reports exactly the metrics
BENCHMARK.json lists, and that the traced call counts repeat. Then it
makes TripleStore.objects give a wrong answer, and raise, and checks that
the checker counts both as failed. Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run
import tracer as tracing
from inputs import SHAPES

TOY_SIZE = {
    "zipf-40k": dict(n=2_000, n_subjects=500, n_objects=600, n_predicates=20),
    "clustered-1m": dict(n=20_000, n_predicates=50),
    "ntriples-200k": dict(n_statements=3_000, n_iris=400, n_bnodes=100,
                          n_literals=800, n_predicates=20),
}
SECONDS = 0.05


def toy(name):
    return dataclasses.replace(run.WORKLOADS[name], size=TOY_SIZE[name],
                               batch={sh: 6 for sh in SHAPES},
                               setup=(1, 2), load=(1, 2))


def main() -> int:
    prog = run.import_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print(f"FAIL {what}", file=sys.stderr)

    for name in spec["workloads"]:
        wl = toy(name["name"])
        plain, _ = run.run_workload(prog, wl, 7, SECONDS)
        counts = []
        for _ in range(2):
            traced, _ = run.run_workload(prog, wl, 7, SECONDS, tracing.Tracer())
            counts.append({k: v["value"] for k, v in traced["metrics"].items()
                           if ".calls_per_" in k})
        for label, result, want in (("untraced", plain, e2e),
                                    ("traced", traced, layer)):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["attempted"] > 0 and result["failed"] == 0
                   and result["correct"], f"{wl.name} {label}: {result['failed']} "
                   f"of {result['attempted']} failed")
            expect(got == want, f"{wl.name} {label}: metrics differ from "
                   f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            expect(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                   f"{wl.name} {label}: a metric is not finite")
        expect(counts[0] == counts[1], f"{wl.name}: traced call counts differ")
        print(f"ok {wl.name}: {plain['attempted']} + {traced['attempted']} "
              f"operations checked")

    # The checker must count a wrong answer and an exception as failed.
    T = prog.store.TripleStore
    original = T.objects
    wl = toy("zipf-40k")
    try:
        T.objects = lambda self, s, p: original(self, s, p)[:-1]
        wrong, _ = run.run_workload(prog, wl, 7, SECONDS)
        T.objects = lambda self, s, p: 1 // 0
        broken, _ = run.run_workload(prog, wl, 7, SECONDS)
    finally:
        T.objects = original
    expect(wrong["failed"] > 0 and not wrong["correct"],
           f"a wrong answer was not counted: {wrong['failed']} failed")
    expect(broken["failed"] > 0 and broken["correct"],
           f"an exception was not counted: {broken['failed']} failed")
    print(f"ok fault injection: wrong answers {wrong['failed']} failed, "
          f"exceptions {broken['failed']} failed")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
