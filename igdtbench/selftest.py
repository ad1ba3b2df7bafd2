#!/usr/bin/env python3
"""Self-test of the IGDT benchmark: every workload once, on the smoke slice.

Run from the root of a checkout:

    python3 igdtbench/selftest.py

For each workload and each trace mode it runs igdtbench/run.py --smoke
for one second and checks the result line: "correct" is true, nothing
failed, and the metrics are exactly the ones BENCHMARK.json names for
that mode (end_to_end for --trace 0, per_layer for --trace 1), each with
the unit BENCHMARK.json gives it. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, expected):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, timeout=900)
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        return "exit code %d, no result" % run.returncode
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys %s" % sorted(result)
    if result["correct"] is not True:
        return "not correct: " + " | ".join(lines[:-1])
    if result["failed"] != 0 or result["attempted"] < 1:
        return "attempted %s, failed %s" % (result["attempted"],
                                            result["failed"])
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return "missing %s, unexpected %s, wrong units %s" % (missing, extra,
                                                              units)
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            return "%s has no numeric value" % name
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in modes.items():
            problem = check(workload, trace, expected)
            print("%-20s --trace %d  %s" % (workload, trace,
                                            problem or "ok"))
            failures += problem is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
