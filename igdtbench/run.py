#!/usr/bin/env python3
"""Build the IGDT benchmark from the checkout's sources and run one workload.

Run from the root of a checkout:

    python3 igdtbench/run.py --workload catalog_serial --seed 1 \
        --seconds 10 --trace 0

The benchmark is configured and built incrementally under
.bench_build/igdtbench (build output goes to standard error), then the
benchmark binary runs the workload. Its last line of standard output is the
result: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Extra flags: --smoke runs the catalog slice the self-test uses.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "igdtbench")


def fail(message):
    print("igdtbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "Session.h")):
        fail("no IGDT sources next to the benchmark (expected src/ at %s)"
             % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "igdt_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", os.path.join(HERE, "reference", "seeded.json"),
               "--work-dir", os.path.join(BUILD, "work")]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
