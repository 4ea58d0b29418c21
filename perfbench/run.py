#!/usr/bin/env python3
"""Build and run the ENMC performance benchmark.

    python3 perfbench/run.py --workload sim_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
harness and the program's libraries into .bench_build/perfbench; later
runs only re-check the build. The harness prints a human-readable report
and, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
when the build fails, the sources are missing, or any operation failed
its correctness check.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sim_grid", "serve_zipf_refresh", "cluster_failover")
# Compiler and program temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def build():
    """Configure (once) and build the harness; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources next to perfbench/")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=ENV) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference/sim_grid.json (sim_grid only)")
    args = p.parse_args()

    binary = build()
    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--reference", os.path.join(HERE, "reference", "sim_grid.json"),
           "--golden", os.path.join(ROOT, "tests", "golden",
                                    "fig13_golden.json")]
    if args.write_reference:
        cmd.append("--write-reference")
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd, env=ENV))


if __name__ == "__main__":
    main()
