#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Builds the Red-QAOA service binaries and the perfbench binary from the
checkout's sources (Release, under .bench_build/), runs perfbench in a
fresh scratch directory and passes its output through. The last line of
stdout is the result document. `--selftest` runs only perfbench's
self-tests. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-hot", "evaluate-sweep", "optimize-store", "pipeline-noisy"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build the three targets a run needs."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "redqaoa_serve", "redqaoa_lb"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # The benchmark builds the program it measures from this checkout.
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no Red-QAOA sources at " + ROOT + " (missing " + needed +
                 "); run from the root of a full checkout")

    build_root = os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)
    perfbench = os.path.join(build_dir, "perfbench")
    if args.selftest:
        return subprocess.run([perfbench, "--selftest"]).returncode

    work_dir = os.path.join(build_root, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [perfbench,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--lb-bin", os.path.join(build_dir, "redqaoa", "redqaoa_lb"),
           "--serve-bin", os.path.join(build_dir, "redqaoa", "redqaoa_serve"),
           "--work-dir", work_dir]
    env = dict(os.environ, REDQAOA_LOG="warn")
    try:
        return subprocess.run(cmd, env=env).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
