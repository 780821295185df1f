#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (see perfbench/NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload capture-mix --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (a CMake project that
compiles the library from src/) into the build directory: $CARGO_TARGET_DIR
when set, else .bench_build. Later runs rebuild incrementally. The
benchmark's own output passes through; its last line is the JSON result.
The exit code is the benchmark's: non-zero when the build fails, a check
fails, or the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", BUILD_JOBS,
                  "--target", "atum_pipeline_bench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return None
    return os.path.join(cmake_dir, "atum_pipeline_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("flip-byte", "bad-row"),
                        help="break one output (tests of the gate)")
    parser.add_argument("--digests", default=os.path.join(HERE, "digests.txt"),
                        help="pinned simulated-statistics digests")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1

    work_dir = os.path.join(build_dir, "work")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--digests", args.digests]
    if args.trace:
        command += ["--spans-out", os.path.join(
            work_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    if args.inject:
        command += ["--inject", args.inject]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
