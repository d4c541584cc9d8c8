#!/usr/bin/env python3
"""Builds and runs the ucp repository benchmark.

Usage (from the root of a checkout):

    python3 ucpbench/run.py --workload grid|large|serve --seed N \
        --seconds S --trace 0|1

The first call configures and builds `ucpbench` (and the ucp libraries it
links) under .bench_build/ucpbench; later calls only re-check the build.
The workload runs in its own process, pinned to fixed CPUs; its last
stdout line is the JSON result. The exit code is the workload's: 0 only when its correctness
checks passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "ucpbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ucpbench")
RUN_TIMEOUT_S = 170
# CPUs each workload's process is pinned to: one for the single-threaded
# grid and large loops, two for serve (its client and its server worker).
CPUS_PER_WORKLOAD = {"grid": 1, "large": 1, "serve": 2}


def fail(message):
    print("ucpbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "large", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    return args


def run_logged(command, log):
    result = subprocess.run(command, cwd=ROOT, stdout=log,
                            stderr=subprocess.STDOUT)
    return result.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the ucp sources (src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    configured = os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    with open(log_path, "w") as log:
        ok = configured or run_logged(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"], log)
        ok = ok and run_logged(["cmake", "--build", BUILD_DIR, "--target",
                                "ucpbench", "--parallel", "4"], log)
    if not ok:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed; full log in " + log_path)
    return os.path.join(BUILD_DIR, "ucpbench")


def pin(workload):
    """Pins this process, and so the workload it starts, to the last CPUs it
    may run on, so the run does not migrate between CPUs."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[-CPUS_PER_WORKLOAD[workload]:])


def main():
    args = parse_args()
    binary = build()
    pin(args.workload)
    work_dir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("ucpbench: %s run exceeded %d s" % (args.workload,
                                                  RUN_TIMEOUT_S),
              file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
