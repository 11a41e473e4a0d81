#!/usr/bin/env python3
"""Build and run the rfdet end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload dedup --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds the rfdet library (from src/) and the benchmark binaries with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs rebuild incrementally. After each build the forwarding-Env
transparency test runs once; a failure stops the benchmark. The benchmark
binary's standard output is passed through unchanged: its last line is the
JSON result. Build and test output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dedup", "lu-con-pf", "bfs")
# A run must end within 180 s (the first one may build for longer); the
# measuring binary itself gets this much.
BENCH_TIMEOUT_S = 150


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rfdet sources (src/) not found next to perfbench/; run from "
             "the root of a source checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    # The transparency test runs once per build of the test binary.
    test = os.path.join(build_dir, "forwarding_env_test")
    stamp = test + ".passed"
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(test)):
        if subprocess.run([test], stdout=sys.stderr, stderr=sys.stderr,
                          timeout=120).returncode:
            fail("forwarding_env_test failed", code=1)
        with open(stamp, "w"):
            pass

    cmd = [os.path.join(build_dir, "perfbench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                timeout=BENCH_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish in time", code=1)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
