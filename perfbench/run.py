#!/usr/bin/env python3
"""Builds the bitspread benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
`perfbench/` (which pulls in `src/`) as a Release tree under `.bench_build/`;
later calls rebuild only what changed. Build output goes to standard error,
so the last line of standard output is the driver's JSON result. The exit
code is the driver's, or non-zero without a result when the build fails.

--self-test builds everything, runs the package's ctest suite (arithmetic
tests and a smoke run of every workload) and checks that the driver's
metric list matches BENCHMARK.json.
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "bitspread_bench")


def jobs():
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return str(max(1, min(usable, 4)))


def step(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        print(f"run.py: {' '.join(cmd)} failed ({result.returncode})",
              file=sys.stderr)
        sys.exit(result.returncode or 1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: src/CMakeLists.txt not found; run from the "
              "repository root", file=sys.stderr)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", PACKAGE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "-j", jobs(), "--target"] + targets)


def self_test():
    build(["bitspread_bench", "perfbench_arith_test"])
    listed = subprocess.run([DRIVER, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {(kind, m["name"], m["unit"])
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    have = {tuple(line.split()) for line in listed if line.strip()}
    if want != have:
        print("run.py: BENCHMARK.json and the driver disagree on metrics:\n"
              f"  only in BENCHMARK.json: {sorted(want - have)}\n"
              f"  only in the driver:     {sorted(have - want)}",
              file=sys.stderr)
        sys.exit(1)
    step(["ctest", "--test-dir", BUILD, "--output-on-failure"])


def main():
    if sys.argv[1:] == ["--self-test"]:
        self_test()
        return 0
    build(["bitspread_bench"])
    sys.stdout.flush()
    return subprocess.run([DRIVER] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
