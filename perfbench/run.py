#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload analytic|compile|serving \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/ (or to
$CARGO_TARGET_DIR when set, relative to the checkout root); build output
goes to stderr so the last line of stdout is the benchmark's JSON result.
The metric names and units the binary prints are checked against
BENCHMARK.json. Exits non-zero when the sources are missing, the build
fails, any output is wrong, or the printed metrics do not match.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("engine sources not found (%s missing)" % needed)
    cmake_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, "spans-%s.jsonl" % args.workload)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit code %d)" % proc.returncode, 1)

    want = expected_metrics(args.trace == "1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want.items()) - set(got.items())),
            sorted(set(got.items()) - set(want.items()))), 3)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
