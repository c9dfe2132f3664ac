#!/usr/bin/env python3
"""Host-measured benchmark of the KPM library (see hostbench/README.md).

Builds the benchmark package from the checkout's sources into
.bench_build/hostbench (first run only; later runs rebuild what changed)
and runs one workload:

    python3 hostbench/run.py --workload dos-large|paper-fig5|serve-replay \
        --seed N --seconds S --trace 0|1

The last line of standard output is the result JSON.  Exit status: 0 when
every output check passed, nonzero when a check failed or the benchmark
could not be built or run.

    python3 hostbench/run.py --self-test

runs every workload in smoke mode (tiny inputs), asserts that the metric
names and units printed are exactly those of BENCHMARK.json, and runs the
negative control: a corrupted moment must fail the check.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD_DIR, "kpm_hostbench")
WORKLOADS = ("dos-large", "paper-fig5", "serve-replay")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "moments.hpp")):
        fail(f"library sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs, "--target", "kpm_hostbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args, capture):
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, *args, "--trace-dir", trace_dir]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within {RUN_TIMEOUT_S} s")


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = tuple(w["name"] for w in spec["workloads"])
    if names != WORKLOADS:
        fail(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    expected = {
        "0": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "1": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
                    "--smoke"]
            proc = run_binary(args, capture=True)
            result = result_of(proc)
            if proc.returncode != 0 or result is None:
                fail(f"smoke {workload} trace={trace}: exit {proc.returncode}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"smoke {workload} trace={trace}: result keys {sorted(result)}")
            printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
            if printed != expected[trace]:
                fail(f"smoke {workload} trace={trace}: metrics {printed} != {expected[trace]}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"smoke {workload} trace={trace}: checks failed: {result}")
            for name, _ in printed:
                if f"# {name} " not in proc.stdout:
                    fail(f"smoke {workload} trace={trace}: no printed line for {name}")
        # Negative control: one corrupted moment (one ulp on paper-fig5 and
        # serve-replay) must fail the check and the command.
        proc = run_binary(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace",
                           "0", "--smoke", "--corrupt"], capture=True)
        result = result_of(proc)
        if proc.returncode == 0 or result is None or result["correct"] or result["failed"] < 1:
            fail(f"negative control {workload}: the corrupted result passed ({result})")
        print(f"self-test {workload}: metrics and units match BENCHMARK.json, "
              f"negative control fails as it must")
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        build()
        self_test()
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    build()
    proc = run_binary(["--workload", args.workload, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", args.trace], capture=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
