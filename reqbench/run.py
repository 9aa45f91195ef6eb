#!/usr/bin/env python3
"""Build and run mmdiag's request-level benchmark.

Run from the root of a source tree:

  python3 reqbench/run.py --workload cold_file --seed 1 --seconds 20 --trace 0
      One workload. The last line of standard output is the JSON result;
      --trace 1 gives the per-layer metrics instead of the end-to-end ones.
  python3 reqbench/run.py --workload all [--seed N] [--seconds S]
      Every workload, untraced then traced, with every metric printed by
      name and unit. Exits non-zero on any wrong answer or failed check,
      or when the traced and untraced runs disagree on the answers.
  python3 reqbench/run.py --smoke
      Every workload and mode on tiny instances: checks that each metric
      named in BENCHMARK.json is emitted with its unit and that the output
      parses.

The program is built from source with CMake into $CARGO_TARGET_DIR
(default .bench_build); build output goes to standard error.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cold_file", "warm_stream", "warm_large"]


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures once and builds the benchmark binary; returns its path."""
    root = build_root()
    tree = os.path.join(root, "reqbench")
    os.makedirs(tree, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(root, "reqbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = os.path.join(tree, "configured")
        steps = []
        if not os.path.exists(configured):
            steps.append(["cmake", "-S", HERE, "-B", tree,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", tree, "--target", "reqbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                sys.exit("reqbench: build failed: " + " ".join(step))
            if step[1] == "-S":
                open(configured, "w").close()
    return os.path.join(tree, "reqbench")


def run(binary, workload, seed, seconds, trace, smoke=False, capture=False):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    root = build_root()
    data = os.path.join(root, "reqbench-data", "%d-%s" % (os.getpid(), workload))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", data, "--out-dir", os.path.join(root, "reqbench-out")]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    return done.returncode, done.stdout or ""


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def digest_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest "):
            return line.split()[1]
    return None


def run_all(binary, seed, seconds, smoke):
    """Every workload untraced and traced; returns the number of problems."""
    spec = None
    if smoke:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    problems = 0
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 1):
            print("== %s, trace %d" % (workload, trace), flush=True)
            code, out = run(binary, workload, seed, seconds, trace,
                            smoke=smoke, capture=True)
            body = out.splitlines()[:-1]
            print("\n".join(body), flush=True)
            try:
                result = result_of(out)
            except ValueError:
                result = None
            if code != 0 or not result or not result.get("correct"):
                print("FAIL: %s trace %d exited %d" % (workload, trace, code))
                problems += 1
                continue
            digests.append(digest_of(out))
            if spec is not None:
                problems += check_schema(spec, result, trace, workload)
        if len(digests) == 2 and digests[0] != digests[1]:
            print("FAIL: %s traced and untraced answers differ" % workload)
            problems += 1
    return problems


def check_schema(spec, result, trace, workload):
    """Every metric named in BENCHMARK.json, with its unit, and no other."""
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    problems = 0
    for name, unit in expected.items():
        got = metrics.get(name)
        if (not isinstance(got, dict) or got.get("unit") != unit or
                not isinstance(got.get("value"), (int, float))):
            print("FAIL: %s trace %d: metric %s missing or not in %s" %
                  (workload, trace, name, unit))
            problems += 1
    for name in set(metrics) - set(expected):
        print("FAIL: %s trace %d: metric %s not in BENCHMARK.json" %
              (workload, trace, name))
        problems += 1
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            print("FAIL: %s trace %d: %s is not a whole number" %
                  (workload, trace, key))
            problems += 1
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")

    binary = build()
    if args.smoke or args.workload == "all":
        seconds = 1 if args.smoke else args.seconds
        problems = run_all(binary, args.seed, seconds, args.smoke)
        print("%s: %d problem(s)" % ("smoke" if args.smoke else "all", problems))
        return 1 if problems else 0
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
