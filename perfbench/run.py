#!/usr/bin/env python3
"""Builds and runs the r2r benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the r2r library and the benchmark binary from source
(CMake, Release) into $CARGO_TARGET_DIR or .bench_build, runs one workload
and passes the binary's output through; its last line is the result
object. --smoke runs every workload of BENCHMARK.json at a tiny size,
traced and untraced, and fails when a check fails or a metric named in
BENCHMARK.json is missing or has the wrong unit.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return out / "r2r_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate_result(line, expected, require_correct=True):
    """Returns the problems with one result line (empty when it is valid)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: %r" % line[:200]]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are not %s" % sorted(RESULT_KEYS)]
    problems = []
    if require_correct and (result["correct"] is not True or result["failed"] != 0):
        problems.append("checks failed: %s of %s" % (result["failed"], result["attempted"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result["metrics"]
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            problems.append("missing metric %s" % name)
        elif metric.get("unit") != unit:
            problems.append("metric %s has unit %r, expected %r" % (name, metric.get("unit"), unit))
        elif not isinstance(metric.get("value"), (int, float)) or not math.isfinite(metric["value"]):
            problems.append("metric %s has no finite value" % name)
    for name in sorted(set(metrics) - set(expected)):
        problems.append("unexpected metric %s" % name)
    return problems


def run_binary(binary, args):
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("r2r_perfbench timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def smoke(binary):
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            code, out = run_binary(binary, ["--workload", workload, "--seed", "1", "--seconds", "1",
                                            "--trace", str(trace), "--smoke"])
            lines = out.strip().splitlines()
            problems = ["r2r_perfbench exited with %d" % code] if code != 0 else []
            if lines:
                problems += validate_result(lines[-1], expected_metrics(trace))
            else:
                problems.append("no output")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print("smoke %-16s trace %d: %s" % (workload, trace, status))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    if not (ROOT / "src" / "sim" / "engine.h").exists() or not (ROOT / "BENCHMARK.json").exists():
        print("run.py: run from the root of an r2r checkout (src/ and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)

    code, out = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code != 0:
        return code
    lines = out.strip().splitlines()
    # A failed check is reported in the result ("correct": false), not as an
    # error; a malformed result is an error.
    problems = (validate_result(lines[-1], expected_metrics(args.trace), require_correct=False)
                if lines else ["no output"])
    sys.stdout.write(out)
    for problem in problems:
        print("run.py: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
