#!/usr/bin/env python3
"""Runs alternating perfbench pairs on two checkouts and writes a BENCH_*.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json
        [--workload W ...] [--pairs 10] [--traced 1] [--what TEXT]
        [--host TEXT] [--merge extra.json]

Pair i (seeds 1..N) runs `python3 perfbench/run.py --workload W --seed i
--seconds S --trace 0` once in each checkout, each from its own root, so
each side builds and measures its own tree; S is BENCHMARK.json's
run_seconds, and odd pairs run the parent first, even pairs the change. This script only reads perfbench's result
line (the last line of its output); it never edits or builds anything
under perfbench/ itself. Before the first run it refuses a checkout whose
.bench_build was configured for another source tree.

The output follows BENCH_decode_status.json: per workload and end-to-end
metric (timed and ratio metrics alike) the sorted runs of each side with
their median and linearly interpolated quartiles, how many pairs the
change won, and the ratio of the medians; the checks are summed.
--traced N adds N traced runs per side and workload (seeds 1..N, sides in
the pair order) and lists their per-layer metrics. --merge copies the
top-level sections of a JSON file into the output (ablations, allocation
counts).

It prints, per workload and end-to-end metric, whether the metric is
worse than its bound and whether the claim rule holds: at least 10
pairs, the change better in at least nine of ten of them, its median
better than the parent's by more than the parent's interquartile range,
and no more failed checks than the parent. Ratio metrics that vary with
the seed (hybrid_corpus's code_size_ratio) are paired by seed like the
timed ones.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10


def quantile(values, q):
    """Linearly interpolated quantile (position (n - 1) * q of the sorted values)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = (len(ordered) - 1) * q
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summary(values):
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "runs": sorted(values),
    }


def plan(pairs):
    """(pair, seed, side order) for each pair: seed i, parent first on odd pairs."""
    return [(i, i, SIDES if i % 2 == 1 else SIDES[::-1]) for i in range(1, pairs + 1)]


def parse_result(output):
    """perfbench's result object: the last non-empty line of its stdout."""
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("last line is not a perfbench result: %r" % lines[-1][:200])
    return result


def run_perfbench(root, workload, seed, seconds, trace):
    """One perfbench run from `root`; returns its result object."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each side builds into its own .bench_build
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s in %s exited %d" % (" ".join(command), root, done.returncode))
    return parse_result(done.stdout)


def stale_build_tree(root):
    """Why `root` must not be measured, or None. perfbench/run.py configures
    .bench_build only when its CMakeCache.txt is missing, so a checkout
    copied together with another tree's .bench_build (a tar of a working
    tree, unlike git archive) would rebuild and time that other tree."""
    cache = Path(root) / ".bench_build" / "CMakeCache.txt"
    if not cache.exists():
        return None
    expected = (Path(root) / "perfbench").resolve()
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            configured = Path(line.split("=", 1)[1].strip())
            if configured.resolve() != expected:
                return "%s was configured for %s, not %s; remove it (or copy the " \
                       "checkout with git archive) and run again" % (cache, configured, expected)
    return None


def end_to_end(spec, results):
    """The end_to_end section of one workload from {side: [result, ...]} (pair order)."""
    pairs = len(results["parent"])
    section = {"pairs": pairs}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        lower = metric["better"] == "lower"
        better = sum(1 for p, c in zip(values["parent"], values["change"])
                     if (c < p if lower else c > p))
        entry = {side: summary(values[side]) for side in SIDES}
        entry["pairs_change_better"] = better
        parent_median = entry["parent"]["median"]
        entry["change_over_parent_median"] = (
            round(entry["change"]["median"] / parent_median, 4) if parent_median else None)
        section[name] = entry
    section["failed_checks"] = {side: sum(r["failed"] for r in results[side]) for side in SIDES}
    section["attempted_checks"] = {side: sum(r["attempted"] for r in results[side])
                                   for side in SIDES}
    return section


def claim_holds(section, name, better):
    """The claim rule on metric `name` of one workload's end_to_end section:
    at least MIN_PAIRS pairs, the change better in >= 9/10 of them, the
    medians apart by more than the parent's IQR in the better direction,
    and no more failed checks on the change than on the parent."""
    pairs = section["pairs"]
    entry = section[name]
    parent, change = entry["parent"], entry["change"]
    gap = parent["median"] - change["median"] if better == "lower" else \
        change["median"] - parent["median"]
    failed = section["failed_checks"]
    return pairs >= MIN_PAIRS and 10 * entry["pairs_change_better"] >= 9 * pairs and \
        gap > parent["q3"] - parent["q1"] and failed["change"] <= failed["parent"]


def verdict_lines(spec, document):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    for workload, section in document["end_to_end"].items():
        for name, entry in section.items():
            if not isinstance(entry, dict) or "pairs_change_better" not in entry:
                continue
            ratio = entry["change_over_parent_median"]
            worse = ratio is not None and (
                ratio > 1 + bound[name] if better[name] == "lower" else ratio < 1 - bound[name])
            line = "%s %s: parent %.6g, change %.6g (x%s), change better in %d/%d pairs" % (
                workload, name, entry["parent"]["median"], entry["change"]["median"], ratio,
                entry["pairs_change_better"], section["pairs"])
            if worse:
                line += ", WORSE than its %.0f %% bound" % (100 * bound[name])
            line += "; claim rule %s (gap %.6g, parent IQR %.6g, failed checks %d/%d)" % (
                "holds" if claim_holds(section, name, better[name]) else "does NOT hold",
                abs(entry["parent"]["median"] - entry["change"]["median"]),
                entry["parent"]["q3"] - entry["parent"]["q1"],
                section["failed_checks"]["parent"], section["failed_checks"]["change"])
            lines.append(line)
    return lines


def collect(roots, workloads, pairs, seconds, runner, log=print):
    """Runs the pairs; returns {workload: {side: [result, ...]}}."""
    results = {}
    for workload in workloads:
        results[workload] = {side: [] for side in SIDES}
        for pair, seed, order in plan(pairs):
            for side in order:
                result = runner(roots[side], workload, seed, seconds, 0)
                results[workload][side].append(result)
                log("%s pair %d seed %d %s: %s" % (
                    workload, pair, seed, side,
                    json.dumps({k: v["value"] for k, v in result["metrics"].items()})))
    return results


def per_layer(roots, workloads, traced, seconds, runner):
    """Per-layer metrics of `traced` traced runs per side and workload."""
    layers = {"note": "%d traced run(s) per side and workload (--trace 1, seeds 1..%d); "
                      "each list holds the readings in workload order %s" % (
                          traced, traced, ", ".join(workloads))}
    for workload in workloads:
        for _, seed, order in plan(traced):
            for side in order:
                result = runner(roots[side], workload, seed, seconds, 1)
                for name, metric in sorted(result["metrics"].items()):
                    entry = layers.setdefault(name, {"unit": metric["unit"], "parent": [],
                                                     "change": []})
                    entry[side].append(metric["value"])
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--out", required=True, help="BENCH_*.json to write")
    parser.add_argument("--workload", action="append", help="workload (default: every one)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--traced", type=int, default=0, help="traced runs per side and workload")
    parser.add_argument("--what", default="", help="what the change is")
    parser.add_argument("--host", default="", help="the host the runs shared")
    parser.add_argument("--merge", help="JSON file whose top-level sections are copied in")
    args = parser.parse_args(argv)

    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side in SIDES:
        problem = stale_build_tree(roots[side])
        if problem:
            print("bench_pairs.py: %s checkout: %s" % (side, problem), file=sys.stderr)
            return 2
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = collect(roots, workloads, args.pairs, seconds, run_perfbench,
                      log=lambda line: print(line, file=sys.stderr, flush=True))
    document = {
        "what": args.what,
        "host": args.host,
        "method": ("python3 scripts/bench_pairs.py: python3 perfbench/run.py --workload W "
                   "--seed N --seconds %s --trace 0, run from the root of each side's checkout; "
                   "pair N uses seed N on both sides, and odd pairs run the parent first, even "
                   "pairs the change. q1/q3 are linearly interpolated quartiles of the runs." %
                   seconds),
        "end_to_end": {w: end_to_end(spec, results[w]) for w in workloads},
    }
    if args.traced:
        document["per_layer"] = per_layer(roots, workloads, args.traced, seconds, run_perfbench)
    if args.merge:
        document.update(json.loads(Path(args.merge).read_text()))
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    for line in verdict_lines(spec, document):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
