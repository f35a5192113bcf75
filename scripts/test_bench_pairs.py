"""Unit tests of scripts/bench_pairs.py on canned perfbench result lines.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_pairs  # noqa: E402

SPEC = {
    "run_seconds": 25,
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
        {"name": "code_size_ratio", "unit": "ratio", "better": "lower", "bound": 0.05},
    ],
}


def result_line(pass_s, rss=30.0, ratio=1.5, failed=0):
    return json.dumps({
        "correct": failed == 0, "attempted": 4, "failed": failed,
        "metrics": {
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
            "code_size_ratio": {"value": ratio, "unit": "ratio"},
        },
    })


class Quartiles(unittest.TestCase):
    def test_linear_interpolation_matches_the_committed_bench_file(self):
        # BENCH_decode_status.json, campaign_o2 parent pass_s.
        runs = [3.266735, 2.9232451, 3.099071, 3.1255041, 3.1355321, 3.1406234, 3.1597427,
                3.2346516, 3.2430049, 3.3487049]
        stats = bench_pairs.summary(runs)
        self.assertAlmostEqual(stats["median"], 3.150183, places=6)
        self.assertAlmostEqual(stats["q1"], 3.1280111, places=6)
        self.assertAlmostEqual(stats["q3"], 3.2409166, places=6)
        self.assertEqual(stats["runs"], sorted(runs))

    def test_small_samples(self):
        self.assertEqual(bench_pairs.quantile([5.0], 0.25), 5.0)
        self.assertEqual(bench_pairs.quantile([1.0, 3.0], 0.5), 2.0)
        self.assertEqual(bench_pairs.quantile([4.0, 1.0, 3.0, 2.0], 0.75), 3.25)
        with self.assertRaises(ValueError):
            bench_pairs.quantile([], 0.5)


class Pairing(unittest.TestCase):
    def test_seed_i_on_both_sides_and_odd_pairs_run_the_parent_first(self):
        self.assertEqual(bench_pairs.plan(3), [
            (1, 1, ("parent", "change")),
            (2, 2, ("change", "parent")),
            (3, 3, ("parent", "change")),
        ])

    def test_collect_runs_each_side_from_its_own_root_in_plan_order(self):
        calls = []

        def runner(root, workload, seed, seconds, trace):
            calls.append((root, workload, seed, seconds, trace))
            return json.loads(result_line(2.0 if root == "P" else 1.0))

        results = bench_pairs.collect({"parent": "P", "change": "C"}, ["w"], 4, 25, runner,
                                      log=lambda line: None)
        self.assertEqual([(c[0], c[2]) for c in calls],
                         [("P", 1), ("C", 1), ("C", 2), ("P", 2),
                          ("P", 3), ("C", 3), ("C", 4), ("P", 4)])
        self.assertTrue(all(c[1] == "w" and c[3] == 25 and c[4] == 0 for c in calls))
        self.assertEqual(len(results["w"]["parent"]), 4)
        self.assertEqual(len(results["w"]["change"]), 4)

    def test_traced_runs_follow_the_pair_order_and_list_each_probe(self):
        calls = []

        def runner(root, workload, seed, seconds, trace):
            calls.append((root, seed, trace))
            return {"metrics": {"emu.ns_per_instr": {"value": 10.0 if root == "C" else 20.0,
                                                     "unit": "ns"}}}

        layers = bench_pairs.per_layer({"parent": "P", "change": "C"}, ["w"], 2, 25, runner)
        self.assertEqual(calls, [("P", 1, 1), ("C", 1, 1), ("C", 2, 1), ("P", 2, 1)])
        self.assertEqual(layers["emu.ns_per_instr"],
                         {"unit": "ns", "parent": [20.0, 20.0], "change": [10.0, 10.0]})

    def test_parse_result_reads_the_last_line(self):
        out = "building...\nsummary line\n" + result_line(1.25) + "\n\n"
        self.assertEqual(bench_pairs.parse_result(out)["metrics"]["pass_s"]["value"], 1.25)
        with self.assertRaises(ValueError):
            bench_pairs.parse_result("")


class Schema(unittest.TestCase):
    def canned(self, parent_times, change_times):
        return {
            "parent": [json.loads(result_line(t)) for t in parent_times],
            "change": [json.loads(result_line(t, rss=29.0)) for t in change_times],
        }

    def test_end_to_end_section_has_the_bench_decode_status_shape(self):
        parent = [2.0, 2.1, 1.9, 2.05, 2.0, 1.95, 2.02, 1.98, 2.01, 2.03]
        change = [1.1, 1.0, 1.05, 1.02, 2.5, 1.01, 1.03, 1.04, 1.0, 1.06]
        section = bench_pairs.end_to_end(SPEC, self.canned(parent, change))
        self.assertEqual(set(section), {"pairs", "pass_s", "peak_rss_mb", "code_size_ratio",
                                        "failed_checks", "attempted_checks"})
        self.assertEqual(section["pairs"], 10)
        timed = section["pass_s"]
        self.assertEqual(set(timed), {"parent", "change", "pairs_change_better",
                                      "change_over_parent_median"})
        self.assertEqual(set(timed["parent"]), {"median", "q1", "q3", "runs"})
        self.assertEqual(timed["pairs_change_better"], 9)  # pair 5 lost
        ratio = section["code_size_ratio"]
        self.assertEqual(set(ratio), set(timed))
        self.assertEqual(ratio["parent"], {"median": 1.5, "q1": 1.5, "q3": 1.5, "runs": [1.5] * 10})
        self.assertEqual(ratio["pairs_change_better"], 0)
        self.assertEqual(ratio["change_over_parent_median"], 1.0)
        self.assertEqual(section["failed_checks"], {"parent": 0, "change": 0})
        self.assertEqual(section["attempted_checks"], {"parent": 40, "change": 40})
        json.dumps(section)  # serializable

    def holds(self, results):
        return bench_pairs.claim_holds(bench_pairs.end_to_end(SPEC, results), "pass_s", "lower")

    def test_claim_rule_needs_nine_of_ten_and_a_gap_over_the_parent_iqr(self):
        parent = [2.0, 2.1, 1.9, 2.05, 2.0, 1.95, 2.02, 1.98, 2.01, 2.03]
        nine = [1.0] * 9 + [2.5]
        eight = [1.0] * 8 + [2.5, 2.5]
        close = [p - 0.01 for p in parent]  # better every time, but inside the IQR
        self.assertTrue(self.holds(self.canned(parent, nine)))
        self.assertFalse(self.holds(self.canned(parent, eight)))
        self.assertFalse(self.holds(self.canned(parent, close)))

    def test_claim_rule_needs_ten_pairs(self):
        self.assertTrue(self.holds(self.canned([2.0, 2.1] * 5, [1.0] * 10)))
        self.assertFalse(self.holds(self.canned([2.0, 2.1] * 4 + [2.0], [1.0] * 9)))

    def test_claim_rule_needs_no_more_failed_checks_than_the_parent(self):
        results = self.canned([2.0, 2.1] * 5, [1.0] * 10)
        results["change"][3] = json.loads(result_line(1.0, failed=1))
        self.assertFalse(self.holds(results))
        results["parent"][7] = json.loads(result_line(2.0, failed=1))
        self.assertTrue(self.holds(results))

    def test_verdict_flags_a_metric_worse_than_its_bound(self):
        results = {"parent": [json.loads(result_line(1.0, rss=30.0)) for _ in range(3)],
                   "change": [json.loads(result_line(0.5, rss=40.0)) for _ in range(3)]}
        document = {"end_to_end": {"w": bench_pairs.end_to_end(SPEC, results)}}
        lines = bench_pairs.verdict_lines(SPEC, document)
        rss = [line for line in lines if "peak_rss_mb" in line]
        self.assertEqual(len(rss), 1)
        self.assertIn("WORSE", rss[0])
        # Faster in every pair, but three pairs are too few to claim it.
        self.assertIn("claim rule does NOT hold", [l for l in lines if " pass_s" in l][0])

    def test_ratio_metrics_are_paired_by_seed_and_judged_like_timed_ones(self):
        # hybrid_corpus's code_size_ratio varies with the seed: pair i runs
        # seed i on both sides, so the change wins each pair.
        parent = [9.30, 9.23, 9.34, 9.27, 9.31, 9.25, 9.33, 9.28, 9.29, 9.26]
        change = [5.33, 5.27, 5.30, 5.29, 5.31, 5.28, 5.32, 5.30, 5.29, 5.28]
        results = {"parent": [json.loads(result_line(1.0, ratio=r)) for r in parent],
                   "change": [json.loads(result_line(1.0, ratio=r)) for r in change]}
        section = bench_pairs.end_to_end(SPEC, results)
        entry = section["code_size_ratio"]
        self.assertEqual(entry["pairs_change_better"], 10)
        self.assertAlmostEqual(entry["parent"]["median"], 9.285)
        self.assertAlmostEqual(entry["change"]["median"], 5.295)
        self.assertTrue(bench_pairs.claim_holds(section, "code_size_ratio", "lower"))
        lines = bench_pairs.verdict_lines(SPEC, {"end_to_end": {"w": section}})
        ratio_line = [line for line in lines if "code_size_ratio" in line][0]
        self.assertIn("10/10 pairs", ratio_line)
        self.assertIn("claim rule holds", ratio_line)
        self.assertNotIn("WORSE", ratio_line)

    def test_a_ratio_worse_than_its_bound_is_flagged_and_an_equal_one_is_not(self):
        same = {"parent": [json.loads(result_line(1.0, ratio=1.6607709678037677))] * 10,
                "change": [json.loads(result_line(1.0, ratio=1.6607709678037677))] * 10}
        grown = {"parent": [json.loads(result_line(1.0, ratio=1.5))] * 10,
                 "change": [json.loads(result_line(1.0, ratio=1.6))] * 10}
        for results, worse in ((same, False), (grown, True)):
            section = bench_pairs.end_to_end(SPEC, results)
            self.assertFalse(bench_pairs.claim_holds(section, "code_size_ratio", "lower"))
            lines = bench_pairs.verdict_lines(SPEC, {"end_to_end": {"w": section}})
            ratio_line = [line for line in lines if "code_size_ratio" in line][0]
            self.assertEqual("WORSE" in ratio_line, worse, ratio_line)

    def test_main_writes_the_document_and_merges_extra_sections(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for side in ("p", "c"):
                (root / side).mkdir()
                (root / side / "BENCHMARK.json").write_text(json.dumps(SPEC))
            (root / "extra.json").write_text(json.dumps({"ablation": {"x": 1}}))

            seconds_seen = set()

            def runner(side_root, workload, seed, seconds, trace):
                seconds_seen.add(seconds)
                return json.loads(result_line(2.0 if side_root.name == "p" else 1.0))

            with mock.patch.object(bench_pairs, "run_perfbench", runner), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                bench_pairs.main(["--parent", str(root / "p"), "--change", str(root / "c"),
                                  "--out", str(root / "BENCH_t.json"), "--pairs", "2",
                                  "--merge", str(root / "extra.json")])
            document = json.loads((root / "BENCH_t.json").read_text())
        self.assertEqual(set(document), {"what", "host", "method", "end_to_end", "ablation"})
        self.assertEqual(document["end_to_end"]["w"]["pairs"], 2)
        self.assertEqual(seconds_seen, {25})  # BENCHMARK.json's run_seconds


if __name__ == "__main__":
    unittest.main()
