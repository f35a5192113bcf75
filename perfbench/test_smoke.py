"""Smoke test of the benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The validator tests are instant; the smoke run builds the benchmark (about
a minute for a clean build) and runs every workload at a tiny size, traced and
untraced.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def result_line(metrics, correct=True, failed=0, extra=None):
    result = {"correct": correct, "attempted": 3, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    result.update(extra or {})
    return json.dumps(result)


class ValidateResultTest(unittest.TestCase):
    expected = {"setup_s": "s", "pass_s": "s"}

    def test_accepts_a_complete_result(self):
        line = result_line({"setup_s": (0.1, "s"), "pass_s": (1.5, "s")})
        self.assertEqual(run.validate_result(line, self.expected), [])

    def test_rejects_a_missing_metric(self):
        line = result_line({"setup_s": (0.1, "s")})
        self.assertIn("missing metric pass_s", run.validate_result(line, self.expected))

    def test_rejects_a_wrong_unit(self):
        line = result_line({"setup_s": (0.1, "s"), "pass_s": (1500, "ms")})
        self.assertTrue(any("unit" in p for p in run.validate_result(line, self.expected)))

    def test_rejects_a_failed_check(self):
        line = result_line({"setup_s": (0.1, "s"), "pass_s": (1.5, "s")}, correct=False, failed=1)
        self.assertTrue(run.validate_result(line, self.expected))
        self.assertEqual(run.validate_result(line, self.expected, require_correct=False), [])

    def test_rejects_extra_keys_and_metrics(self):
        line = result_line({"setup_s": (0.1, "s"), "pass_s": (1.5, "s"), "other": (1, "s")},
                           extra={"seed": 1})
        self.assertTrue(run.validate_result(line, self.expected))


class SmokeRunTest(unittest.TestCase):
    def test_every_workload_at_tiny_size(self):
        done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                              cwd=BENCH_DIR.parent, stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)


if __name__ == "__main__":
    unittest.main()
