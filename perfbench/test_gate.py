#!/usr/bin/env python3
"""Tests that the benchmark's correctness gate has teeth.

Run from the root of a checkout:

    python3 perfbench/test_gate.py

Each case runs one short os-churn benchmark run and checks that a broken
output becomes a counted failure and a non-zero exit: a byte flipped in
the written trace, a wrong pinned digest, and a failing sweep row. A clean
run, checked against the pinned digest, must pass.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = "os-churn"
SEED = 1


def run_bench(*extra):
    """Runs one 1-second benchmark run; returns (exit code, result, stderr)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class GateTest(unittest.TestCase):
    def assert_counted_failure(self, code, result, stderr, expect):
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertIn(expect, stderr)

    def test_clean_run_passes_against_pinned_digest(self):
        code, result, stderr = run_bench()
        self.assertEqual(code, 0, stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertNotIn("digest matches", stderr)

    def test_flipped_trace_byte_fails(self):
        code, result, stderr = run_bench("--inject", "flip-byte")
        self.assert_counted_failure(code, result, stderr, "trace intact")

    def test_wrong_pinned_digest_fails(self):
        with open(os.path.join(HERE, "digests.txt")) as f:
            pinned = [line for line in f
                      if line.startswith("%s %d " % (WORKLOAD, SEED))]
        self.assertEqual(len(pinned), 1, "no pinned digest for the test seed")
        wrong = pinned[0].replace("records=", "records=1", 1)
        work = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build", "work")
        os.makedirs(work, exist_ok=True)
        path = os.path.join(work, "wrong-digests.txt")
        with open(path, "w") as f:
            f.write(wrong)
        code, result, stderr = run_bench("--digests", path)
        self.assert_counted_failure(code, result, stderr, "digest matches")

    def test_failing_sweep_row_fails(self):
        code, result, stderr = run_bench("--inject", "bad-row")
        self.assert_counted_failure(code, result, stderr, "sweep row")


if __name__ == "__main__":
    unittest.main()
