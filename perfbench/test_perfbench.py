#!/usr/bin/env python3
"""Tests of the benchmark itself, on a tiny overlay.

    python3 perfbench/test_perfbench.py

- Every workload, untraced and traced, prints each metric BENCHMARK.json
  names with its unit and a sample count, and ends with the result line.
- The audit catches a deliberately corrupted answer.
- Outside a full checkout (only BENCHMARK.json and perfbench/), run.py
  fails without printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A tiny overlay and a short window: enough for every round to run.
TINY = ["--n", "150", "--seconds", "6"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace):
        out = run_bench("--workload", workload, "--seed", "3",
                        "--trace", str(trace), *TINY)
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        table = "\n".join(lines[:-1])
        for m in wanted:
            row = re.search(r"^\s+%s\s+(\S+)\s+%s\s+n=(\d+)$"
                            % (re.escape(m["name"]), re.escape(m["unit"])),
                            table, re.MULTILINE)
            self.assertIsNotNone(row, "%s not printed with unit and samples" % m["name"])
            self.assertEqual(float(row.group(1)),
                             float("%.6g" % result["metrics"][m["name"]]["value"]))
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        checks = json.loads(table.split("checks ", 1)[1].splitlines()[0])
        self.assertEqual(checks["audit_mismatches"], 0)
        self.assertGreater(checks["audited"], 0)
        self.assertTrue(checks["drained"])
        stamp = json.loads(table.split("stamp  ", 1)[1].splitlines()[0])
        for key in ("host_cpus", "rev", "build_type", "seed", "threads"):
            self.assertIn(key, stamp)
        self.assertEqual(stamp["seed"], 3)

    def test_every_metric_is_printed(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_audit_catches_a_corrupted_answer(self):
        out = run_bench("--workload", "route_hot", "--seed", "3", "--trace", "0",
                        "--corrupt-audit", *TINY)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        checks = json.loads(out.stdout.split("checks ", 1)[1].splitlines()[0])
        self.assertEqual(checks["audit_mismatches"], 1)

    def test_fails_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("--workload", "route_hot", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
