#!/usr/bin/env python3
"""Tests of the isprof benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Run from the repository root; takes a few minutes (it builds the
benchmark if needed and runs every workload once untraced and once
traced). Checks:
  * every metric BENCHMARK.json names is emitted, with its unit, for
    every workload, and the operations pass their oracle check;
  * the oracle rejects tampered profiles, reports and fleet stores, and
    the seed alone determines the generated inputs (perfbench_selftest);
  * without the isprof sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, trace, seed=11, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit_on_every_workload(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = bench(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], proc.stdout[-3000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)


class SelfTest(unittest.TestCase):
    def test_oracle_and_seed_checks(self):
        self.assertIsNotNone(run.build(run.build_dir()))
        exe = os.path.join(run.build_dir(), "perfbench_selftest")
        proc = subprocess.run([exe], capture_output=True, text=True,
                              timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class NoSources(unittest.TestCase):
    def test_fails_without_a_result_when_isprof_is_missing(self):
        lonely = os.path.join(run.build_dir(), "lonely-%d" % os.getpid())
        shutil.rmtree(lonely, ignore_errors=True)
        try:
            os.makedirs(lonely)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
            shutil.copytree(BENCH, os.path.join(lonely, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "live-md",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=lonely, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(lonely, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
