#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perf/test_benchmark.py

Builds the benchmark, runs the C++ self-test of its helpers (percentile
rules, seeded streams), then runs every workload briefly with --trace 0
and --trace 1 and checks that the result line names exactly the metrics
BENCHMARK.json lists for that mode, each with its unit, and that the
run's correctness checks passed. Takes about two minutes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402  (perf/run.py)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(run.build_dir()):
            raise RuntimeError("benchmark build failed")

    def test_helpers(self):
        done = subprocess.run([os.path.join(run.build_dir(), "perf_selftest")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_every_metric_is_reported(self):
        s = spec()
        wanted = {"0": {m["name"]: m["unit"] for m in s["end_to_end"]},
                  "1": {m["name"]: m["unit"] for m in s["per_layer"]}}
        for workload in (w["name"] for w in s["workloads"]):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", "5", "--seconds", "1", "--trace", trace],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
                    self.assertEqual(done.returncode, 0)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, wanted[trace])

    def test_bare_directory_fails_without_result(self):
        # Without the library sources the build must fail, with no result line.
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(run.build_dir(), "bare"))
        bare = os.path.join(run.build_dir(), "bare_checkout")
        os.makedirs(os.path.join(bare, "perf"), exist_ok=True)
        for name in os.listdir(HERE):
            path = os.path.join(HERE, name)
            if os.path.isfile(path):
                with open(path, "rb") as src, open(os.path.join(bare, "perf", name), "wb") as dst:
                    dst.write(src.read())
        done = subprocess.run(
            [sys.executable, "perf/run.py", "--workload", "service_hot", "--seed", "1",
             "--seconds", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=bare, env=env,
            timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
