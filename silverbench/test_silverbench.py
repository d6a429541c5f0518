#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 silverbench/test_silverbench.py

Runs each workload briefly through run.py (building it first if needed)
and checks that:
  - the metric names and units printed are exactly those BENCHMARK.json
    lists, for --trace 0 and --trace 1, with every op correct;
  - every same-run ratio.* metric is measured (non-zero) on every
    workload, and a traced run has both traced and untraced samples;
  - an op with a planted wrong expected output counts as failed;
  - the same seed gives identical inputs, images and instruction and
    cycle counts, and another seed other inputs;
  - in a directory holding only BENCHMARK.json and the benchmark, the
    run fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("oneshot", "longrun", "cosim", "svc")


def bench(workload, seed=1, seconds=2, trace=0, extra=(), cwd=ROOT, run=RUN):
    """Runs one workload; returns (exit code, detail, result or None)."""
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    detail, result = None, None
    for line in lines:
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
    if lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
    return proc.returncode, detail, result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = [(m["name"], m["unit"]) for m in self.spec[key]]
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, detail, result = bench(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertIsNotNone(result)
                    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
                    self.assertEqual(got, want)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if trace:
                        self.assertEqual(
                            [k for k, v in result["metrics"].items()
                             if k.startswith("ratio.") and v["value"] <= 0],
                            [])
                        self.assertGreater(detail["untraced_samples"], 0)
                        self.assertGreater(detail["traced_samples"], 0)

    def test_planted_wrong_expected_counts_as_failed(self):
        code, detail, result = bench("oneshot", seconds=1,
                                     extra=["--plant-wrong-expected"])
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("planted", detail["failures"][0])

    def test_same_seed_same_inputs_and_counts(self):
        keys = ("inputs_digest", "images_digest", "reference_counts")
        for workload in ("oneshot", "svc"):
            with self.subTest(workload=workload):
                _, first, _ = bench(workload, seed=7)
                _, second, _ = bench(workload, seed=7)
                _, other, _ = bench(workload, seed=8)
                for k in keys:
                    self.assertEqual(first[k], second[k], k)
                self.assertNotEqual(first["inputs_digest"],
                                    other["inputs_digest"])
        # svc's reference ops step every engine.
        self.assertEqual(len(first["reference_counts"]), 6)

    def test_fails_without_the_sources(self):
        lone = os.path.join(ROOT, ".bench_build", "selftest-lone")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(HERE, os.path.join(lone, "silverbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, _, result = bench(
                "oneshot", cwd=lone,
                run=os.path.join(lone, "silverbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
