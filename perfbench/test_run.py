#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 perfbench/test_run.py

The driver test builds bench_e2e (like any first run) and runs each
workload once at --tiny sizes.
"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        value, pct, n = run.tail_percentile(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_order_of_input_does_not_matter(self):
        values = [5.0] * 30 + [50.0] * 10 + [7.0] * 10
        self.assertEqual(run.tail_percentile(values), (7.0, 80.0, 50))

    def test_smallest_sample_that_has_a_tail(self):
        self.assertEqual(run.tail_percentile(list(range(11))),
                         (0, 100.0 / 11, 11))

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.tail_percentile(list(range(10)))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: v[0] for k, v in run.PER_LAYER.items()})
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


class TinyDriverTest(unittest.TestCase):
    def run_driver(self, workload, trace):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", str(trace),
                             "--tiny"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_every_end_to_end_metric_prints_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_driver(workload, 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in metrics.items()},
                    run.END_TO_END)
                for v in metrics.values():
                    self.assertGreater(v["value"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        metrics = self.run_driver("har-fleet-observed", 1)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         {k: v[0] for k, v in run.PER_LAYER.items()})


if __name__ == "__main__":
    unittest.main()
