"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def fake_doc(workload="campus_uniform", fingerprint=None, **checks):
    """A plant_bench document with three iterations and clean checks."""
    doc = {
        "context": {"workload": workload, "baseline_ok": True,
                    "host_lt_2_threads": False},
        "peak_rss_mb": 210.5,
        "samples": {"frames_per_s_1": [9.0e5, 8.0e5, 8.5e5],
                    "frames_per_s_2": [1.5e6, 1.4e6, 1.6e6],
                    "setup_s": [0.07, 0.06, 0.065],
                    "host_slowdown": [1.0, 1.0, 1.0]},
        "layers": {"sim.events": [7.0, 7.0, 7.0],
                   "trace.iter_s_on": [2.2, 2.0],
                   "trace.iter_s_off": [2.0]},
        "checks": {"attempted": 720, "bad": 0,
                   "fingerprint": fingerprint or benchstats.GOLDEN[workload],
                   "fp_stable": True, "invariant": "x", "invariant_ok": True,
                   "default_seed_ok": True},
    }
    doc["checks"].update(checks)
    return doc


class OrderStatistics(unittest.TestCase):
    def test_median_counts_every_sample(self):
        self.assertEqual(benchstats.median([3.0]), 3.0)
        self.assertEqual(benchstats.median([4.0, 1.0, 3.0]), 3.0)
        self.assertEqual(benchstats.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_quartiles_match_statistics_module(self):
        values = [float(v) for v in range(1, 21)]  # n = 20
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(q2, 10.5)
        self.assertEqual(benchstats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 101)]  # n = 100
        pct, value = benchstats.tail_percentile(values)
        self.assertEqual((pct, value), (90, 90.0))
        self.assertEqual(sum(v > value for v in values), 10)
        # n = 11: only the smallest sample has ten above it.
        pct, value = benchstats.tail_percentile([float(v) for v in range(11)])
        self.assertEqual((pct, value), (9, 0.0))
        # n = 10: no percentile has ten samples beyond it.
        self.assertIsNone(benchstats.tail_percentile([1.0] * 10))
        # A throughput's worse side is low: p10, ten samples below it.
        values = [float(v) for v in range(1, 101)]
        pct, value = benchstats.tail_percentile(values, worse="lower")
        self.assertEqual((pct, value), (10, 11.0))
        self.assertEqual(sum(v < value for v in values), 10)
        # n = 1000: p99, with exactly ten samples above it.
        values = [float(v) for v in range(1000)]
        pct, value = benchstats.tail_percentile(values)
        self.assertEqual(pct, 99)
        self.assertEqual(sum(v > value for v in values), 10)


class FailedOps(unittest.TestCase):
    def test_clean_run_fails_nothing(self):
        checks = fake_doc()["checks"]
        self.assertEqual(benchstats.count_failed(checks, "campus_uniform", 1), 0)

    def test_per_op_failures_stand(self):
        checks = fake_doc(bad=3)["checks"]
        self.assertEqual(benchstats.count_failed(checks, "campus_uniform", 1), 3)

    def test_forced_fingerprint_mismatch_fails_every_op(self):
        checks = fake_doc(fingerprint="0000000000000000")["checks"]
        self.assertEqual(benchstats.count_failed(checks, "campus_uniform", 1), 720)
        forced = dict(benchstats.GOLDEN, campus_uniform="deadbeefdeadbeef")
        checks = fake_doc()["checks"]
        self.assertEqual(
            benchstats.count_failed(checks, "campus_uniform", 1, golden=forced),
            720)
        result = run.result_line("campus_uniform", 1,
                                 fake_doc(fingerprint="0" * 16), False, SPEC)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_golden_is_only_checked_at_the_default_seed(self):
        checks = fake_doc(fingerprint="0000000000000000")["checks"]
        self.assertEqual(benchstats.count_failed(checks, "campus_uniform", 7), 0)

    def test_shape_check_is_only_pinned_at_the_default_seed(self):
        checks = fake_doc("radio_floor", default_seed_ok=False)["checks"]
        self.assertEqual(benchstats.count_failed(checks, "radio_floor", 1), 720)
        self.assertEqual(benchstats.count_failed(checks, "radio_floor", 5), 0)

    def test_whole_run_checks_fail_every_op(self):
        for broken in ({"fp_stable": False}, {"invariant_ok": False}):
            checks = fake_doc(**broken)["checks"]
            self.assertEqual(
                benchstats.count_failed(checks, "campus_uniform", 7), 720)


class Harness(unittest.TestCase):
    def test_timeout_grows_with_the_budget(self):
        self.assertGreater(run.run_timeout_s(SPEC["run_seconds"]),
                           2 * SPEC["run_seconds"])
        self.assertGreater(run.run_timeout_s(150), 300)

    def test_report_names_the_host_slowdown_and_unscaled_medians(self):
        doc = fake_doc()
        doc["samples"]["host_slowdown"] = [1.2, 1.3, 1.25, 1.4]
        text = "\n".join(run.describe("campus_uniform", 1, doc, 0, SPEC))
        self.assertIn("host slowdown 1.275", text)
        self.assertIn("unscaled frames_per_s_1=850000", text)

    def test_untraced_report_prints_the_2shard_rung_with_its_unit(self):
        text = "\n".join(run.describe("campus_uniform", 1, fake_doc(), 0, SPEC))
        row = [l for l in text.splitlines() if "sim_frames_per_s_2shard" in l]
        self.assertEqual(len(row), 1)
        self.assertIn("frames/s", row[0])


class HostSpeed(unittest.TestCase):
    def test_timings_are_corrected_by_the_run_median_slowdown(self):
        doc = fake_doc("flowmon_plant_tier")
        # Median slowdown 4.0; the correction is 4.0 ** SPEED_EXPONENT.
        doc["samples"]["host_slowdown"] = [4.0, 3.0, 5.0]
        c = 4.0 ** benchstats.SPEED_EXPONENT
        m = benchstats.end_to_end_metrics(doc)
        self.assertAlmostEqual(m["sim_frames_per_s"][0], 8.5e5 * c)
        self.assertAlmostEqual(m["sim_frames_per_s_2shard"][0], 1.5e6 * c)
        self.assertAlmostEqual(m["setup_s"][0], 0.065 / c)
        self.assertEqual(len(m["setup_s"][1]), 3)
        self.assertEqual(m["peak_rss_mb"][0], 210.5)
        layers = benchstats.layer_metrics(doc, SPEC["per_layer"])
        self.assertAlmostEqual(layers["sim_frames_per_s_2shard"][0], 1.5e6 * c)

    def test_no_probe_samples_means_no_scaling(self):
        doc = fake_doc()
        del doc["samples"]["host_slowdown"]
        self.assertEqual(benchstats.host_slowdown(doc), 1.0)


class MetricNames(unittest.TestCase):
    def test_untraced_run_prints_every_end_to_end_metric(self):
        result = run.result_line("campus_uniform", 1, fake_doc(), False, SPEC)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)
        self.assertEqual(result["metrics"]["sim_frames_per_s"]["value"], 8.5e5)

    def test_traced_run_prints_every_per_layer_metric(self):
        result = run.result_line("campus_uniform", 1, fake_doc(), True, SPEC)
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)
        self.assertAlmostEqual(
            result["metrics"]["trace.overhead_frac"]["value"], 0.05)

    def test_binary_emits_exactly_the_declared_layers(self):
        with open(os.path.join(HERE, "plant_bench.cpp")) as f:
            source = f.read()
        emitted = set(re.findall(r'layer\(\s*"([a-z0-9_.]+)"', source))
        emitted |= set(re.findall(r'"(trace\.iter_s_o(?:n|ff))"', source))
        helpers = {"trace.iter_s_on", "trace.iter_s_off"}
        computed_here = {"trace.overhead_frac", "sim_frames_per_s_2shard"}
        declared = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(emitted - helpers, declared - computed_here)

    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], run.WORKLOADS)
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(bounds["setup_s"], 0.25)


if __name__ == "__main__":
    unittest.main()
