"""Tests of the benchmark itself, on tiny workload sizes.

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark through perfbench/run.py (Release, under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench) and runs it
directly with --size tiny, so the whole suite takes well under a minute
after the build.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = run.WORKLOADS
OUTCOMES = ("energy_saved_pct", "client_loss_pct", "udp_delay_ms",
            "web_page_ms")


def load_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        cls.spec = load_benchmark_json()

    def invoke(self, workload, seed=1, trace=0, extra=()):
        cmd = [self.exe, "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
        proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def assert_metrics(self, result, defs):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(d["name"] for d in defs))
        for d in defs:
            m = metrics[d["name"]]
            self.assertEqual(m["unit"], d["unit"], d["name"])
            self.assertTrue(math.isfinite(m["value"]), d["name"])

    def test_tiny_pass_emits_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.invoke(w, trace=0)
                self.assert_metrics(res, self.spec["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["metrics"]["ok_ops_pct"]["value"], 100)
                for name in OUTCOMES + ("run_s", "setup_s"):
                    self.assertGreater(res["metrics"][name]["value"], 0, name)
                traced = self.invoke(w, trace=1)
                self.assert_metrics(traced, self.spec["per_layer"])
                self.assertTrue(traced["correct"])

    def test_invalid_config_lowers_ok_ops(self):
        res = self.invoke("paper_battery", extra=["--inject-invalid"])
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["metrics"]["ok_ops_pct"]["value"], 100)

    def test_seed_reproduces_outcomes_and_varies_scenarios(self):
        a = self.invoke("hostile_mix", seed=7)["metrics"]
        b = self.invoke("hostile_mix", seed=7)["metrics"]
        for name in OUTCOMES:
            self.assertEqual(a[name]["value"], b[name]["value"], name)

        def scenario_seeds(seed):
            out = subprocess.run(
                [self.exe, "--workload", "paper_battery", "--seed", str(seed),
                 "--list-ops"], stdout=subprocess.PIPE, text=True,
                check=True).stdout.split()
            return [tok for tok in out if tok.startswith("seed=")]

        self.assertEqual(scenario_seeds(7), scenario_seeds(7))
        s7, s8 = scenario_seeds(7), scenario_seeds(8)
        self.assertEqual(len(s7), len(s8))
        self.assertTrue(all(x != y for x, y in zip(s7, s8)))


if __name__ == "__main__":
    unittest.main()
