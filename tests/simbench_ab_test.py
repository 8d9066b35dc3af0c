#!/usr/bin/env python3
"""The verdict of tools/simbench_ab.py on canned simbench result lines.

Uses the repository's own BENCHMARK.json, so the bounds under test are
the ones the A/B applies.  Run directly or through ctest
(`simbench_ab_verdict`).
"""

import importlib.util
import json
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "simbench_ab", os.path.join(ROOT, "tools", "simbench_ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# A steady-translate-like result (values as simbench reports them).
BASE = {"sim_acc_per_cpu_s": 4.5e6, "ns_per_access_p50": 190.0,
        "setup_s": 0.0072, "peak_rss_mb": 7.04,
        "tps_speedup_gap_pp": 13.54, "l1_miss_elim_gap_pp": 1.97}


def line(scale=None, correct=True, failed=0):
    """One result line: BASE with some metrics multiplied."""
    scale = scale or {}
    metrics = {name: {"value": value * scale.get(name, 1.0), "unit": ""}
               for name, value in BASE.items()}
    return json.dumps({"correct": correct, "attempted": 21,
                       "failed": failed, "metrics": metrics})


def pairs(change):
    """Every workload gets PAIRS identical pairs of (base, change)."""
    return {w["name"]: [(line(), change)] * ab.PAIRS
            for w in SPEC["workloads"]}


class Verdict(unittest.TestCase):
    def failures(self, p):
        return ab.verdict(SPEC, p)[1]

    def test_aa_passes(self):
        # A/A with pair-to-pair jitter well inside the bounds.
        jitter = [0.97, 1.02, 0.99, 1.04, 1.0]
        p = {w["name"]: [(line({"sim_acc_per_cpu_s": j,
                                "ns_per_access_p50": 1 / j}),
                          line({"sim_acc_per_cpu_s": jitter[-1 - i],
                                "ns_per_access_p50": 1 / jitter[-1 - i]}))
                         for i, j in enumerate(jitter)]
             for w in SPEC["workloads"]}
        self.assertEqual(self.failures(p), [])
        self.assertEqual(self.failures(pairs(line())), [])

    def test_throughput_drop_past_bound_fails(self):
        self.assertEqual(
            self.failures(pairs(line({"sim_acc_per_cpu_s": 0.76}))), [])
        failures = self.failures(pairs(line({"sim_acc_per_cpu_s": 0.74})))
        self.assertEqual(len(failures), len(SPEC["workloads"]))
        self.assertIn("sim_acc_per_cpu_s", failures[0])

    def test_peak_rss_rise_past_bound_fails(self):
        self.assertEqual(self.failures(pairs(line({"peak_rss_mb": 1.04}))),
                         [])
        failures = self.failures(pairs(line({"peak_rss_mb": 1.06})))
        self.assertEqual(len(failures), len(SPEC["workloads"]))
        self.assertIn("peak_rss_mb", failures[0])

    def test_one_failed_run_fails(self):
        for bad in ("", line(correct=False), line(failed=1), "not json"):
            p = pairs(line())
            first = SPEC["workloads"][0]["name"]
            p[first] = [(line(), bad)] + p[first][1:]
            self.assertNotEqual(self.failures(p), [], bad)
            # a failing base run fails the A/B too
            p[first][0] = (bad, line())
            self.assertNotEqual(self.failures(p), [], bad)

    def test_larger_share_of_failed_runs_fails(self):
        p = pairs(line())
        first = SPEC["workloads"][0]["name"]
        p[first] = [(line(), "")] * 2 + p[first][2:]
        failures = self.failures(p)
        self.assertTrue(any("failed 2 of" in f for f in failures), failures)


if __name__ == "__main__":
    unittest.main()
