#!/usr/bin/env python3
"""Checks bench/compare.py's calibration rule on synthetic
google-benchmark JSON (standard library only):

    python3 bench/test_compare.py

The synthetic baseline carries the benchmark names of bench/baseline.json
with round median times of the same magnitudes. Each case writes a
baseline and a current file, runs compare.py on them with the CI job's
--warn 0.10 --fail 0.35, and checks its exit code and table.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
COMPARE = os.path.join(HERE, "compare.py")
sys.path.insert(0, HERE)

import compare  # noqa: E402

# name -> median real time in ns.
BASELINE_NS = {
    "BM_DfsRandomStep": 228.0,
    "BM_PetriFire": 156.0,
    "BM_CompiledFire": 81.0,
    "BM_Translation/3": 63_000.0,
    "BM_Translation/9": 237_000.0,
    "BM_Translation/18": 633_000.0,
    "BM_ReachabilityFig1b": 581_000.0,
    "BM_VerifyDeadlockOpe": 121_800_000.0,
    "BM_ReachabilityOpeStates": 122_000_000.0,
    "BM_VerifyAllSinglePass": 125_800_000.0,
    "BM_PorPassOpe/5/5": 23_300_000.0,
    "BM_PorPassOpe/6/6": 123_500_000.0,
    "BM_TimedSimRun": 667_500.0,
    "BM_CycleAnalysis/4": 4_300.0,
    "BM_CycleAnalysis/6": 8_760.0,
    "BM_OpeEncoderPush/6": 88.0,
    "BM_OpeEncoderPush/18": 270.0,
    "BM_ReferenceEncoderPush/6": 160.0,
    "BM_ReferenceEncoderPush/18": 1_840.0,
}


def document(times_ns):
    """google-benchmark JSON with one median aggregate per benchmark."""
    return {"benchmarks": [
        {"name": name + "_median", "run_name": name,
         "run_type": "aggregate", "aggregate_name": "median",
         "real_time": ns, "time_unit": "ns"}
        for name, ns in times_ns.items()]}


def host_speedup(factor, above_ns):
    """Every benchmark slower than `above_ns` runs `factor` times faster;
    the rest keep their baseline time."""
    return {name: ns / factor if ns > above_ns else ns
            for name, ns in BASELINE_NS.items()}


class CompareTest(unittest.TestCase):
    def run_compare(self, current_ns):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, times in (("baseline", BASELINE_NS),
                                 ("current", current_ns)):
                path = os.path.join(tmp, label + ".json")
                with open(path, "w") as f:
                    json.dump(document(times), f)
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, COMPARE, "--baseline", paths[0],
                 "--current", paths[1], "--warn", "0.10", "--fail", "0.35"],
                capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def row(self, output, name):
        for line in output.splitlines():
            if line.split()[:1] == [name]:
                return line
        self.fail(f"{name} missing from:\n{output}")

    def test_unchanged_tree_passes(self):
        code, out = self.run_compare(BASELINE_NS)
        self.assertEqual(code, 0, out)
        for name in BASELINE_NS:
            self.assertIn(" +0.0% ", self.row(out, name))

    def test_speedup_of_slow_rows_leaves_fire_rows_alone(self):
        # A host 1.4x faster on everything above 2 us: the fire rows'
        # neighbours (88-270 ns) did not move, so neither do they.
        current = host_speedup(1.4, above_ns=2_000.0)
        code, out = self.run_compare(current)
        self.assertEqual(code, 0, out)
        for name in ("BM_PetriFire", "BM_CompiledFire"):
            line = self.row(out, name)
            self.assertIn(" +0.0% ", line)
            self.assertIn(" 1.00x ", line)
        # The ms-scale gated rows have one neighbour within 10x, so they
        # fall back to every anchor, as before.
        self.assertIn(" 1.40x ", self.row(out, "BM_PorPassOpe/6/6"))

        # The same data under one scale for every row (the median over
        # all anchors) would fail BM_PetriFire: the case discriminates.
        baseline_s = {n: ns * 1e-9 for n, ns in BASELINE_NS.items()}
        current_s = {n: ns * 1e-9 for n, ns in current.items()}
        everything = statistics.median(
            ratio for _, ratio in compare.anchors(baseline_s, current_s))
        self.assertGreater(everything - 1.0, 0.35)

    def test_planted_regression_still_fails(self):
        current = host_speedup(1.4, above_ns=2_000.0)
        current["BM_CompiledFire"] *= 2.0
        code, out = self.run_compare(current)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", self.row(out, "BM_CompiledFire"))
        self.assertIn("BM_CompiledFire regressed", out)

    def test_uniform_slowdown_calibrates_away(self):
        code, out = self.run_compare(
            {name: ns * 2.0 for name, ns in BASELINE_NS.items()})
        self.assertEqual(code, 0, out)
        for name in filter(compare.is_gated, BASELINE_NS):
            self.assertIn(" 0.50x ", self.row(out, name))

    def test_row_scale_needs_three_near_anchors(self):
        # Four ns-scale anchors that did not move and three ms-scale ones
        # that ran twice as fast: the median over all seven is 1.0.
        anchor_list = [(100e-9, 1.0), (150e-9, 1.0), (200e-9, 1.0),
                       (250e-9, 1.0), (1e-3, 2.0), (2e-3, 2.0), (3e-3, 2.0)]
        # Three within 10x of a 1.5-ms row: their median.
        self.assertEqual(compare.row_scale(1.5e-3, anchor_list), 2.0)
        # Two within 10x of a 15-ms row (2 and 3 ms) are too few: all.
        self.assertEqual(compare.row_scale(15e-3, anchor_list), 1.0)
        self.assertIsNone(compare.row_scale(1.0, []))

if __name__ == "__main__":
    unittest.main()
