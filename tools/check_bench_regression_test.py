#!/usr/bin/env python3
"""Exit codes of tools/check_bench_regression.py on small hand-written trails.

Run directly (`python3 tools/check_bench_regression_test.py`); the ctest
`bench_checker` does. Every case writes its trail files to a temporary
directory and runs the checker with --current, so nothing is timed.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
CHECKER = os.path.join(TOOLS, "check_bench_regression.py")

TRAIL = {
    "schema": "dlouvain-bench/1",
    "kernels": {
        "graph": {"kind": "rmat", "scale": 10},
        "local_move": {"ns_per_arc": 10.0, "moved": 100},
        "coarsen": {"ns_per_arc": 100.0},
    },
    "update": {"speedup": 6.0, "modularity_delta": 0.0,
               "update_seconds_mean": 0.25, "scratch_seconds": 1.5,
               "touched_fraction": 0.01},
    "arq": {"identical": True, "baseline_seconds": 0.03,
            "clean_seconds": 0.03, "loss_seconds": 0.035,
            "corrupt_seconds": 0.034, "injected_losses": 8,
            "injected_corruptions": 10, "retransmits_loss": 8,
            "retransmits_corrupt": 10, "escalations": 0},
}


class CheckerExitCodes(unittest.TestCase):

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.baseline = self.write("baseline.json", TRAIL)

    def write(self, name, trail):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trail, handle)
        return path

    def exit_code(self, current, baseline=None):
        """The checker's exit code for `current` (a dict or a path)."""
        if isinstance(current, dict):
            current = self.write("current.json", current)
        result = subprocess.run(
            [sys.executable, CHECKER, "--baseline", baseline or self.baseline,
             "--current", current],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return result.returncode

    def test_matching_pair_passes(self):
        self.assertEqual(self.exit_code(TRAIL), 0)

    def test_each_section_alone_passes(self):
        for section in ("kernels", "update", "arq"):
            with self.subTest(section=section):
                current = {"schema": TRAIL["schema"],
                           section: TRAIL[section]}
                self.assertEqual(self.exit_code(current), 0)

    def test_kernel_thirty_percent_slower_fails(self):
        current = copy.deepcopy(TRAIL)
        current["kernels"]["coarsen"]["ns_per_arc"] = 130.0
        self.assertEqual(self.exit_code(current), 1)

    def test_kernel_missing_from_current_fails(self):
        current = copy.deepcopy(TRAIL)
        del current["kernels"]["local_move"]
        self.assertEqual(self.exit_code(current), 1)

    def test_kernel_missing_from_baseline_fails(self):
        current = copy.deepcopy(TRAIL)
        current["kernels"]["new_kernel"] = {"ns_per_arc": 1e6}
        self.assertEqual(self.exit_code(current), 1)

    def test_update_under_speedup_floor_fails(self):
        current = copy.deepcopy(TRAIL)
        current["update"]["speedup"] = 2.9
        self.assertEqual(self.exit_code(current), 1)

    def test_arq_escalation_fails(self):
        current = copy.deepcopy(TRAIL)
        current["arq"]["escalations"] = 1
        self.assertEqual(self.exit_code(current), 1)

    def test_old_trail_schema_fails(self):
        old = os.path.join(ROOT, "BENCH_PR6.json")
        self.assertEqual(self.exit_code(old), 1)
        self.assertEqual(self.exit_code(TRAIL, baseline=old), 1)

    def test_current_without_a_section_fails(self):
        self.assertEqual(self.exit_code({"schema": TRAIL["schema"]}), 1)

    def test_section_missing_from_baseline_fails(self):
        baseline = copy.deepcopy(TRAIL)
        del baseline["update"]
        self.assertEqual(
            self.exit_code(TRAIL, baseline=self.write("base2.json", baseline)),
            1)

    def test_missing_file_exits_2(self):
        missing = os.path.join(self._tmp.name, "absent.json")
        self.assertEqual(self.exit_code(missing), 2)
        self.assertEqual(self.exit_code(TRAIL, baseline=missing), 2)

    def test_committed_trail_meets_its_bars(self):
        trail = os.path.join(ROOT, "bench", "trail.json")
        self.assertEqual(self.exit_code(trail, baseline=trail), 0)


if __name__ == "__main__":
    unittest.main()
