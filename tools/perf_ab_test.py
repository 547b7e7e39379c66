#!/usr/bin/env python3
"""The statistics of tools/perf_ab.py on hand-written pairs.

Run directly (`python3 tools/perf_ab_test.py`); the ctest `perf_ab_stats`
does. Nothing is built or timed.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

PARENT = [400.0, 410.0, 420.0, 430.0, 440.0, 450.0, 460.0, 470.0, 480.0, 490.0]


class Statistics(unittest.TestCase):

    def test_seeds_parse_a_range_or_one_seed(self):
        self.assertEqual(perf_ab.parse_seeds("71-74"), [71, 72, 73, 74])
        self.assertEqual(perf_ab.parse_seeds("9"), [9])
        with self.assertRaises(ValueError):
            perf_ab.parse_seeds("80-71")

    def test_quartiles_interpolate(self):
        self.assertEqual(perf_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))
        self.assertEqual(perf_ab.quartiles([7.0]), (7.0, 7.0, 7.0))
        q1, med, q3 = perf_ab.quartiles(PARENT)
        self.assertAlmostEqual(q1, 422.5)
        self.assertAlmostEqual(med, 445.0)
        self.assertAlmostEqual(q3, 467.5)

    def test_clear_gain_of_a_lower_is_better_metric(self):
        s = perf_ab.summarize(PARENT, [p - 100 for p in PARENT], "lower", 0.25)
        self.assertEqual((s["wins"], s["losses"], s["ties"]), (10, 0, 0))
        self.assertAlmostEqual(s["parent_iqr"], 45.0)
        self.assertTrue(s["gain"])
        self.assertAlmostEqual(s["rel_change"], -100 / 445)
        self.assertTrue(s["within_bound"])

    def test_nine_wins_in_ten_suffice_eight_do_not(self):
        change = [p - 100 for p in PARENT]
        change[0] = PARENT[0] + 1
        self.assertEqual(perf_ab.summarize(PARENT, change, "lower")["wins"], 9)
        self.assertTrue(perf_ab.summarize(PARENT, change, "lower")["gain"])
        change[1] = PARENT[1] + 1
        self.assertEqual(perf_ab.summarize(PARENT, change, "lower")["wins"], 8)
        self.assertFalse(perf_ab.summarize(PARENT, change, "lower")["gain"])

    def test_fewer_than_ten_pairs_are_no_gain(self):
        s = perf_ab.summarize(PARENT[:9], [p - 100 for p in PARENT[:9]], "lower")
        self.assertEqual(s["wins"], 9)
        self.assertFalse(s["gain"])

    def test_medians_within_the_parent_iqr_are_no_gain(self):
        # Every pair a win, but by less than the parent's spread.
        s = perf_ab.summarize(PARENT, [p - 10 for p in PARENT], "lower")
        self.assertEqual(s["wins"], 10)
        self.assertFalse(s["gain"])
        self.assertIsNone(s["within_bound"])

    def test_ties_count_for_neither_side(self):
        s = perf_ab.summarize([0.5] * 4, [0.5] * 4, "higher", 0.05)
        self.assertEqual((s["wins"], s["losses"], s["ties"]), (0, 0, 4))
        self.assertFalse(s["gain"])
        self.assertEqual(s["rel_change"], 0.0)
        self.assertTrue(s["within_bound"])

    def test_bound_is_checked_in_the_worse_direction(self):
        # higher is better: a 30% drop exceeds a 0.25 bound, a 30% rise does not.
        self.assertFalse(perf_ab.summarize([10.0] * 3, [7.0] * 3, "higher", 0.25)["within_bound"])
        self.assertTrue(perf_ab.summarize([10.0] * 3, [13.0] * 3, "higher", 0.25)["within_bound"])
        # lower is better: a 30% rise exceeds it.
        s = perf_ab.summarize([10.0] * 3, [13.0] * 3, "lower", 0.25)
        self.assertEqual(s["losses"], 3)
        self.assertFalse(s["within_bound"])

    def test_unpaired_runs_are_rejected(self):
        with self.assertRaises(ValueError):
            perf_ab.summarize([1.0, 2.0], [1.0], "lower")
        with self.assertRaises(ValueError):
            perf_ab.summarize([], [], "lower")


if __name__ == "__main__":
    unittest.main()
