#!/usr/bin/env python3
"""Unit test of scripts/perf_pair.py's verdict rule.

A metric fails only when the head's median is worse than the base's by
more than the bound AND every head run is worse than every base run.
Registered in tests/CMakeLists.txt as perf_pair_judge_test.
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree clean under ctest
sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_pair  # noqa: E402

LOWER = {"name": "host_us_per_task", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.10}


class Judge(unittest.TestCase):
    def test_large_and_consistent_shift_fails(self):
        change, failed = perf_pair.judge(LOWER, [4.0, 4.1, 3.9],
                                         [5.2, 5.3, 5.1])
        self.assertAlmostEqual(change, 0.3)
        self.assertTrue(failed)

    def test_one_overlapping_head_run_passes(self):
        # The median is 30% worse, but one head run beats a base run.
        change, failed = perf_pair.judge(LOWER, [4.0, 4.1, 3.9],
                                         [5.2, 5.3, 4.05])
        self.assertAlmostEqual(change, 0.3)
        self.assertFalse(failed)

    def test_consistent_shift_within_the_bound_passes(self):
        change, failed = perf_pair.judge(LOWER, [4.0, 4.0, 4.0],
                                         [4.8, 4.8, 4.8])
        self.assertAlmostEqual(change, 0.2)
        self.assertFalse(failed)

    def test_equal_runs_are_not_worse(self):
        self.assertEqual(perf_pair.judge(LOWER, [4.0] * 3, [4.0] * 3),
                         (0.0, False))

    def test_higher_is_better_flips_the_sign(self):
        change, failed = perf_pair.judge(HIGHER, [100.0] * 3, [80.0] * 3)
        self.assertAlmostEqual(change, 0.2)
        self.assertTrue(failed)
        change, failed = perf_pair.judge(HIGHER, [100.0] * 3, [120.0] * 3)
        self.assertAlmostEqual(change, -0.2)
        self.assertFalse(failed)

    def test_improvement_never_fails(self):
        change, failed = perf_pair.judge(LOWER, [5.0] * 3, [2.0] * 3)
        self.assertAlmostEqual(change, -0.6)
        self.assertFalse(failed)

    def test_zero_base_median_reads_no_change(self):
        self.assertEqual(perf_pair.judge(LOWER, [0.0] * 3, [1.0] * 3),
                         (0.0, False))


if __name__ == "__main__":
    unittest.main()
