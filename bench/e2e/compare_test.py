#!/usr/bin/env python3
"""Unit tests for compare.py's verdicts (the e2e_compare ctest).

  python3 bench/e2e/compare_test.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]
# Spread far wider than a 0.1 bound: interquartile range about 5 of 10.
NOISY = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 6.5, 13.5]


def verdict(parent, change, bound=0.1, better="lower", floor=0.0):
    return compare.verdict(parent, change, bound, better, floor)["verdict"]


class VerdictTest(unittest.TestCase):
    def test_same_runs_are_unchanged(self):
        self.assertEqual(verdict(PARENT, PARENT), "unchanged")

    def test_worse_median_beyond_bound_is_a_regression(self):
        self.assertEqual(verdict(PARENT, [x * 1.2 for x in PARENT]),
                         "regression")

    def test_consistent_win_beyond_parent_spread_is_a_gain(self):
        self.assertEqual(verdict(PARENT, [x * 0.8 for x in PARENT]), "gain")

    def test_wide_spread_is_unresolved_not_unchanged(self):
        self.assertEqual(verdict(NOISY, list(reversed(NOISY))), "unresolved")

    def test_noisy_but_separated_worse_runs_are_a_regression(self):
        # Every change run is worse than every parent run, yet each side's
        # spread is wider than the bound.
        self.assertEqual(verdict(NOISY, [x + 10.0 for x in NOISY]),
                         "regression")

    def test_noisy_but_separated_better_runs_are_better(self):
        # Every change run beats every parent run, but the medians differ by
        # less than the parent's interquartile range: not a gain.
        parent = [10.0, 10.0, 10.1, 10.2, 10.3, 18.0, 19.0, 20.0, 21.0, 22.0]
        change = [9.9, 9.8, 9.7, 9.6, 9.5, 9.9, 9.8, 9.7, 9.6, 9.5]
        self.assertEqual(verdict(parent, change), "better")

    def test_higher_is_better_flips_the_sign(self):
        self.assertEqual(verdict(PARENT, [x * 0.8 for x in PARENT],
                                 better="higher"), "regression")

    def test_absolute_floor_covers_small_values(self):
        parent = [0.0010, 0.0011, 0.0009, 0.0010, 0.0010]
        plus_1ms = [x + 0.001 for x in parent]
        plus_3ms = [x + 0.003 for x in parent]
        self.assertEqual(verdict(parent, plus_1ms, floor=0.002), "unchanged")
        self.assertEqual(verdict(parent, plus_3ms, floor=0.002), "regression")


class FailingTest(unittest.TestCase):
    def rows(self, parent_digest, change_digest, factor):
        samples = {name: list(PARENT) for name in compare.bounds()}
        worse = {name: [x * factor for x in PARENT] for name in samples}
        return compare.compare(
            {"w": {"digest": parent_digest, "samples": samples}},
            {"w": {"digest": change_digest, "samples": worse}})

    def test_regression_fails(self):
        self.assertTrue(compare.failing(self.rows("a", "a", 2.0)))

    def test_digest_mismatch_fails(self):
        self.assertTrue(compare.failing(self.rows("a", "b", 1.0)))

    def test_identical_runs_pass(self):
        self.assertFalse(compare.failing(self.rows("a", "a", 1.0)))


if __name__ == "__main__":
    unittest.main()
