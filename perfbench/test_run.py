"""Tests for the compare mode of run.py: python3 -m unittest perfbench/test_run.py"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def by_seed(values):
    return {seed: v for seed, v in enumerate(values, start=1)}


PARENT = by_seed([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])


class VerdictTest(unittest.TestCase):
    def test_identical_sets_are_the_same(self):
        kind, _ = run.verdict("higher", 0.2, PARENT, dict(PARENT), False)
        self.assertEqual(kind, "same")

    def test_a_drop_beyond_the_bound_is_worse(self):
        change = {s: v * 0.7 for s, v in PARENT.items()}
        kind, _ = run.verdict("higher", 0.2, PARENT, change, False)
        self.assertEqual(kind, "worse")

    def test_a_consistent_gain_is_better(self):
        change = {s: v * 1.1 for s, v in PARENT.items()}
        kind, _ = run.verdict("higher", 0.2, PARENT, change, False)
        self.assertEqual(kind, "better")

    def test_lower_is_better_metrics_flip(self):
        change = {s: v * 1.3 for s, v in PARENT.items()}
        kind, _ = run.verdict("lower", 0.2, PARENT, change, False)
        self.assertEqual(kind, "worse")

    def test_a_parent_wider_than_the_bound_is_unresolved(self):
        noisy = by_seed([50, 150, 60, 140, 70, 130, 80, 120, 90, 110])
        change = by_seed([100] * 10)
        kind, _ = run.verdict("higher", 0.2, noisy, change, False)
        self.assertEqual(kind, "unresolved")

    def test_exact_metrics_compare_seed_by_seed(self):
        parent = by_seed([616, 635, 643])
        self.assertEqual(run.verdict("lower", 0.2, parent, dict(parent), True)[0], "same")
        moved = {**parent, 2: 640}
        self.assertEqual(run.verdict("lower", 0.2, parent, moved, True)[0], "worse")

    def test_spread_is_the_quartile_distance_over_the_median(self):
        # Quartiles 2.75 and 8.25 around a median of 5.5.
        self.assertAlmostEqual(run.iqr_share([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 1.0)


if __name__ == "__main__":
    unittest.main()
