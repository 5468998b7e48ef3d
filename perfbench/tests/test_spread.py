"""Tests of the spread math perfbench/spread.py applies to a set of runs."""

import statistics
import unittest

import spread


class SpreadTest(unittest.TestCase):
    def test_matches_exclusive_quartiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 30]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, median, q3), (11.75, 14.5, 17.25))
        self.assertAlmostEqual(spread.spread(values), (17.25 - 11.75) / 14.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread.spread([2.0] * 10), 0.0)

    def test_one_outlier_does_not_move_the_quartiles(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        spiked = base[:-1] + [50.0]
        self.assertLess(spread.spread(spiked), 0.05)

    def test_parse_seeds(self):
        self.assertEqual(spread.parse_seeds("3"), [3])
        self.assertEqual(spread.parse_seeds("1-4"), [1, 2, 3, 4])


if __name__ == "__main__":
    unittest.main()
