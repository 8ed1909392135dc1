"""Self-tests of the benchmark's spread and bound checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

from stability import parse_seeds, spread, within_bound, worsening


class SpreadTest(unittest.TestCase):
    def test_quartiles_use_the_exclusive_method(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # statistics.quantiles(n=4) places the quartiles at ranks
        # (n + 1) / 4 and 3 (n + 1) / 4: 2.75 and 8.25 here.
        self.assertEqual(statistics.quantiles(values, n=4), [2.75, 5.5, 8.25])
        self.assertAlmostEqual(spread(values), (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread([2.0] * 10), 0.0)

    def test_one_outlier_moves_the_spread_little(self):
        steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        with_outlier = steady[:-1] + [5.0]
        self.assertLess(spread(with_outlier), 0.05)


class BoundTest(unittest.TestCase):
    def test_worsening_respects_the_direction(self):
        self.assertAlmostEqual(worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(worsening(10.0, 9.0, "lower"), -0.1)
        self.assertAlmostEqual(worsening(1.0, 0.9, "higher"), 0.1)
        self.assertAlmostEqual(worsening(1.0, 1.1, "higher"), -0.1)

    def test_bound_is_inclusive(self):
        self.assertTrue(within_bound(0.1, 0.1))
        self.assertTrue(within_bound(-0.5, 0.1))
        self.assertFalse(within_bound(0.1001, 0.1))


class SeedsTest(unittest.TestCase):
    def test_ranges_and_lists(self):
        self.assertEqual(parse_seeds("1-3"), [1, 2, 3])
        self.assertEqual(parse_seeds("4,9"), [4, 9])


if __name__ == "__main__":
    unittest.main()
