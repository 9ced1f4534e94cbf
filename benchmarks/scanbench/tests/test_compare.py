import unittest

from ..compare import verdict


class Verdicts(unittest.TestCase):
    def test_same_worse_better(self):
        base = [10.0, 10.1, 9.9, 10.05, 9.95]
        self.assertEqual(verdict(base, [v * 1.05 for v in base], "lower", 0.10), "same")
        self.assertEqual(verdict(base, [v * 1.20 for v in base], "lower", 0.10), "worse")
        self.assertEqual(verdict(base, [v * 0.80 for v in base], "lower", 0.10), "better")
        # direction: a higher rate is an improvement
        self.assertEqual(verdict(base, [v * 0.80 for v in base], "higher", 0.10), "worse")
        self.assertEqual(verdict(base, [v * 1.20 for v in base], "higher", 0.10), "better")

    def test_wide_spread_is_unresolved_not_same(self):
        noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.5]
        self.assertEqual(verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.10), "unresolved")
        # ... unless every run of B beats every run of A
        self.assertEqual(verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.10), "better")
        # and a median beyond the bound is still worse
        self.assertEqual(verdict(noisy, [v * 1.5 for v in noisy], "lower", 0.10), "worse")
