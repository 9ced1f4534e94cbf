import unittest

from .. import stats


class TailPercentileRule(unittest.TestCase):
    """The highest percentile with at least ten samples beyond it."""

    def test_too_few_samples_support_no_tail(self):
        for count in (1, 5, 19):
            self.assertIsNone(stats.tail_percentile(count))
        self.assertEqual(stats.tail_latency([1.0, 2.0, 3.0], 95), (None, 2.0))

    def test_exact_thresholds(self):
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(199), 94)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(10**6), 99)  # capped

    def test_ten_samples_really_lie_beyond(self):
        for count in (20, 57, 200, 2400):
            values = list(range(count))
            used, value = stats.tail_latency(values, 99)
            self.assertGreaterEqual(sum(1 for v in values if v > value), 10, (count, used))

    def test_wanted_percentile_is_lowered_not_raised(self):
        values = [float(i) for i in range(100)]
        self.assertEqual(stats.tail_latency(values, 95)[0], 90)
        self.assertEqual(stats.tail_latency(values, 75)[0], 75)


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        import statistics

        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.3]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / statistics.median(values))

    def test_single_value_has_no_spread(self):
        self.assertEqual(stats.spread([3.0]), 0.0)
