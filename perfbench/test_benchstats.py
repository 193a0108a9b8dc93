"""Self-test of the benchmark's arithmetic (no build needed):

    python3 perfbench/test_benchstats.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of caches
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402


def span(i, parent, layer, start, end):
    return {"id": i, "parent": parent, "layer": layer, "start": start,
            "end": end, "name": layer, "args": {}}


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(benchstats.tail_percentile(9))
        self.assertEqual(benchstats.tail_percentile(10), 0)
        self.assertEqual(benchstats.tail_percentile(99), 89)
        self.assertEqual(benchstats.tail_percentile(100), 90)
        self.assertEqual(benchstats.tail_percentile(200), 95)
        self.assertEqual(benchstats.tail_percentile(10**6), 99)

    def test_is_the_highest_such_percentile(self):
        for n in (10, 37, 100, 101, 250, 999):
            p = benchstats.tail_percentile(n)
            self.assertGreaterEqual(n * (100 - p), 1000)  # >= 10 beyond p
            self.assertLess(n * (100 - (p + 1)), 1000)    # < 10 beyond p + 1

    def test_percentile_matches_statistics_inclusive(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q = statistics.quantiles(values, n=10, method="inclusive")
        self.assertAlmostEqual(benchstats.percentile(values, 90), q[8])
        self.assertAlmostEqual(benchstats.percentile(values, 50),
                               statistics.median(values))

    def test_weighted_percentile(self):
        # equal weights: the midpoint rule gives the usual median
        self.assertAlmostEqual(
            benchstats.weighted_percentile([4, 1, 3, 2], [1, 1, 1, 1], 50), 2.5)
        self.assertEqual(
            benchstats.weighted_percentile([4, 1, 3, 2], [1, 1, 1, 1], 90), 4)
        # 3 rounds at 1 ms, 1 at 2 ms: midpoints 1.5 and 3.5 of 4
        self.assertAlmostEqual(
            benchstats.weighted_percentile([2, 1], [1, 3], 50), 1.25)
        self.assertEqual(benchstats.weighted_percentile([2, 1], [1, 3], 30), 1)
        # continuous in the values: nudging one value moves p50 a little
        a = benchstats.weighted_percentile([1.0, 2.0], [1, 1], 50)
        b = benchstats.weighted_percentile([1.0, 2.01], [1, 1], 50)
        self.assertLess(abs(a - b), 0.01)


class PerRunRoundMs(unittest.TestCase):
    def test_median_over_passes_per_run(self):
        passes = [{"round_ms": [1.0, 5.0, 2.0]},
                  {"round_ms": [9.0, 4.0, 2.0]},   # run 0 slowed once
                  {"round_ms": [1.2, 4.5, 2.0]}]
        self.assertEqual(benchstats.per_run_round_ms(passes), [1.2, 4.5, 2.0])

    def test_one_pass_is_itself(self):
        self.assertEqual(benchstats.per_run_round_ms([{"round_ms": [3.0, 1.0]}]),
                         [3.0, 1.0])

    def test_passes_must_agree_on_runs(self):
        with self.assertRaises(ValueError):
            benchstats.per_run_round_ms([{"round_ms": [1.0]},
                                         {"round_ms": [1.0, 2.0]}])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span(0, -1, "bench", 0.0, 10.0),
            span(1, 0, "scenario", 1.0, 9.0),
            # two overlapping runs inside the sweep, one sticking out of it
            span(2, 1, "p2p", 2.0, 5.0),
            span(3, 1, "p2p", 4.0, 6.0),
            span(4, 1, "p2p", 8.0, 9.5),
        ]
        self_s = benchstats.self_times(spans)
        self.assertAlmostEqual(self_s["bench"], 2.0)       # 10 - 8
        self.assertAlmostEqual(self_s["scenario"], 3.0)    # 8 - (4 + 1)
        self.assertAlmostEqual(self_s["p2p"], 3 + 2 + 1.5)  # leaves

    def test_union_length(self):
        self.assertAlmostEqual(
            benchstats.union_length([(0, 2), (1, 3), (5, 6)], 0, 10), 4.0)
        self.assertAlmostEqual(benchstats.union_length([(0, 2)], 1, 10), 1.0)
        self.assertEqual(benchstats.union_length([], 0, 1), 0.0)


class Scheduling(unittest.TestCase):
    def test_parallel_efficiency(self):
        self.assertAlmostEqual(benchstats.parallel_efficiency(12.0, 4.0, 4), 0.75)
        self.assertEqual(benchstats.parallel_efficiency(1.0, 0.0, 4), 0.0)

    def test_tail_starts_when_fewer_runs_than_workers_remain(self):
        # 6 runs on 4 workers: after the 3rd completion (t=3) three remain.
        completions = [1.0, 2.0, 3.0, 6.0, 4.0, 5.0]
        self.assertAlmostEqual(benchstats.tail_seconds(completions, 7.0, 4), 4.0)
        # fewer runs than workers: the whole sweep is tail
        self.assertAlmostEqual(benchstats.tail_seconds([1.0, 2.0], 3.0, 4), 3.0)


if __name__ == "__main__":
    unittest.main()
