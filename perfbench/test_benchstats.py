"""Self-tests for the benchmark's own arithmetic.

Run with `python3 perfbench/run.py --self-test` (or
`python3 -m unittest discover -s perfbench`)."""

import statistics
import unittest

import benchstats as bs


def record(**over):
    rec = {
        "step_ms": [float(i) for i in range(1, 121)],
        "loop_wall_s": 2.0, "loop_steps": 120, "loop_sim_s": 1e-4,
        "global_cells": 768, "setup_s": [0.3, 0.1, 0.2],
        "peak_rss_mb": 5.5,
        "ops": {"steps": 120, "ckpt_generations": 11,
                "analysis_invocations": 11, "restores": 1,
                "unrecovered": 0, "ckpt_failed": 0,
                "emissions_dropped": 0, "restores_failed": 0},
        "checks": [{"name": "a", "ok": True, "detail": ""}],
    }
    rec.update(over)
    return rec


class Percentiles(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(bs.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(bs.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(bs.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(bs.percentile(range(1, 11), 90), 9.1)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            bs.percentile([], 50)


class P90SampleRule(unittest.TestCase):
    def test_reported_with_ten_beyond(self):
        xs = list(range(1, 101))  # p90 = 90.1, 10 samples above it
        p, n = bs.p90_if_supported(xs)
        self.assertEqual(n, 10)
        self.assertAlmostEqual(p, 90.1)

    def test_withheld_with_nine_beyond(self):
        xs = list(range(1, 91))  # p90 = 81.1, 9 samples above it
        p, n = bs.p90_if_supported(xs)
        self.assertEqual(n, 9)
        self.assertIsNone(p)

    def test_ties_do_not_count_as_beyond(self):
        p, n = bs.p90_if_supported([5.0] * 200)
        self.assertEqual(n, 0)
        self.assertIsNone(p)

    def test_end_to_end_omits_thin_tail(self):
        m = bs.end_to_end(record(step_ms=[1.0] * 50 + [2.0] * 5))
        self.assertNotIn("step_ms_p90", m)
        self.assertIn("step_ms_p50", m)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        vals = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(bs.quartile_spread(vals),
                               (q3 - q1) / statistics.median(vals))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(bs.quartile_spread([3.0] * 10), 0.0)


class Throughput(unittest.TestCase):
    def test_cell_steps_per_s(self):
        self.assertEqual(bs.cell_steps_per_s(768, 400, 4.0), 76800.0)

    def test_rejects_zero_wall(self):
        with self.assertRaises(ValueError):
            bs.cell_steps_per_s(768, 400, 0.0)

    def test_end_to_end_units_and_counts(self):
        m = bs.end_to_end(record())
        self.assertEqual(m["cell_steps_per_s"], (768 * 120 / 2.0, "1/s", 120))
        self.assertEqual(m["sim_us_per_wall_s"][0], 1e6 * 1e-4 / 2.0)
        self.assertEqual(m["setup_s"], (0.2, "s", 3))
        self.assertEqual(m["step_ms_p50"][1:], ("ms", 120))


class OpsCounting(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(bs.ops_counts(record()), (143, 0))
        self.assertEqual(bs.end_to_end(record())["ops_failed_frac"][0], 0.0)

    def test_each_failure_kind_counts_once(self):
        ops = dict(record()["ops"], unrecovered=1, ckpt_failed=2,
                   emissions_dropped=1, restores_failed=1)
        self.assertEqual(bs.ops_counts(record(ops=ops)), (143, 5))

    def test_failed_check_fails_every_operation(self):
        rec = record(checks=[{"name": "a", "ok": True, "detail": ""},
                             {"name": "b", "ok": False, "detail": ""}])
        self.assertEqual(bs.ops_counts(rec), (143, 143))
        self.assertEqual(bs.end_to_end(rec)["ops_failed_frac"][0], 1.0)

    def test_attempted_is_at_least_one(self):
        ops = {k: 0 for k in record()["ops"]}
        self.assertEqual(bs.ops_counts(record(ops=ops)), (1, 0))


if __name__ == "__main__":
    unittest.main()
