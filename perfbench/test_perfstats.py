"""Unit tests of the benchmark's statistics and metric derivations.

    python3 perfbench/test_perfstats.py
"""

import json
import statistics
import unittest
from pathlib import Path

import perfstats
import run


def span(name, sid, parent, dur, ts=0.0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "args": {"id": sid, "parent": parent}}


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(perfstats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(perfstats.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(perfstats.median([7.5]), 7.5)

    def test_matches_statistics_module(self):
        values = [0.81, 0.79, 1.2, 0.8, 5.0, 0.77, 0.9, 0.83]
        self.assertAlmostEqual(perfstats.median(values), statistics.median(values))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            perfstats.median([])


class PercentileTest(unittest.TestCase):
    def test_ends_and_middle(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(perfstats.percentile(values, 0), 10.0)
        self.assertEqual(perfstats.percentile(values, 100), 50.0)
        self.assertEqual(perfstats.percentile(values, 50), 30.0)

    def test_interpolates_between_ranks(self):
        self.assertAlmostEqual(perfstats.percentile([1.0, 2.0, 3.0, 4.0], 90), 3.7)
        self.assertAlmostEqual(perfstats.percentile([4.0, 1.0], 25), 1.75)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            perfstats.percentile([], 50)
        with self.assertRaises(ValueError):
            perfstats.percentile([1.0], 101)


class TailPercentileTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        values = [float(v) for v in range(40)]
        p, value = perfstats.tail_percentile(values)
        self.assertEqual(p, 75)
        self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_too_few_samples(self):
        self.assertIsNone(perfstats.tail_percentile([1.0] * 19))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        events = [
            span("core.cell", 1, 0, 100.0),
            span("deploy.deploy", 2, 1, 30.0),
            span("routing.boundhole", 3, 1, 50.0),
            span("graph.zones", 4, 3, 20.0),  # grandchild of the cell
        ]
        table = perfstats.self_times(events)
        self.assertEqual(table["core.cell"][0], 20.0)
        self.assertEqual(table["deploy.deploy"][0], 30.0)
        self.assertEqual(table["routing.boundhole"][0], 30.0)
        self.assertEqual(table["graph.zones"][0], 20.0)

    def test_repeated_names_accumulate(self):
        events = [span("safety.label", 1, 0, 10.0), span("safety.label", 2, 0, 30.0)]
        total, count, durations = perfstats.self_times(events)["safety.label"]
        self.assertEqual((total, count, sorted(durations)), (40.0, 2, [10.0, 30.0]))

    def test_order_of_events_does_not_matter(self):
        events = [span("graph.zones", 2, 1, 5.0), span("core.network", 1, 0, 8.0)]
        self.assertEqual(perfstats.self_times(events)["core.network"][0], 3.0)


class PerLayerTest(unittest.TestCase):
    def setUp(self):
        self.spans = perfstats.self_times([
            span("routing.slgf2.route", 1, 0, 400.0),
            span("routing.slgf2.route", 2, 0, 600.0),
            span("graph.unit_disk", 3, 0, 1000.0),
            span("graph.unit_disk.serial", 4, 0, 3000.0),
        ])

    def value(self, how, counters=None, **raw):
        raw.setdefault("exact", {})
        return run.per_layer_value(how, self.spans, dict(raw, counters=counters or {}))

    def test_self_time_is_a_per_call_mean_in_ms(self):
        self.assertAlmostEqual(self.value(("self", "routing.slgf2.route")), 0.5)

    def test_per_packet_time_in_us(self):
        how = ("per_packet", "routing.slgf2.route", "routing.slgf2.packets")
        self.assertAlmostEqual(self.value(how, {"routing.slgf2.packets": 20.0}), 25.0)

    def test_pool_speedup_is_serial_over_pooled(self):
        how = ("speedup", "graph.unit_disk.serial", "graph.unit_disk")
        self.assertAlmostEqual(self.value(how), 3.0)

    def test_overhead_is_a_difference_of_medians_in_ms(self):
        value = self.value(("overhead",), untraced_s=[1.0, 1.2, 5.0],
                           traced_s=[1.1, 1.25, 1.3])
        self.assertAlmostEqual(value, 50.0)

    def test_a_layer_the_workload_does_not_run_reads_zero(self):
        self.assertEqual(self.value(("self", "sim.epoch")), 0.0)
        self.assertEqual(self.value(("count", "sim.events")), 0.0)
        self.assertEqual(self.value(("speedup", "graph.zones.serial", "graph.zones")), 0.0)


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json at the repository root names exactly the metrics
    run.py prints, with the same units."""

    def test_metrics_match(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: unit for name, (unit, _) in run.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
