"""Tests of the benchmark itself: seeding, a small run of each workload, and
that the correctness gate catches wrong outputs.

    python3 perfbench/selftest.py

Kept out of the package's pytest run (the file name does not match
test_*.py); takes about a minute.
"""

from __future__ import annotations

import random
import sys
import time
import unittest
from dataclasses import replace
from fractions import Fraction

import harness
import oracle
import spans
from run import inputs_hash
from workloads import SRC, WORKLOADS, Census, CliCalls, Orbits, check_density

sys.path.insert(0, str(SRC))


def small(cls, seed: int = 7):
    return cls(random.Random(f"{cls.name}:{seed}"), small=True)


class Seeding(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(name):
                a = inputs_hash(cls(random.Random(f"{name}:3")).tasks)
                b = inputs_hash(cls(random.Random(f"{name}:3")).tasks)
                c = inputs_hash(cls(random.Random(f"{name}:4")).tasks)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class Smoke(unittest.TestCase):
    """One short pass of each workload: every output passes its check."""

    def run_small(self, cls, traced=False):
        wl = small(cls)
        metrics, tally, _ = harness.measure(wl, 0, traced, min_passes=1)
        self.assertEqual(tally.failures, [])
        self.assertEqual(tally.failed, 0)
        self.assertGreater(tally.attempted, 0)
        return metrics

    def test_census(self):
        metrics = self.run_small(Census)
        self.assertGreater(metrics["wall_s"], 0)
        self.assertGreater(metrics["items_per_s"], 0)

    def test_orbits(self):
        self.assertGreater(self.run_small(Orbits)["latency_tail_ms"], 0)

    def test_cli(self):
        self.assertGreater(self.run_small(CliCalls)["latency_p50_ms"], 0)

    def test_failed_tasks_are_counted_not_timed(self):
        class Wrong(Orbits):
            def check(self, index, task, result):
                return False

        metrics, tally, _ = harness.measure(small(Wrong), 0, False,
                                            min_passes=1)
        self.assertEqual(tally.failed, tally.attempted)
        self.assertEqual(len(tally.failures), 5)
        self.assertEqual(metrics["wall_s"], 0)

    def test_orbits_traced(self):
        metrics = self.run_small(Orbits, traced=True)
        self.assertGreater(metrics["dynamics.classify_calls"], 0)
        self.assertGreater(metrics["factoradic.digits_converted"], 0)
        self.assertGreater(metrics["dynamics.atlas_build_ms.e6"], 0)
        self.assertEqual(metrics["analysis.values_scanned"], 0)


class Spans(unittest.TestCase):
    def test_note_time_is_kept_out_of_spans(self):
        tracer = spans.Tracer()
        spans.NOTES["test.inner"] = lambda c, a, k, r: time.sleep(0.05)
        try:
            inner = tracer.wrap("test.inner", lambda: None)
            outer = tracer.wrap("test.outer", lambda: [inner() for _ in range(3)])
            tracer.current_query = 0
            outer()
        finally:
            del spans.NOTES["test.inner"]
        s = tracer.summary()
        self.assertEqual(s["calls"], {"test.inner": 3, "test.outer": 1})
        self.assertLess(s["total_ns"]["test.outer"], 0.01e9)
        self.assertGreaterEqual(s["self_ns"]["test"], 0)


class Gate(unittest.TestCase):
    """Wrong outputs are caught by the checks, not timed as successes."""

    @classmethod
    def setUpClass(cls):
        cls.census = small(Census)
        cls.census.setup()
        cls.fh = cls.census.fh

    def reference_report(self, e: int):
        """A DensityReport holding the reference tally at 10! - 1."""
        atlas = self.census.atlases[e]
        counts = {att: oracle.DENSITY_COUNTS[e].get(att.text, 0)
                  for att in atlas.attractors}
        upper = oracle.INTERVAL_END
        return self.fh.DensityReport(
            e=e, upper=upper, counts=counts,
            proportions={a: Fraction(c, upper) for a, c in counts.items()})

    def test_reference_tally_passes(self):
        report = self.reference_report(2)
        text = self.fh.emit_report(report, "csv")
        self.assertTrue(check_density(2, oracle.INTERVAL_END, report, text))

    def test_oracle_tally_agrees_with_density(self):
        for e in range(2, 7):
            report = self.fh.density(e, 5000, self.census.atlases[e])
            counts = {a.text: c for a, c in report.counts.items() if c}
            self.assertEqual(oracle.tally(e, 5000), counts)

    def test_corrupted_tally_is_flagged(self):
        report = self.reference_report(2)
        one, four = list(report.counts)[:2]
        # Same total, one value moved between attractors.
        moved = dict(report.counts)
        moved[one] -= 1
        moved[four] += 1
        # Total off by one.
        short = dict(report.counts)
        short[one] -= 1
        for counts in (moved, short):
            bad = replace(report, counts=counts)
            text = self.fh.emit_report(bad, "csv")
            self.assertFalse(check_density(2, oracle.INTERVAL_END, bad, text))

    def test_csv_disagreeing_with_tally_is_flagged(self):
        report = self.reference_report(3)
        text = self.fh.emit_report(report, "csv").replace("31856", "31857")
        self.assertFalse(check_density(3, oracle.INTERVAL_END, report, text))

    def test_wrong_run_start_is_flagged(self):
        task = ("runs", 2, 11, 10 ** 4)
        report, text = self.census.run(task)
        self.assertTrue(self.census.check(0, task, (report, text)))
        records = list(report.records)
        records[-1] = replace(records[-1], start=records[-1].start + 1)
        bad = replace(report, records=tuple(records))
        self.assertFalse(self.census.check(
            0, task, (bad, self.fh.emit_report(bad, "csv"))))

    def test_wrong_orbit_is_flagged(self):
        wl = small(Orbits)
        wl.setup()
        i = next(i for i in sorted(wl.sample) if wl.tasks[i][0] == "classify")
        report = wl.run(wl.tasks[i])
        self.assertTrue(wl.check(i, wl.tasks[i], report))
        bad = replace(report, steps_to_attractor=report.steps_to_attractor + 1)
        self.assertFalse(wl.check(i, wl.tasks[i], bad))

    def test_changed_cli_stdout_is_flagged(self):
        wl = small(CliCalls)
        wl.setup()
        wl.prepare(lambda i: None)
        code, out = wl.run(wl.tasks[0])
        self.assertTrue(wl.check(0, wl.tasks[0], (code, out)))
        self.assertFalse(wl.check(0, wl.tasks[0], (code, out + b" ")))
        self.assertFalse(wl.check(0, wl.tasks[0], (1, out)))


if __name__ == "__main__":
    unittest.main()
