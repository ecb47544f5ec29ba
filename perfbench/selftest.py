#!/usr/bin/env python3
"""Tests of the benchmark itself, each on a quick size of every workload.

    python3 perfbench/selftest.py [-v]

They check that counts repeat exactly, that the layer map covers every
event name the workloads emit, that the kernel probe and each decorator
leave the simulation byte-identical, that the seed is the input, that
the output checks catch a broken run, and that the result line carries
exactly the metrics BENCHMARK.json names.  Builds the runner first,
like run.py.
"""

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

ALONE = [["--probe"], ["--wrap=policy"], ["--wrap=jobs"],
         ["--wrap=arrivals"], ["--traced"]]


def quick(workload, *extra, seed=1):
    r, err = bench.run_once(workload, seed, False, quick=True, extra=extra)
    if r is None:
        raise AssertionError(f"{workload} {extra}: {err}")
    return r


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()
        cls.plain = {wl: quick(wl) for wl in bench.WORKLOADS}

    def test_build_is_optimised_and_unsanitized(self):
        host = bench.fingerprint()
        self.assertIn(host["build_type"], ("Release", "RelWithDebInfo"))

    def test_counts_repeat_exactly(self):
        for wl in bench.WORKLOADS:
            with self.subTest(workload=wl):
                again = quick(wl)
                self.assertEqual(again["stats_digest"],
                                 self.plain[wl]["stats_digest"])
                self.assertEqual(again["counters"],
                                 self.plain[wl]["counters"])
                self.assertEqual(bench.check_run(again, self.plain[wl]), [])

    def test_layer_map_covers_every_event(self):
        for wl in bench.WORKLOADS:
            with self.subTest(workload=wl):
                r = quick(wl, "--traced")
                self.assertEqual(r["unknown_events"], "")
                self.assertTrue(all("layer" in e
                                    for e in r["events"].values()))
                self.assertEqual(r["layers"]["probe_events"],
                                 r["counters"]["sim.events"])

    def test_probe_and_each_decorator_are_behaviour_neutral(self):
        for wl in bench.WORKLOADS:
            for extra in ALONE:
                with self.subTest(workload=wl, hooks=extra):
                    r = quick(wl, *extra)
                    self.assertEqual(r["stats_digest"],
                                     self.plain[wl]["stats_digest"])
                    self.assertEqual(r["counters"],
                                     self.plain[wl]["counters"])

    def test_decorators_see_every_call(self):
        r = quick("fattree_fanout", "--traced")
        c, lay = r["counters"], r["layers"]
        self.assertEqual(lay["workload.make_jobs"], c["sched.jobs_submitted"])
        self.assertEqual(lay["sched.picks"], c["sched.tasks_dispatched"])
        self.assertGreater(lay["trace.coverage"], 0.5)
        self.assertGreater(lay["trace.probe_ns_per_event"], 0.0)

    def test_seed_is_the_input(self):
        for wl in bench.WORKLOADS:
            with self.subTest(workload=wl):
                other = quick(wl, seed=2)
                self.assertNotEqual(other["stats_digest"],
                                    self.plain[wl]["stats_digest"])

    def test_checks_catch_a_broken_run(self):
        good = quick("three_tier", "--traced")
        cases = {
            "incomplete": lambda r: r["counters"].update(
                {"sched.jobs_completed": r["jobs_expected"] - 1}),
            "digest": lambda r: r.update({"stats_digest": "0" * 16}),
            "counter": lambda r: r["counters"].update(
                {"sim.queue.peak": r["counters"]["sim.queue.peak"] + 1}),
            "unknown event": lambda r: r.update({"unknown_events": "x.y"}),
        }
        self.assertEqual(bench.check_run(good, good), [])
        for name, breakit in cases.items():
            with self.subTest(case=name):
                bad = copy.deepcopy(good)
                breakit(bad)
                self.assertNotEqual(bench.check_run(bad, good), [])

    def test_result_line_names_the_benchmark_metrics(self):
        with open(bench.ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        expect = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                  1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
        self.assertEqual(expect[0], [(n, u) for n, u, _ in bench.END_TO_END])
        self.assertEqual(expect[1], [(n, u) for n, u, _ in bench.PER_LAYER])
        for w in spec["workloads"]:
            self.assertEqual(w["why"], bench.WORKLOADS[w["name"]])
        for trace in (0, 1):
            with self.subTest(trace=trace):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    status = bench.main(["--workload", "warehouse_100k",
                                         "--seed", "3", "--seconds", "0",
                                         "--trace", str(trace), "--quick"])
                self.assertEqual(status, 0)
                result = json.loads(out.getvalue().strip().splitlines()[-1])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    [(n, m["unit"]) for n, m in result["metrics"].items()],
                    expect[trace])


if __name__ == "__main__":
    unittest.main()
