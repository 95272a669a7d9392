"""Tests of the benchmark harness (perfbench/run.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        self.names = [m["name"] for key in ("end_to_end", "per_layer")
                      for m in self.spec[key]]

    def test_names_are_well_formed_and_unique(self):
        for name in self.names:
            self.assertRegex(name, f"^{NAME.pattern}$")
        self.assertEqual(len(self.names), len(set(self.names)))

    def test_every_figure_and_derived_metric_is_declared(self):
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        figures = [p.stem for p in (run.ROOT / "bench").glob("*.cpp")
                   if p.stem != "micro_kernel"]
        for fig in figures:
            self.assertIn(f"fig.{fig}.run_s", per_layer)
        for name in ("sim.ns_per_event", "sim_events_per_s", "fail_frac",
                     "trace.overhead_frac", "repro.driver_overhead_s",
                     *run.DETERMINISTIC):
            self.assertIn(name, per_layer)


class TrialPrefix(unittest.TestCase):
    CSV = ("vdd_V,trial,path_ratio\n"
           "0.1,0,1.2\n0.1,1,1.3\n0.1,2,1.4\n"
           "0.2,0,1.0\n0.2,1,1.1\n0.2,2,1.5\n")

    def test_keeps_header_and_rows_below_limit(self):
        self.assertEqual(run.trial_prefix(self.CSV, 2),
                         "vdd_V,trial,path_ratio\n"
                         "0.1,0,1.2\n0.1,1,1.3\n0.2,0,1.0\n0.2,1,1.1\n")

    def test_limit_zero_leaves_the_header(self):
        self.assertEqual(run.trial_prefix(self.CSV, 0),
                         "vdd_V,trial,path_ratio\n")

    def test_trial_column_is_found_by_name(self):
        csv = "supply,trial\nac,0\nac,3\n"
        self.assertEqual(run.trial_prefix(csv, 1), "supply,trial\nac,0\n")


class Manifest(unittest.TestCase):
    MANIFEST = {
        "figures": [
            {"name": "fig_ok", "status": "ok", "wall_seconds": 0.5,
             "kernel_stats": {"events_executed": 12},
             "artifacts": [{"file": "a.csv", "bytes": 3, "sha256": "ab"}]},
            {"name": "fig_throws", "status": "run_failed",
             "wall_seconds": 0.1, "kernel_stats": {"events_executed": 0},
             "artifacts": []},
        ]
    }

    def test_run_failed_figure_is_parsed_and_counted(self):
        figures = run.parse_manifest(json.dumps(self.MANIFEST))
        self.assertEqual([f["status"] for f in figures], ["ok", "run_failed"])
        self.assertEqual(figures[0]["artifacts"], {"a.csv": "ab"})
        self.assertEqual(figures[1]["artifacts"], {})
        tally = run.Tally()
        run.check_figures(figures, tally)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))


class FailFrac(unittest.TestCase):
    def test_one_corrupted_artifact_is_one_failure_of_n(self):
        ref = "vdd_V,trial,ok\n0.1,0,1\n"
        produced = ["vdd_V,trial,ok\n0.1,0,1\n0.1,1,0\n"] * 5
        produced[3] = produced[3].replace("0.1,0,1", "0.1,0,0")
        tally = run.Tally()
        for text in produced:
            run.gate_prefix(text, ref, 1, tally, "synthetic")
        self.assertEqual((tally.attempted, tally.failed), (5, 1))
        self.assertAlmostEqual(tally.frac(), 0.2)


if __name__ == "__main__":
    unittest.main()
