"""Unit tests of the orchestrator's own code (python3 -m unittest discover -s benchmark)."""

import json
import os
import re
import statistics
import tempfile
import unittest
from unittest import mock

import run

LEDGER = """{"counters":{"sim_sessions":3,"sim_events_scheduled":120,"cache_hits":2,"capture_trace_regrows":1},
"gauges":{"sim_queue_peak_len":7,"peak_trace_bytes":4096},"histograms":{},"profiles":{},"schema_version":1,
"spans":[{"events":100,"name":"fig1","sessions":2,"wall_ns":5000000},{"events":20,"name":"table1","sessions":1,"wall_ns":0}]}"""


class Statistics(unittest.TestCase):
    def test_quartiles_are_the_standard_librarys(self):
        xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
        self.assertEqual(list(run.quartiles(xs)), statistics.quantiles(xs, n=4))
        self.assertEqual(run.quartiles(xs)[1], statistics.median(xs))

    def test_one_sample_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_describe_names_every_statistic_and_the_count(self):
        text = run.describe([1.0, 2.0, 4.0])
        for word in ("median 2.0000", "min 1.0000", "max 4.0000", "n 3", "q1", "q3"):
            self.assertIn(word, text)

    def test_undisturbed_takes_each_slices_fastest_pass(self):
        self.assertEqual(run.undisturbed([[1.0, 5.0], [3.0, 2.0]]), 3.0)
        # A child process is one slice per pass: its fastest pass.
        self.assertEqual(run.undisturbed([[4.2], [3.9], [4.0]]), 3.9)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(run.ratio(1.0, 0), 0.0)
        self.assertEqual(run.ratio(1.0, 4), 0.25)


class Ledger(unittest.TestCase):
    def test_counters_gauges_and_spans_are_read(self):
        counts, spans = run.parse_ledger(json.loads(LEDGER))
        self.assertEqual(counts["sim_events_scheduled"], 120)
        self.assertEqual(counts["sim_queue_peak_len"], 7)
        self.assertEqual(spans["fig1"]["wall_ns"], 5000000)
        self.assertEqual(sorted(spans), ["fig1", "table1"])

    def test_read_ledger_reads_the_file_repro_writes(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            f.write(LEDGER)
        try:
            counts, _ = run.read_ledger(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(counts["sim_sessions"], 3)

    def test_only_simulated_counts_must_repeat(self):
        a, _ = run.parse_ledger(json.loads(LEDGER))
        b = dict(a, cache_hits=0, peak_trace_bytes=1, capture_trace_regrows=9)
        self.assertEqual(run.ledger_differences(a, b), [])
        b["sim_events_scheduled"] += 1
        self.assertEqual(run.ledger_differences(a, b), ["sim_events_scheduled"])


class Outputs(unittest.TestCase):
    def test_equal_passes_and_golden_are_no_mismatch(self):
        m = {"a.csv": "11", "stdout": "22"}
        self.assertEqual(run.mismatches([m, dict(m)], dict(m)), (0, []))

    def test_a_differing_pass_and_a_differing_golden_both_count(self):
        m = {"a.csv": "11", "stdout": "22"}
        count, notes = run.mismatches([m, dict(m, stdout="33")], dict(m, **{"a.csv": "00"}))
        self.assertEqual(count, 2)
        self.assertIn("pass 1 differs", notes[0])
        self.assertIn("a.csv", notes[1])

    def test_no_golden_off_the_default_seed(self):
        m = {"stdout": "22"}
        self.assertEqual(run.mismatches([m], None), (0, []))

    def test_manifest_covers_stdout_and_every_csv_and_hides_the_temp_path(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            with open(os.path.join(tmp, "fig1.csv"), "w") as f:
                f.write("x,y\n1,2\n")
            rel = os.path.relpath(tmp, run.ROOT)
            a = run.cli_manifest("figures_all", tmp, "  wrote %s/fig1.csv\n" % rel)
            self.assertEqual(sorted(a), ["fig1.csv", "stdout"])
            self.assertEqual(a["stdout"], run.digest(b"  wrote <csv>/fig1.csv\n"))
            self.assertEqual(a["fig1.csv"], run.digest(b"x,y\n1,2\n"))
            self.assertEqual(sorted(run.cli_manifest("campaign_1m", tmp, "report")), ["stdout"])

    def test_golden_files_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(run, "GOLDEN", tmp):
            self.assertIsNone(run.read_golden("sessions_bulk"))
            manifest = run.session_manifest(["00ff", "abcd"])
            run.write_golden("sessions_bulk", manifest)
            self.assertEqual(run.read_golden("sessions_bulk"), {"s000": "00ff", "s001": "abcd"})

    def test_committed_goldens_cover_every_workload(self):
        for name in run.WORKLOADS:
            golden = run.read_golden(name)
            self.assertTrue(golden, name)
        self.assertEqual(len(run.read_golden("figures_all")), 35)  # 34 CSVs + stdout


class SpanTree(unittest.TestCase):
    def test_child_spans_are_grafted_under_the_open_span(self):
        spans = run.Spans("w")
        spans.enter("root")
        spans.enter("driver")
        spans.adopt([{"id": 0, "parent": None, "name": "d", "start_ns": 5, "end_ns": 9},
                     {"id": 1, "parent": 0, "name": "probe", "start_ns": 6, "end_ns": 8}], spans.origin + 100)
        spans.exit()
        spans.exit()
        by_name = {s["name"]: s for s in spans.spans}
        self.assertIsNone(by_name["root"]["parent"])
        self.assertEqual(by_name["d"]["parent"], by_name["driver"]["id"])
        self.assertEqual(by_name["probe"]["parent"], by_name["d"]["id"])
        self.assertEqual(by_name["d"]["start_ns"], 105)
        self.assertTrue(all(s["workload"] == "w" and s["end_ns"] >= s["start_ns"] for s in spans.spans))


class Contract(unittest.TestCase):
    """BENCHMARK.json against the limits of the benchmark contract."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_shape(self):
        spec = run.SPEC
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"])
        self.assertEqual(spec["paths"], ["benchmark"])
        self.assertEqual(spec["command"], ["python3", "benchmark/run.py"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)

    def test_names_units_bounds(self):
        spec = run.SPEC
        names = [x["name"] for x in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "a name is used once")
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in spec["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        for metric in spec["end_to_end"]:
            self.assertEqual(sorted(metric), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(sorted(metric), ["better", "name", "unit"])
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], self.UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [x for x in spec["end_to_end"] if x["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(x["bound"] for x in spec["end_to_end"]))

    def test_every_figure_and_class_has_its_metric(self):
        names = {x["name"] for x in run.SPEC["per_layer"]}
        for fig in run.FIGURE_IDS:
            self.assertIn("core.figure_ms." + fig, names)
        self.assertEqual(sum(n.startswith("app.class_ns_per_event.") for n in names), 8)


if __name__ == "__main__":
    unittest.main()
