#!/usr/bin/env python3
"""Checks compare_bench.py's gate rules on captures built from the entries
of bench/trajectory.json; nothing runs perf_micro.

Each case writes a trajectory.json that holds the committed entries and
the gates under test, and a capture, and runs compare_bench's main() on
them; one case runs the script itself on the committed trajectory.

  python3 bench/compare_bench_test.py
"""

import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare_bench  # noqa: E402

TRAJECTORY = json.loads((HERE / "trajectory.json").read_text())
ENTRIES = {e["label"]: e for e in TRAJECTORY["entries"]}
GATES = {g["name"]: g for g in TRAJECTORY["gates"]}
ROW_GATE = GATES["incremental recompute"]
ENTRY_GATES = [g for g in GATES.values() if g["against"] in ENTRIES]


def capture_of(label):
    """A perf_micro export whose rows are the entry's."""
    return {"bench": "perf_micro", "schema": 2,
            "results": copy.deepcopy(ENTRIES[label]["results"])}


def row_gate_capture():
    """PR10's rows, with its cold rebuild named as the gate's reference."""
    doc = capture_of("PR10")
    row(doc, "BM_ColdRebuild")["name"] = ROW_GATE["against"]
    return doc


def row(doc, name):
    return next(r for r in doc["results"] if r["name"] == name)


def gated_row(doc, gate):
    """The first row of the capture that the gate checks."""
    return next(r for r in doc["results"]
                if re.search(gate["rows"], r["name"])
                and r["name"] != gate["against"])


def run(capture, gates, entries=None, args=()):
    """Runs compare_bench on the capture; returns (exit status, output)."""
    with tempfile.TemporaryDirectory() as tmp:
        traj = Path(tmp) / "trajectory.json"
        traj.write_text(json.dumps(
            {"gates": gates, "entries": entries or TRAJECTORY["entries"]}))
        path = Path(tmp) / "capture.json"
        path.write_text(json.dumps(capture))
        saved = compare_bench.TRAJECTORY, sys.argv
        compare_bench.TRAJECTORY = traj
        sys.argv = ["compare_bench.py", str(path), *args]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = compare_bench.main()
        except SystemExit as e:
            code = e.code
        finally:
            compare_bench.TRAJECTORY, sys.argv = saved
        return code, out.getvalue()


class GateTableTest(unittest.TestCase):
    def test_the_six_gates_are_pinned(self):
        # The six gates CI enforced as separate compare_bench.py steps
        # before they became one table; a loosened gate must show here.
        self.assertEqual(TRAJECTORY["gates"], [
            {"name": "interpreter", "rows": "BM_(Interpret|Trace)",
             "against": "PR3-parent", "ceiling": 1.5},
            {"name": "strategies and pruning",
             "rows": "BM_(Debug|Prune|DynamicSlice)",
             "against": "PR4", "ceiling": 1.5},
            {"name": "SDG build and slicing",
             "rows": "BM_(SDGBuild|SummaryEdges|StaticSlice)",
             "against": "PR5", "ceiling": 1.5},
            {"name": "bytecode VM",
             "rows": "BM_(TrackDeps|Bytecode|BatchThroughput)",
             "against": "PR8-tree", "ceiling": 1.5},
            {"name": "incremental recompute", "rows": "BM_Incremental",
             "against": "BM_ColdRebuild/min_time:1.500", "ceiling": 0.5},
            {"name": "dispatch", "rows": "BM_LoopHeavy",
             "against": "PR10-tree", "ceiling": 1.5},
        ])

    def test_every_entry_reference_names_an_entry_with_a_kernel_row(self):
        for g in ENTRY_GATES:
            names = [r["name"] for r in ENTRIES[g["against"]]["results"]]
            self.assertIn("BM_CalibrationKernel", names, g["name"])


class GateRulesTest(unittest.TestCase):
    def test_an_entry_checked_against_itself_passes(self):
        for g in ENTRY_GATES:
            code, out = run(capture_of(g["against"]), [g])
            self.assertEqual(code, 0, out)
            self.assertIn("1.00x", out)
            self.assertNotIn("REGRESSED", out)
        code, out = run(row_gate_capture(), [ROW_GATE])
        self.assertEqual(code, 0, out)

    def test_a_gated_row_one_percent_past_its_ceiling_fails(self):
        for g in ENTRY_GATES:
            for factor, want in ((0.99, 0), (1.01, 1)):
                doc = capture_of(g["against"])
                r = gated_row(doc, g)
                r["cpu_ns"] *= g["ceiling"] * factor
                code, out = run(doc, [g])
                self.assertEqual(code, want, out)
                if want:
                    self.assertIn("REGRESSED", out)
                    self.assertIn(f"FAIL: {r['name']}", out)
        for factor, want in ((0.99, 0), (1.01, 1)):
            doc = row_gate_capture()
            ref = row(doc, ROW_GATE["against"])["cpu_ns"]
            gated_row(doc, ROW_GATE)["cpu_ns"] = \
                ref * ROW_GATE["ceiling"] * factor
            code, out = run(doc, [ROW_GATE])
            self.assertEqual(code, want, out)

    def test_a_gated_row_missing_from_either_side_fails(self):
        for g in ENTRY_GATES:
            doc = capture_of(g["against"])
            gone = gated_row(doc, g)["name"]
            doc["results"].remove(row(doc, gone))
            code, out = run(doc, [g])
            self.assertEqual(code, 1, out)
            self.assertIn(f"{gone!r} absent from capture", out)

            entries = copy.deepcopy(TRAJECTORY["entries"])
            ref = next(e for e in entries if e["label"] == g["against"])
            ref["results"].remove(row(ref, gone))
            code, out = run(capture_of(g["against"]), [g], entries)
            self.assertEqual(code, 1, out)
            self.assertIn(f"{gone!r} absent from {g['against']}", out)

    def test_the_reference_row_needs_twenty_iterations(self):
        for iters, want in ((19, 1), (20, 0)):
            doc = row_gate_capture()
            row(doc, ROW_GATE["against"])["iterations"] = iters
            code, out = run(doc, [ROW_GATE])
            self.assertEqual(code, want, out)
        doc = row_gate_capture()
        doc["results"].remove(row(doc, ROW_GATE["against"]))
        code, out = run(doc, [ROW_GATE])
        self.assertEqual(code, 1, out)
        self.assertIn("MISSING: reference row", out)

    def test_a_gated_row_under_twenty_iterations_is_info(self):
        for g in ENTRY_GATES:
            doc = capture_of(g["against"])
            r = gated_row(doc, g)
            r["cpu_ns"] *= 10 * g["ceiling"]
            r["iterations"] = 19
            code, out = run(doc, [g])
            self.assertEqual(code, 0, out)
            self.assertIn("info (19 iterations)", out)
        doc = row_gate_capture()
        r = gated_row(doc, ROW_GATE)
        r["cpu_ns"] = 10 * row(doc, ROW_GATE["against"])["cpu_ns"]
        r["iterations"] = 19
        code, out = run(doc, [ROW_GATE])
        self.assertEqual(code, 0, out)
        self.assertIn("info (19 iterations)", out)

    def test_a_regex_that_matches_no_row_fails(self):
        for g in (ENTRY_GATES[0], ROW_GATE):
            g = dict(g, rows="BM_NoSuchBenchmark")
            capture = (row_gate_capture() if g["against"] not in ENTRIES
                       else capture_of(g["against"]))
            code, out = run(capture, [g])
            self.assertEqual(code, 1, out)
            self.assertIn("no row of the capture matches", out)

    def test_any_failing_gate_fails_the_run(self):
        doc = capture_of("PR4")
        gated_row(doc, GATES["strategies and pruning"])["cpu_ns"] *= 2
        code, out = run(doc, [GATES["strategies and pruning"],
                              dict(GATES["strategies and pruning"],
                                   name="copy", rows="BM_PruneStatic")])
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL: 1 of 2 gate(s): strategies and pruning", out)


class AgainstTest(unittest.TestCase):
    def test_against_prints_a_table_and_gates_nothing(self):
        doc = capture_of("PR4")
        gated_row(doc, GATES["strategies and pruning"])["cpu_ns"] *= 100
        code, out = run(doc, TRAJECTORY["gates"], args=("--against", "PR4"))
        self.assertEqual(code, 0, out)
        self.assertIn("capture against PR4", out)
        self.assertIn("geomean", out)
        self.assertNotIn("REGRESSED", out)

    def test_the_script_runs_on_the_committed_trajectory(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "capture.json"
            path.write_text(json.dumps(capture_of("PR10-tree")))
            p = subprocess.run(
                [sys.executable, str(HERE / "compare_bench.py"), str(path),
                 "--against", "PR8-tree"], capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("capture against PR8-tree", p.stdout)

    def test_unknown_entry_and_unknown_flag_are_usage_errors(self):
        doc = capture_of("PR4")
        self.assertEqual(run(doc, [], args=("--against", "PR7"))[0], 2)
        self.assertEqual(run(doc, [], args=("--filter", "BM_"))[0], 2)
        self.assertEqual(run({"results": []}, [])[0], 2)


if __name__ == "__main__":
    unittest.main()
