#!/usr/bin/env python3
"""Smoke test of the session benchmark: tiny corpora, every check on.

    python3 perfbench/smoke_test.py [path/to/gadt_perfbench]

Without an argument gadt_perfbench is built first (as run.py builds it). For
each workload, runs the untraced and the traced mode twice with one seed
and requires: exit code 0, a correct summary with no failed op, exactly
the metric names BENCHMARK.json lists, identical exact counts in both runs,
and a per-op layer row for every traced op.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
# Exact counts: a pure function of the seed, so two runs must agree.
EXACT = {
    0: ("user_queries_per_bug", "judgements_per_bug"),
    1: ("trace.nodes", "analysis.sdg_edges", "analysis.summary_edges",
        "interp.steps", "core.oracle_calls", "core.answers.user",
        "pascal.source_bytes", "runtime.pdg_rebuilt"),
}
LAYERS = ("pascal_us", "transform_us", "sdg_us", "compile_us", "prepare_us",
          "begin_us", "commit_us", "exec_us", "oracle_us", "lookup_us",
          "slicing_us", "search_us", "other_us")


def expected_names():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}


def run(binary, workload, trace, rows):
    cmd = [binary, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    if trace:
        cmd += ["--rows", rows]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s%s" % (
            " ".join(cmd), done.returncode, done.stdout, done.stderr))
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    if not summary["correct"] or summary["failed"] or not summary["attempted"]:
        raise AssertionError("%s: bad summary:\n%s" % (" ".join(cmd),
                                                       done.stdout))
    return summary


def check(binary, workload, trace, rows, names):
    first = run(binary, workload, trace, rows)
    second = run(binary, workload, trace, rows)
    metrics = first["metrics"]
    if names and set(metrics) != names[trace]:
        raise AssertionError("metric names differ from BENCHMARK.json: %s" %
                             sorted(set(metrics) ^ names[trace]))
    for name in EXACT[trace]:
        a, b = metrics[name]["value"], second["metrics"][name]["value"]
        if a != b:
            raise AssertionError("%s differs between runs: %r vs %r" %
                                 (name, a, b))
    if trace:
        with open(rows) as f:
            table = json.load(f)
        if not table:
            raise AssertionError("no layer rows written")
        for row in table:
            missing = [k for k in LAYERS + ("wall_us",) if k not in row]
            if missing:
                raise AssertionError("layer row lacks %s" % missing)


def main():
    if len(sys.argv) > 1:
        binary = sys.argv[1]
    else:
        sys.path.insert(0, HERE)
        import run as runner
        runner.build()
        binary = runner.BINARY
    names = expected_names()
    failures = []
    # Rows land beside the binary, inside its build tree.
    rows = os.path.join(os.path.dirname(os.path.abspath(binary)),
                        "smoke-rows.json")
    for workload in ("cold_corpus", "warm_repeat", "edit_relocalize"):
        for trace in (0, 1):
            try:
                check(binary, workload, trace, rows, names)
                print("ok   %s trace=%d" % (workload, trace))
            except (AssertionError, subprocess.TimeoutExpired) as e:
                failures.append("%s trace=%d: %s" % (workload, trace, e))
                print("FAIL %s trace=%d" % (workload, trace))
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
