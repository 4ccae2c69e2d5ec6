#!/usr/bin/env python3
"""Run the perf gates of bench/trajectory.json on one perf_micro capture.

Usage:
  compare_bench.py CAPTURE.json                  run every gate
  compare_bench.py CAPTURE.json --against ENTRY  A/B table, gates nothing

CAPTURE.json is a `perf_micro --json` export. trajectory.json, beside this
script, holds the committed captures as labelled entries and a `gates`
table. Each gate names a row regex, a reference and a ceiling; a gate
fails when a gated row's ratio to its reference exceeds the ceiling. The
reference (`against`) is

  * an entry label: each time is first divided by BM_CalibrationKernel of
    its own capture, a fixed CPU kernel that calls no GADT code
    (perfbench/Calibrate.cpp), so the machine's speed cancels; the ratio
    is capture over entry. A gated row present on one side only fails: a
    renamed or deleted benchmark must not pass silently; or
  * otherwise, a row of the capture itself: each gated row is divided by
    it. The gate fails when that row is missing or ran fewer than
    MIN_ITERS iterations, since every gated row is divided by it.

Times are cpu_ns. A gated row whose winning repetition ran fewer than
MIN_ITERS timing-loop iterations, on either side, is printed as info and
not gated: min-of-N over so few iterations is scheduling noise. A gate
whose regex matches no row of the capture fails.

--against ENTRY prints every row both sides share, both divided by
BM_CalibrationKernel, and their geomean; it always exits 0.

Exit status: 0 when every gate passes, 1 when one fails, 2 on a usage or
input error.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().with_name("trajectory.json")
METRIC = "cpu_ns"
KERNEL = "BM_CalibrationKernel"
MIN_ITERS = 20


def fail_input(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def rows_of(results, where):
    """{name: (cpu_ns, iterations)}; a row without a count counts as enough."""
    try:
        return {r["name"]: (float(r[METRIC]), int(r.get("iterations", MIN_ITERS)))
                for r in results}
    except (KeyError, TypeError, ValueError):
        fail_input(f"{where}: every result needs a name and {METRIC}")


def normalized(rows, where):
    kernel = rows.get(KERNEL, (0, 0))[0]
    if kernel <= 0:
        fail_input(f"{where} has no {KERNEL} row to divide by")
    return {name: (t / kernel, n) for name, (t, n) in rows.items()}


def geomean(ratios):
    ratios = [r for r in ratios if 0 < r < math.inf]
    return math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else None


def print_table(ref_name, rows, width):
    """rows: (name, ref time, capture time, ratio, verdict) tuples."""
    ref_width = max(12, len(ref_name))
    print(f"  {'benchmark':<{width}}  {ref_name:>{ref_width}}  "
          f"{'capture':>12}  {'ratio':>7}  verdict")
    for name, ref, cur, ratio, verdict in rows:
        print(f"  {name:<{width}}  {ref:>{ref_width}.4g}  {cur:>12.4g}  "
              f"{ratio:>6.2f}x  {verdict}")


def run_gate(gate, entries, capture):
    """Prints one gate's table; returns the names of the rows that failed it."""
    pattern, against, ceiling = gate["rows"], gate["against"], gate["ceiling"]
    regex = re.compile(pattern)
    print(f"== {gate['name']}: {pattern} against {against}, "
          f"ceiling {ceiling}x [{METRIC}]")
    if against in entries:
        ref = normalized(entries[against], f"entry {against}")
        cur = normalized(capture, "the capture")
    else:
        if against not in capture:
            print(f"  MISSING: reference row {against!r}")
            return [against]
        if capture[against][1] < MIN_ITERS:
            print(f"  FAIL: reference row {against!r} ran only "
                  f"{capture[against][1]} iteration(s) (< {MIN_ITERS}); "
                  f"too noisy to divide by")
            return [against]
        cur = {n: v for n, v in capture.items() if n != against}
        ref = {n: capture[against] for n in cur}
    gated = sorted(n for n in set(ref) | set(cur) if regex.search(n))
    if not any(n in capture for n in gated):
        print(f"  MISSING: no row of the capture matches {pattern!r}")
        return [pattern]
    failed, table, ratios = [], [], []
    for name in gated:
        if name not in ref or name not in cur:
            side = "capture" if name in ref else against
            print(f"  MISSING: gated row {name!r} absent from {side}")
            failed.append(name)
            continue
        (r, r_iters), (c, c_iters) = ref[name], cur[name]
        ratio = c / r if r > 0 else math.inf
        if (iters := min(r_iters, c_iters)) < MIN_ITERS:
            verdict = f"info ({iters} iterations)"
        else:
            ratios.append(ratio)
            if ratio > ceiling:
                verdict = "REGRESSED"
                failed.append(name)
            elif ceiling > 1 and ratio < 1 / ceiling:
                verdict = "improved"
            else:
                verdict = "ok"
        table.append((name, r, c, ratio, verdict))
    print_table(against, table, max(len(n) for n in gated))
    gm = geomean(ratios)
    if gm is not None:
        print(f"  geomean {gm:.2f}x over {len(ratios)} gated row(s)")
    print(f"  {'FAIL: ' + ', '.join(failed) if failed else 'ok'}\n")
    return failed


def against_table(label, entries, capture):
    ref = normalized(entries[label], f"entry {label}")
    cur = normalized(capture, "the capture")
    common = [n for n in ref if n in cur]
    table = [(n, ref[n][0], cur[n][0], cur[n][0] / ref[n][0], "")
             for n in common if ref[n][0] > 0]
    print(f"capture against {label} [{METRIC} / {KERNEL}]")
    print_table(label, table, max(map(len, common), default=9))
    gm = geomean([row[3] for row in table])
    if gm is not None:
        print(f"  geomean {gm:.2f}x over {len(table)} row(s)")
    for side, names in ((label, set(ref) - set(cur)),
                        ("the capture", set(cur) - set(ref))):
        if names:
            print(f"note: only in {side}: {', '.join(sorted(names))}")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("capture", metavar="CAPTURE.json")
    ap.add_argument("--against", metavar="ENTRY")
    args = ap.parse_args()
    try:
        traj = json.loads(TRAJECTORY.read_text())
        doc = json.loads(Path(args.capture).read_text())
    except (OSError, ValueError) as e:
        fail_input(str(e))
    if not isinstance(doc, dict) or doc.get("bench") != "perf_micro":
        fail_input(f"{args.capture} is not a perf_micro JSON export")
    capture = rows_of(doc.get("results", []), args.capture)
    entries = {e["label"]: rows_of(e["results"], f"entry {e['label']}")
               for e in traj["entries"]}
    if args.against is not None:
        if args.against not in entries:
            fail_input(f"no trajectory entry {args.against!r}; entries: "
                       f"{', '.join(entries)}")
        return against_table(args.against, entries, capture)
    failed = [g["name"] for g in traj["gates"]
              if run_gate(g, entries, capture)]
    if failed:
        print(f"FAIL: {len(failed)} of {len(traj['gates'])} gate(s): "
              f"{'; '.join(failed)}")
        return 1
    print(f"OK: all {len(traj['gates'])} gates pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
