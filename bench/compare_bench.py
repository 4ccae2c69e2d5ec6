#!/usr/bin/env python3
"""Diff two perf_micro --json files (or combined baseline files) with a
regression threshold, or check rows of one capture against another row of
the same capture.

Usage:
  compare_bench.py BASELINE.json CURRENT.json [options]
  compare_bench.py --within REF CURRENT.json [options]

Options:
  --max-regression R   Fail (exit 1) when current/baseline exceeds R for any
                       compared benchmark (default: 1.5).
  --filter REGEX       Only gate on benchmarks whose name matches REGEX
                       (others are still printed, marked "info"). Default:
                       gate on everything present in both files.
  --metric NAME        JSON field to compare (default: cpu_ns).
  --min-iters N        Downgrade a gated benchmark to "info" when its
                       winning repetition ran fewer than N timing-loop
                       iterations in either capture — too few iterations
                       means the min-of-N number is scheduling noise, and a
                       noise-driven FAIL is worse than no gate.
  --normalize NAME     Divide every time by the named benchmark's time from
                       the same file before comparing. This cancels the
                       absolute speed of the machine, which makes a committed
                       baseline meaningful on different hardware (CI).
  --within REF         Within-capture mode: no baseline; divide each gated
                       row of CURRENT by row REF of the same capture and
                       fail when the quotient exceeds --max-regression (a
                       ceiling, e.g. 0.5 = "at least 2x faster than REF").
                       As with --normalize, a gated row below
                       --min-iters is downgraded to info; REF below it
                       fails, since every gated row is divided by it.
  --geomean            Append a summary row with the geometric mean of the
                       gated ratios (the single number to quote for a
                       many-benchmark comparison; unlike the arithmetic
                       mean it is symmetric in speedups and slowdowns).

Accepted file shapes:
  * a raw perf_micro export: {"bench": "perf_micro", "results": [...]}
  * a combined baseline:     {"perf_micro": {...}, "batch_throughput": {...}}

A benchmark name that matches the gate filter but exists in only one of
the two captures is an error (exit 1): a silently vanished benchmark is
exactly the failure a perf gate exists to catch — a renamed or deleted
gated benchmark would otherwise pass forever. Names outside the filter
are still reported as notes only. In within-capture mode a missing REF,
a REF with fewer than --min-iters iterations, or a filter that matches no
row of the capture, is the same error.

Exit status: 0 when no gated benchmark regressed past the threshold,
1 otherwise (regression or a gated name missing from one capture), 2 on
usage/schema errors.
"""

import argparse
import json
import math
import re
import sys


def load_results(path, metric):
    """Returns (values, iterations): {name: metric} and {name: iterations}.

    The iterations table may be empty for pre-schema-2 captures that did
    not record the timing-loop iteration count.
    """
    with open(path) as f:
        doc = json.load(f)
    if "perf_micro" in doc and "results" not in doc:
        doc = doc["perf_micro"]
    if doc.get("bench") != "perf_micro" or "results" not in doc:
        sys.exit(f"error: {path} is not a perf_micro JSON export")
    out = {}
    iters = {}
    for row in doc["results"]:
        if metric not in row:
            sys.exit(f"error: {path}: result {row.get('name')!r} has no "
                     f"field {metric!r}")
        out[row["name"]] = float(row[metric])
        if "iterations" in row:
            iters[row["name"]] = int(row["iterations"])
    return out, iters


def print_geomean(ratios, width):
    finite = [r for r in ratios if 0 < r < float("inf")]
    if finite:
        gm = math.exp(sum(math.log(r) for r in finite) / len(finite))
        label = "geomean (gated)"
        print(f"{label:<{width}}  {'':>12}  {'':>12}  {gm:>6.2f}x  "
              f"over {len(finite)} benchmark(s)")


def compare_within(args, path):
    """Checks each gated row of one capture against its row args.within."""
    cur, iters = load_results(path, args.metric)
    ref = args.within
    if cur.get(ref, 0) <= 0:
        print(f"MISSING: reference benchmark {ref!r} absent from {path}")
        return 1
    ref_iters = iters.get(ref, args.min_iters)
    if ref_iters < args.min_iters:
        print(f"FAIL: reference benchmark {ref!r} ran only {ref_iters} "
              f"iteration(s) in the winning repetition (< {args.min_iters}); "
              f"its time is too noisy to divide by")
        return 1
    gate = re.compile(args.filter) if args.filter else None
    rows = [n for n in cur if n != ref and (gate is None or gate.search(n))]
    if not rows:
        print(f"MISSING: no benchmark in {path} matches the gate filter "
              f"{args.filter!r}")
        return 1

    width = max(len(n) for n in rows + [ref])
    print(f"{'benchmark':<{width}}  {'row':>12}  {ref:>12}  {'ratio':>7}  "
          f"verdict   [{args.metric}, ns; ceiling {args.max_regression}x]")
    failed = []
    gated_ratios = []
    for name in rows:
        ratio = cur[name] / cur[ref]
        gated = True
        n = iters.get(name, args.min_iters)
        if n < args.min_iters:
            print(f"note: {name}: only {n} iteration(s) in the winning "
                  f"repetition (< {args.min_iters}); downgraded to info")
            gated = False
        if not gated:
            verdict = "info"
        else:
            gated_ratios.append(ratio)
            verdict = "REGRESSED" if ratio > args.max_regression else "ok"
            if ratio > args.max_regression:
                failed.append(name)
        print(f"{name:<{width}}  {cur[name]:>12.1f}  {cur[ref]:>12.1f}  "
              f"{ratio:>6.2f}x  {verdict}")
    if args.geomean:
        print_geomean(gated_ratios, width)
    if failed:
        print(f"\nFAIL: {len(failed)} benchmark(s) above "
              f"{args.max_regression}x of {ref}: {', '.join(failed)}")
        return 1
    print(f"\nOK: every gated benchmark within {args.max_regression}x of "
          f"{ref} ({len(rows)} compared)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+", metavar="FILE",
                    help="BASELINE.json CURRENT.json, or with --within "
                         "CURRENT.json alone")
    ap.add_argument("--max-regression", type=float, default=1.5)
    ap.add_argument("--filter", default=None)
    ap.add_argument("--metric", default="cpu_ns")
    ap.add_argument("--normalize", default=None)
    ap.add_argument("--within", default=None)
    ap.add_argument("--geomean", action="store_true")
    ap.add_argument("--min-iters", type=int, default=0)
    args = ap.parse_args()

    if args.within:
        if len(args.files) != 1 or args.normalize:
            ap.error("--within takes one capture and no --normalize")
        return compare_within(args, args.files[0])
    if len(args.files) != 2:
        ap.error("expected BASELINE.json CURRENT.json")
    args.baseline, args.current = args.files

    base, base_iters = load_results(args.baseline, args.metric)
    cur, cur_iters = load_results(args.current, args.metric)

    if args.normalize:
        for name, table in (("baseline", base), ("current", cur)):
            if args.normalize not in table or table[args.normalize] <= 0:
                sys.exit(f"error: --normalize benchmark {args.normalize!r} "
                         f"missing from {name} file")
        base = {k: v / base[args.normalize] for k, v in base.items()}
        cur = {k: v / cur[args.normalize] for k, v in cur.items()}

    gate = re.compile(args.filter) if args.filter else None
    common = [n for n in base if n in cur]
    if not common:
        sys.exit("error: the two files share no benchmark names")

    # A gated benchmark present in only one capture fails the comparison:
    # the gate cannot vouch for a number it never saw, and "the benchmark
    # was renamed/deleted" must be a loud event, not a silent pass.
    missing = []
    for name in sorted(set(base) ^ set(cur)):
        if gate is None or gate.search(name):
            where = "current" if name in base else "baseline"
            missing.append((name, where))
    if missing:
        for name, where in missing:
            print(f"MISSING: gated benchmark {name!r} absent from the "
                  f"{where} capture")
        print(f"\nFAIL: {len(missing)} gated benchmark(s) exist in only "
              f"one capture; re-record the baseline or fix the benchmark "
              f"name")
        return 1

    width = max(len(n) for n in common)
    unit = "x-of-ref" if args.normalize else "ns"
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'ratio':>7}  verdict   [{args.metric}, {unit}]")
    failed = []
    gated_ratios = []
    for name in common:
        ratio = cur[name] / base[name] if base[name] > 0 else float("inf")
        gated = gate is None or gate.search(name)
        if gated and args.min_iters > 0:
            iters = min(base_iters.get(name, args.min_iters),
                        cur_iters.get(name, args.min_iters))
            if iters < args.min_iters:
                print(f"note: {name}: only {iters} iteration(s) in the "
                      f"winning repetition (< {args.min_iters}); "
                      f"downgraded to info")
                gated = False
        if not gated:
            verdict = "info"
        else:
            gated_ratios.append(ratio)
            if ratio > args.max_regression:
                verdict = "REGRESSED"
                failed.append(name)
            elif ratio < 1 / args.max_regression:
                verdict = "improved"
            else:
                verdict = "ok"
        print(f"{name:<{width}}  {base[name]:>12.1f}  {cur[name]:>12.1f}  "
              f"{ratio:>6.2f}x  {verdict}")

    if args.geomean:
        print_geomean(gated_ratios, width)

    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    if only_base:
        print(f"note: only in baseline: {', '.join(only_base)}")
    if only_cur:
        print(f"note: only in current: {', '.join(only_cur)}")

    if failed:
        print(f"\nFAIL: {len(failed)} benchmark(s) regressed past "
              f"{args.max_regression}x: {', '.join(failed)}")
        return 1
    print(f"\nOK: no gated benchmark regressed past {args.max_regression}x "
          f"({len(common)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
