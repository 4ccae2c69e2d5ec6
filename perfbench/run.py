#!/usr/bin/env python3
"""Builds and runs the GADT session benchmark.

    python3 perfbench/run.py --workload cold_corpus --seed 1 --trace 0

Run from the root of a checkout. The first run configures and builds the
GADT libraries and gadt_perfbench (Release) under .bench_build/; later
runs only re-check the build. Its output is passed through; its
last line is the JSON summary. With --trace 1 the per-op layer rows are
written to .bench_build/perfbench/rows/<workload>-seed<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gadt_perfbench")
WORKLOADS = ("cold_corpus", "warm_repeat", "edit_relocalize")


def clean_env():
    # GADT_* variables switch tracing, execution tiers and background
    # compilation on or off; the benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("GADT_")}


def configured_for_here():
    """True when the build tree exists and was configured for this checkout.

    CMake refuses to reuse a build tree whose cache names another source
    directory, as it does after the checkout was moved or copied.
    """
    cache = os.path.join(BUILD, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    source = line.split("=", 1)[1].strip()
                    return os.path.realpath(source) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build_once(jobs):
    if not configured_for_here():
        shutil.rmtree(BUILD, ignore_errors=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(jobs),
                  "--target", "gadt_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the summary.
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=clean_env())
        except OSError as e:
            sys.exit("run.py: cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            print("run.py: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no GADT sources at %s" % os.path.join(ROOT, "src"))
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if build_once(max(1, min(2, cpus))):
        return
    # A parallel build can fail where a serial one succeeds (a compiler
    # killed for want of memory), so retry once from a clean tree.
    shutil.rmtree(BUILD, ignore_errors=True)
    if not build_once(1):
        sys.exit("run.py: the build failed; see the compiler output above")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpora, every check on")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        rows = os.path.join(BUILD, "rows")
        os.makedirs(rows, exist_ok=True)
        cmd += ["--rows", os.path.join(
            rows, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, env=clean_env(), timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark did not finish within 170 s")
    if done.returncode != 0:
        print("run.py: gadt_perfbench exited with code %d; its check lines "
              "are above the summary" % done.returncode, file=sys.stderr)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
