#!/usr/bin/env python3
"""Build and run the WebRacer benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corpus|ingest|bigpage \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR, default .bench_build, then runs the benchmark binary.
Build output goes to stderr; the last line of stdout is the JSON result.
Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures --seconds plus its set-ups; anything near the 180 s
# limit is a hang.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "wrbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["corpus", "ingest", "bigpage"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    cmd = [os.path.join(build_dir, "wrbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--scratch", scratch]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: benchmark timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print("error: benchmark exited with %d" % run.returncode,
              file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        print("error: benchmark printed no result", file=sys.stderr)
        return 1
    print(run.stdout.rstrip("\n"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
