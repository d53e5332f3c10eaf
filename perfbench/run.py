#!/usr/bin/env python3
"""Builds and runs the T-REx benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
library from src/ together with the benchmark program into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. The build log goes to standard error, and the
last line of standard output is the program's JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("interactive_session", "backend_audit")
# Default and held-out seed per workload. A claimed gain must hold on both.
# backend_audit reads its world from seed % 16: 0 is the ROADMAP's
# 1000-row world (bench_scalability --cross_backend_rows=1000), 7 another.
SEEDS = {
    "interactive_session": (1, 1001),
    "backend_audit": (0, 7),
}
# The first run in a checkout builds first; every run then gets its own
# budget, inside the 180 s a run may take.
BUILD_LIMIT_S = 700
RUN_LIMIT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                             ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd, deadline):
    """Runs one build step with its output on stderr; True when it succeeds."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return False
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=remaining)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(deadline):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"], deadline):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_step(["cmake", "--build", out, "-j", jobs], deadline):
        return None
    binary = os.path.join(out, "trex_perfbench")
    return binary if os.path.exists(binary) else None


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"} and
            isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    seed = SEEDS[args.workload][0] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")

    binary = build(time.monotonic() + BUILD_LIMIT_S)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        print(f"run.py: benchmark exited {done.returncode} without a result",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
